//@ path: crates/core/src/fixture.rs
// lint:allow(D11) wrong rule on purpose, stays stale
//~^ ERROR D11
fn f(m: &Metrics) { m.incr("ad_hoc_key", 1); } //~ ERROR D12
// lint:allow(D13) a retired rule's pragma names no rule
//~^ ERROR pragma
