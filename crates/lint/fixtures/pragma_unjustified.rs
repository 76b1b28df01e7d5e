//@ path: crates/core/src/fixture.rs
// lint:allow(D12)
fn f(m: &Metrics) { m.incr("ad_hoc_key", 1); }
//~^^ ERROR D12
//~^^ SUPPRESSED D12
