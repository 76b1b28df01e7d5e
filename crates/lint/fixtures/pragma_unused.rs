//@ path: crates/core/src/fixture.rs
// lint:allow(D10) wrong rule on purpose, stays stale
//~^ ERROR D10
fn f(doc: &WireDoc) -> u64 { doc.req_u64("size").unwrap() } //~ ERROR D8
// lint:allow(D13) a retired rule's pragma names no rule
//~^ ERROR pragma
// lint:allow(D12) a rule the compiler now checks names no rule either
//~^ ERROR pragma
