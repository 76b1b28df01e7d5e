//@ path: crates/core/src/fixture.rs
// lint:allow(D8)
fn f(doc: &WireDoc) -> u64 { doc.req_u64("size").unwrap() }
//~^^ ERROR D8
//~^^ SUPPRESSED D8
