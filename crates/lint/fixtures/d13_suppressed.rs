//@ path: src/bin/repro.rs
// lint:allow(D13) fixture: operator-requested export sits outside the durability domain
fn f() { std::fs::write("out.csv", "data").unwrap(); } //~ SUPPRESSED D13
