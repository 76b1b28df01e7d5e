//@ path: crates/checkpoint/src/snapshot.rs
// Only the checkpoint crate's vfs module may touch std::fs — reads,
// opens and writes alike, in this crate as in every other.
fn f() -> Vec<u8> { std::fs::read("day001.ckpt").unwrap() } //~ ERROR D13
fn g() { let _f = File::open("day001.ckpt").unwrap(); } //~ ERROR D13
fn h() { std::fs::write("day001.ckpt", b"x").unwrap(); } //~ ERROR D13
fn k() { let _f = File::create("day001.ckpt").unwrap(); } //~ ERROR D13
fn m() { let _o = OpenOptions::new(); } //~ ERROR D13
