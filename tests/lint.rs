//! Integration tests for the determinism lint (`chatlens-lint`): every
//! rule firing on a fixture snippet, every rule silenced by its
//! `lint:allow` pragma, and the real workspace tree scanning clean.
#![expect(clippy::disallowed_methods, reason = "reads sources, writes a fixture")]

use chatlens_lint::{check_source, check_source_counting, check_workspace, Rule};

fn rules_of(path: &str, src: &str) -> Vec<Rule> {
    check_source(path, src)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

/// `(rule, fixture path, violating snippet, suppressed variant)` — one row
/// per rule; the suppressed variant carries the pragma plus justification.
fn fixtures() -> Vec<(Rule, &'static str, &'static str, &'static str)> {
    vec![
        (
            Rule::D2,
            "crates/analysis/src/fixture.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 { let mut s = 0; for v in m.values() { s += v; } s }",
            "fn f(m: &HashMap<u32, u64>) -> u64 {\n let mut s = 0;\n // lint:allow(D2) fixture: sum is order-insensitive\n for v in m.values() { s += v; }\n s }",
        ),
        (
            Rule::D4,
            "crates/analysis/src/fixture.rs",
            "fn f(pool: &Pool) { pool.par_map(&xs, |x| { shared.lock().push(*x); 0 }); }",
            "fn f(pool: &Pool) {\n // lint:allow(D4) fixture: lock is chunk-local here\n pool.par_map(&xs, |x| { shared.lock().push(*x); 0 });\n}",
        ),
        (
            Rule::D5,
            "crates/simnet/src/fixture.rs",
            "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }",
            "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n // lint:allow(D5) fixture: std mutex on purpose\n *m.lock().unwrap()\n}",
        ),
        (
            Rule::D8,
            "crates/core/src/fixture.rs",
            "fn f(doc: &WireDoc) -> u64 { doc.req_u64(\"size\").unwrap() }",
            "fn f(doc: &WireDoc) -> u64 {\n // lint:allow(D8) fixture: body rendered two lines up, cannot fail\n doc.req_u64(\"size\").unwrap()\n}",
        ),
        (
            Rule::D10,
            "crates/core/src/dataset.rs",
            "fn f(x: u32) -> String { x.to_string() }",
            "fn f(x: u32) -> String {\n // lint:allow(D10) fixture: cold path, runs once per report\n x.to_string()\n}",
        ),
        (
            Rule::D14,
            "crates/core/src/fixture.rs",
            "fn f(doc: &WireDoc) -> Vec<u8> { Vec::with_capacity(doc.req_u64(\"n\").unwrap_or(0) as usize) }",
            "fn f(doc: &WireDoc) -> Vec<u8> {\n // lint:allow(D14) fixture: page size capped by the transport frame limit upstream\n Vec::with_capacity(doc.req_u64(\"n\").unwrap_or(0) as usize)\n}",
        ),
    ]
}

#[test]
fn every_rule_fires_on_its_fixture() {
    for (rule, path, bad, _) in fixtures() {
        let got = rules_of(path, bad);
        assert_eq!(got, vec![rule], "{rule} fixture at {path}: {got:?}");
    }
}

#[test]
fn every_rule_is_suppressed_by_its_pragma() {
    for (rule, path, _, allowed) in fixtures() {
        let (findings, suppressed) = check_source_counting(path, allowed);
        assert!(
            findings.is_empty(),
            "{rule} pragma fixture still fires: {findings:?}"
        );
        assert_eq!(suppressed, 1, "{rule} pragma fixture suppression count");
    }
}

#[test]
fn d2_tracks_the_fixed_hasher_maps() {
    // A fixed hasher iterates in the same order in every process, but
    // that order is still not a function of the contents alone.
    let iterated = "use chatlens_simnet::fastmap::FastMap;\nfn f(per_user: &FastMap<u32, u64>) -> Vec<u64> {\n let mut out = Vec::new();\n for v in per_user.values() { out.push(*v); }\n out\n}";
    assert_eq!(
        rules_of("crates/analysis/src/fixture.rs", iterated),
        vec![Rule::D2]
    );
    let sorted = "use chatlens_simnet::fastmap::FastMap;\nfn f(per_user: FastMap<u32, u64>) -> BTreeMap<u32, u64> {\n per_user.into_iter().collect::<BTreeMap<u32, u64>>()\n}";
    assert_eq!(rules_of("crates/analysis/src/fixture.rs", sorted), vec![]);
}

#[test]
fn findings_carry_file_line_and_rule_id() {
    let src = "fn f() {}\nfn g(doc: &WireDoc) -> u64 { doc.req_u64(\"size\").unwrap() }";
    let findings = check_source("crates/core/src/fixture.rs", src);
    assert_eq!(findings.len(), 1);
    let f = &findings[0];
    assert_eq!((f.line, f.rule), (2, Rule::D8));
    let rendered = f.to_string();
    assert!(
        rendered.starts_with("crates/core/src/fixture.rs:2:"),
        "{rendered}"
    );
    assert!(rendered.contains("[D8]"), "{rendered}");
}

#[test]
fn wrong_rule_pragma_does_not_suppress() {
    // The D8 finding survives the mismatched pragma, and the pragma itself
    // becomes a finding: a `lint:allow` that suppresses nothing is dead
    // weight that hides drift, so the audit flags it (attributed to the
    // rule it names, at the pragma's own line).
    let src = "// lint:allow(D5) wrong rule on purpose\nfn f(doc: &WireDoc) -> u64 { doc.req_u64(\"size\").unwrap() }";
    assert_eq!(
        rules_of("crates/core/src/fixture.rs", src),
        vec![Rule::D5, Rule::D8]
    );
}

#[test]
fn the_real_workspace_tree_is_clean() {
    let report = check_workspace(env!("CARGO_MANIFEST_DIR")).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the tree must lint clean; findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The walk actually visited the workspace (all crates + src/).
    assert!(report.files_scanned >= 50, "{} files", report.files_scanned);
    // Every pragma in the tree is intentional: these are the justified
    // allowances documented in DESIGN.md §Determinism lint. Growing this
    // number requires a justification comment at the new site. The audit
    // rules guarantee each one both suppresses a real finding and carries
    // a justification, so the count is exact, not a ceiling. It counts
    // suppressed findings: 18 pragmas silence 19 (one D10 pragma covers
    // two allocations on its line).
    assert_eq!(report.suppressed, 19, "unexpected lint:allow pragma count");
}

#[test]
fn stats_table_reports_all_rules_on_real_tree() {
    let report = check_workspace(env!("CARGO_MANIFEST_DIR")).expect("workspace scan");
    let table = report.stats_table();
    for rule in Rule::ALL {
        assert!(table.contains(rule.id()), "missing {rule} in:\n{table}");
    }
    assert!(table.contains("suppressed"), "{table}");
}

#[test]
fn repro_lint_exits_zero_on_clean_tree_and_nonzero_on_violation() {
    use std::process::Command;
    // Clean tree: the workspace itself.
    let ok = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("lint")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run repro lint");
    assert!(
        ok.status.success(),
        "repro lint failed on clean tree:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Seeded violation fixture: a minimal workspace layout whose one
    // source file unwraps a wire accessor.
    let fixture_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("lint-violation-fixture");
    let src_dir = fixture_root.join("crates").join("bad").join("src");
    std::fs::create_dir_all(&src_dir).expect("fixture dirs");
    std::fs::create_dir_all(fixture_root.join("src")).expect("fixture src dir");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn probe(doc: &WireDoc) -> u64 { doc.req_u64(\"size\").unwrap() }\n",
    )
    .expect("fixture file");
    let bad = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("lint")
        .current_dir(&fixture_root)
        .output()
        .expect("run repro lint on fixture");
    assert!(
        !bad.status.success(),
        "repro lint must exit nonzero on the violation fixture"
    );
    let out = String::from_utf8_lossy(&bad.stdout);
    assert!(out.contains("[D8]"), "diagnostic names the rule: {out}");
    assert!(
        out.contains("crates/bad/src/lib.rs:1:"),
        "diagnostic names file and line: {out}"
    );
}

/// Rules D1, D3 and D13 are the bans in the root `clippy.toml`, and D7
/// is `clippy::let_underscore_must_use` denied at the crate roots. Each
/// statement below names one banned API under an `#[expect]`, so deleting
/// its ban leaves the expectation unfulfilled and fails `cargo clippy
/// -D warnings`; nothing banned is called. An `#[expect]` turns its lint
/// on, so `discard` shows only that clippy catches D7's pattern: the
/// crate-root denies are read from the sources.
#[test]
fn every_clippy_ban_is_enforced() {
    #[expect(clippy::disallowed_types, reason = "fixture: D1 bans the wall clock")]
    let _: Option<std::time::Instant> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: D1 bans the wall clock")]
    let _: Option<std::time::SystemTime> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: D1 bans the wall clock")]
    let _: Option<std::time::Duration> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: D3 bans ambient entropy")]
    let _: Option<std::hash::RandomState> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: D13 confines std::fs")]
    let _: Option<std::fs::File> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: D13 confines std::fs")]
    let _: Option<std::fs::OpenOptions> = None;
    #[expect(clippy::disallowed_types, reason = "fixture: D13 confines std::fs")]
    let _: Option<std::fs::DirBuilder> = None;
    #[expect(clippy::disallowed_methods, reason = "fixture: D1 bans thread ids")]
    let _ = std::thread::current;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::canonicalize::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::copy::<&str, &str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::create_dir::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::create_dir_all::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::exists::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::hard_link::<&str, &str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::metadata::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::read::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::read_dir::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::read_link::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::read_to_string::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::remove_dir::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::remove_dir_all::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::remove_file::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::rename::<&str, &str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::set_permissions::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::symlink_metadata::<&str>;
    #[expect(clippy::disallowed_methods, reason = "fixture: D13 confines std::fs")]
    let _ = std::fs::write::<&str, &str>;
    use chatlens::core::net::Net;
    use chatlens::simnet::{transport::Request, SimTime};
    #[expect(clippy::let_underscore_must_use, reason = "fixture: D7 drops a result")]
    fn discard(net: &mut Net, eco: &mut chatlens::Ecosystem, now: SimTime, req: &Request) {
        let _ = net.twitter(eco, now, req);
    }
    let _ = discard;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for krate in ["crates/core/src/lib.rs", "src/lib.rs", "src/bin/repro.rs"] {
        let src = std::fs::read_to_string(root.join(krate)).expect("read crate root");
        let deny = "\n#![deny(clippy::let_underscore_must_use)]\n";
        assert!(src.contains(deny), "{krate} must deny D7's lint");
    }
}

/// The `unsafe` boundary: the keyword appears only in the SHA-256
/// module (its hardware kernel) and in the counting global allocator of
/// the allocation-count test (`tests/allocs.rs`, which no library links),
/// and every library crate that forbids `unsafe_code` keeps forbidding
/// it. Rustc enforces the attributes; this pins where they sit.
#[test]
fn unsafe_code_is_confined_to_the_hash_module() {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for path in entries.map(|e| e.expect("dir entry").path()) {
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates"] {
        walk(&root.join(dir), &mut files);
    }
    assert!(files.len() >= 50, "{} files", files.len());
    let mut with_unsafe: Vec<String> = files
        .iter()
        .filter(|f| {
            let src = std::fs::read_to_string(f).expect("read source");
            chatlens_lint::scan::scan(&src)
                .tokens
                .iter()
                .any(|t| t.is_ident("unsafe"))
        })
        .map(|f| {
            f.strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    with_unsafe.sort();
    assert_eq!(
        with_unsafe,
        ["crates/simnet/src/hash.rs", "tests/allocs.rs"]
    );

    let attr = |lib: &str| std::fs::read_to_string(root.join(lib)).expect("read lib.rs");
    for lib in [
        "src/lib.rs",
        "crates/analysis/src/lib.rs",
        "crates/checkpoint/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/perspective/src/lib.rs",
        "crates/platforms/src/lib.rs",
        "crates/report/src/lib.rs",
        "crates/twitter/src/lib.rs",
        "crates/workload/src/lib.rs",
    ] {
        assert!(attr(lib).contains("\n#![forbid(unsafe_code)]\n"), "{lib}");
    }
    assert!(attr("crates/simnet/src/lib.rs").contains("\n#![deny(unsafe_code)]\n"));
}
