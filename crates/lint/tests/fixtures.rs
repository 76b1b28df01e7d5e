//! rustc-UI-style fixture corpus for the lint. Every `fixtures/*.rs`
//! file declares the virtual workspace path it should be checked under
//! in a `//@ path:` header (rules are path-sensitive: hot modules,
//! library crates, the checkpoint crate), and marks its expectations
//! with trailing comments:
//!
//! * `//~ ERROR D<k>` — a D\<k\> finding is expected on this line
//!   (`//~^` points one line up, `//~^^` two lines up, and so on);
//! * `//~ SUPPRESSED D<k>` — a finding on this line is expected to be
//!   silenced by a `lint:allow` pragma (checked as a per-file count).
//!
//! The harness diffs expectations against the real report and prints
//! the missing and unexpected findings side by side on drift.
#![expect(clippy::disallowed_methods, reason = "reads the fixture corpus")]

use chatlens_lint::{check_source_counting, Rule};

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Expected {
    line: u32,
    rule: String,
}

/// Parse the `//@ path:` header and every `//~` expectation out of a
/// fixture source. Returns `(virtual path, expected findings, expected
/// suppression count)`.
fn parse_fixture(name: &str, src: &str) -> (String, Vec<Expected>, usize) {
    let mut path = None;
    let mut errors = Vec::new();
    let mut suppressed = 0usize;
    for (i, line) in src.lines().enumerate() {
        let line_no = (i + 1) as u32;
        if let Some(rest) = line.strip_prefix("//@ path:") {
            path = Some(rest.trim().to_string());
        }
        let mut rest = line;
        while let Some(pos) = rest.find("//~") {
            rest = &rest[pos + 3..];
            let carets = rest.chars().take_while(|&c| c == '^').count();
            let target = line_no - carets as u32;
            let body = rest[carets..].trim_start();
            if let Some(tail) = body.strip_prefix("ERROR ") {
                let rule = tail.split_whitespace().next().unwrap_or("").to_string();
                assert!(!rule.is_empty(), "{name}:{line_no}: bare ERROR expectation");
                errors.push(Expected { line: target, rule });
            } else if body.starts_with("SUPPRESSED ") {
                suppressed += 1;
            } else {
                panic!("{name}:{line_no}: unknown expectation kind in `//~ {body}`");
            }
        }
    }
    let path = path.unwrap_or_else(|| panic!("{name}: missing `//@ path:` header"));
    (path, errors, suppressed)
}

/// Remove one matching element from `pool` per element of `probe`,
/// returning what could not be matched (multiset difference).
fn unmatched(probe: &[Expected], pool: &[Expected]) -> Vec<Expected> {
    let mut pool: Vec<Option<&Expected>> = pool.iter().map(Some).collect();
    let mut missing = Vec::new();
    for want in probe {
        match pool.iter().position(|c| c.is_some_and(|c| c == want)) {
            Some(i) => pool[i] = None,
            None => missing.push(want.clone()),
        }
    }
    missing
}

#[test]
fn fixture_corpus_matches_expectations() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures/ directory")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();

    // Corpus completeness: one firing and one suppressed fixture per rule.
    for rule in Rule::ALL {
        let k: u32 = rule.id()[1..].parse().expect("rule ids are D<n>");
        for kind in ["fires", "suppressed"] {
            let want = format!("d{k:02}_{kind}.rs");
            assert!(
                files.iter().any(|p| p.ends_with(&want)),
                "fixture corpus is missing {want}"
            );
        }
    }

    let mut failures = Vec::new();
    for file in &files {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(file).expect("fixture readable");
        let (vpath, want, want_suppressed) = parse_fixture(&name, &src);
        let (findings, suppressed) = check_source_counting(&vpath, &src);
        let got: Vec<Expected> = findings
            .iter()
            .map(|f| Expected {
                line: f.line,
                rule: f.rule.id().to_string(),
            })
            .collect();
        for miss in unmatched(&want, &got) {
            failures.push(format!(
                "{name}: expected {} at line {} — not reported",
                miss.rule, miss.line
            ));
        }
        for extra in unmatched(&got, &want) {
            let full = findings
                .iter()
                .find(|f| f.line == extra.line && f.rule.id() == extra.rule)
                .map(|f| f.to_string())
                .unwrap_or_default();
            failures.push(format!("{name}: unexpected finding: {full}"));
        }
        if suppressed != want_suppressed {
            failures.push(format!(
                "{name}: {suppressed} finding(s) suppressed, expectations say {want_suppressed}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "fixture corpus drift ({} problem(s)):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
