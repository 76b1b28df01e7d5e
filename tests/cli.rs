//! The `repro` command line: bad flag values are usage errors (exit 2
//! and one diagnostic line), never a panic and backtrace; the full
//! artifact run is pinned byte-for-byte, stdout and CSV series alike,
//! at any thread count; and so are `checkpoint inspect` and
//! `dump-config`.
//!
//! The pinned outputs live in `tests/golden/repro_all.*`,
//! `tests/golden/inspect_*.json.txt` and
//! `tests/golden/dump_config.json.txt`; refresh them after an
//! intentional output change with
//! `UPDATE_GOLDEN=1 cargo test --test cli`.
#![expect(clippy::disallowed_methods, reason = "goldens and scratch directories")]

use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn bad_flag_values_are_usage_errors_not_panics() {
    let cases: &[&[&str]] = &[
        &["--seed", "abc", "run"],
        &["--scale", "-1", "run"],
        &["--scale", "0", "run"],
        &["--scale", "nan", "run"],
        &["--scale", "inf", "run"],
        &["--threads", "many", "run"],
        &["--checkpoint-every", "-2", "run"],
        &["--halt-after-day", "x", "run"],
        &["--fault-profile", "bogus", "run"],
        &["--mem-budget", "12x", "run"],
        &["--outage", "twitter:x:1", "run"],
        // Unknown options are refused, never taken for the artifact.
        &["--analysis", "incremental", "run"],
        // Every value-taking flag, given as the last argument.
        &["--seed"],
        &["--scale"],
        &["--threads"],
        &["--format"],
        &["--out"],
        &["--validate"],
        &["--csv"],
        &["--checkpoint-dir"],
        &["--checkpoint-every"],
        &["--resume"],
        &["--fault-profile"],
        &["--corruption"],
        &["--disk-fault"],
        &["--halt-after-day"],
        &["--mem-budget"],
        &["--spill-dir"],
        &["--report-out"],
        &["--outage"],
        &["--ban"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn update_mode() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Compare `actual` with the committed fixture line by line (a failure
/// names the first diverging line), or record it under `UPDATE_GOLDEN`.
fn check_fixture(name: &str, context: &str, actual: &str) {
    let path = fixture_path(name);
    if update_mode() {
        std::fs::write(&path, actual).expect("record fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "{context}: {name} diverged at line {}", i + 1);
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "{context}: {name} diverged in length"
    );
}

/// Every CSV file in `dir`, sorted by name, each headed by `== <name>`.
fn csv_bundle(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("csv dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| {
            let body = std::fs::read_to_string(dir.join(name)).expect("csv file");
            format!("== {name}\n{body}")
        })
        .collect()
}

/// A fresh scratch path under the system temp dir (not created).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatlens-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `repro --scale 0.002` with `args`; returns stdout and stderr,
/// asserting a zero exit.
fn repro(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "0.002"])
        .args(args)
        .output()
        .expect("run repro");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), stderr)
}

/// `repro --scale 0.002 all`: every table, figure and comparison on
/// stdout, and every `--csv` series file, equal the committed fixtures
/// at 1 and 2 threads — unbudgeted, under `--mem-budget min`, and
/// budgeted, halted at day 20 and resumed from the snapshot chain.
#[test]
fn repro_all_stdout_and_csv_are_pinned() {
    let check_all = |context: &str, args: &[&str]| {
        let dir = scratch("csv");
        let csv = dir.to_str().expect("utf-8 temp path");
        let (stdout, _) = repro(&[args, &["--csv", csv, "all"]].concat());
        check_fixture("repro_all.stdout.txt", context, &stdout);
        check_fixture("repro_all.csv.txt", context, &csv_bundle(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    };
    let spill = scratch("spill");
    let spill = spill.to_str().expect("utf-8 temp path");
    for threads in ["1", "2"] {
        check_all(&format!("threads {threads}"), &["--threads", threads]);
        let budget = ["--mem-budget", "min", "--spill-dir", spill];
        check_all(
            &format!("budgeted, threads {threads}"),
            &[&["--threads", threads][..], &budget].concat(),
        );
        let _ = std::fs::remove_dir_all(spill);
    }
    let chain = scratch("chain");
    let chain = chain.to_str().expect("utf-8 temp path");
    let budget = ["--mem-budget", "min", "--checkpoint-dir", chain];
    repro(&[&budget[..], &["--halt-after-day", "20", "run"]].concat());
    check_all(
        "budgeted, halted at day 20 and resumed",
        &[&budget[..], &["--resume", chain]].concat(),
    );
    let _ = std::fs::remove_dir_all(chain);
}

/// `repro run` prints the same summary, ledger lines and `--timings`
/// blocks with or without a memory budget; the budget adds one line,
/// last.
#[test]
fn budgeted_run_prints_every_unbudgeted_line_and_the_campaign_timings() {
    let run = [
        "--fault-profile",
        "bursty",
        "--corruption",
        "hostile",
        "--timings",
        "run",
    ];
    let (plain, plain_err) = repro(&run);
    let spill = scratch("run-spill");
    let spill = spill.to_str().expect("utf-8 temp path");
    let (budgeted, budgeted_err) =
        repro(&[&["--mem-budget", "min", "--spill-dir", spill][..], &run].concat());
    let _ = std::fs::remove_dir_all(spill);
    assert!(plain.contains("\ngap ledger: ") && plain.contains("\nquarantine ledger: "));
    let lines: Vec<&str> = budgeted.lines().collect();
    for line in plain.lines() {
        assert!(lines.contains(&line), "the budgeted run lacks {line:?}");
    }
    assert_eq!(lines.len(), plain.lines().count() + 1, "{budgeted}");
    assert!(lines.last().is_some_and(|l| l.starts_with("budget: ")));
    for stderr in [plain_err, budgeted_err] {
        assert!(stderr.contains("# campaign stage timings"), "{stderr}");
        assert!(stderr.contains("\n#   stage.build.micros = "), "{stderr}");
    }
}

/// `repro checkpoint inspect` of the final-day snapshot and of a
/// `--mem-budget min` snapshot halted at day 20 (nonzero spill fields,
/// tweet counts that include the spilled prefix), and `repro
/// dump-config`, equal the committed fixtures.
#[test]
fn inspect_and_dump_config_are_pinned() {
    let chain = scratch("inspect");
    let dir = chain.to_str().expect("utf-8 temp path");
    let inspect = |snapshot: &str| {
        let path = chain.join(snapshot);
        let path = path.to_str().expect("utf-8 temp path");
        repro(&["checkpoint", "inspect", path]).0
    };
    let pinned = ["--threads", "1", "--checkpoint-dir", dir];
    repro(&[&pinned[..], &["run"]].concat());
    let final_day = inspect("day038.ckpt");
    check_fixture("inspect_final.json.txt", "final day", &final_day);
    let _ = std::fs::remove_dir_all(&chain);
    let halted = ["--mem-budget", "min", "--halt-after-day", "20", "run"];
    repro(&[&pinned[..], &halted].concat());
    let day20 = inspect("day020.ckpt");
    check_fixture("inspect_budgeted_day020.json.txt", "budgeted", &day20);
    let _ = std::fs::remove_dir_all(&chain);
    let (config, _) = repro(&["dump-config"]);
    check_fixture("dump_config.json.txt", "dump-config", &config);
}
