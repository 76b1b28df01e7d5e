//! The `repro` command line refuses bad flag values with a usage error
//! (exit 2 and one diagnostic line), never a panic and backtrace.

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
        // Every value-taking flag, given as the last argument.
        &["--seed"],
        &["--scale"],
        &["--threads"],
        &["--analysis"],
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
