//! Golden-output differential suite.
//!
//! The hot-path rewrite (interned ids, columnar timelines, zero-copy wire
//! parsing) is allowed to change *how* the campaign computes, never *what*
//! it computes. This suite locks the contract with committed fixtures
//! under `tests/golden/`:
//!
//! - `<profile>.report.txt` — the full canonical campaign report
//!   ([`Dataset::campaign_report`]) for the calm, bursty and hostile
//!   profiles. These bytes were recorded from the **pre-rewrite** build
//!   and must never be regenerated casually: they are the differential
//!   baseline proving the optimised pipeline produces byte-identical
//!   output.
//! - `<profile>.fragments.txt` — every analysis fragment
//!   ([`batch_fragments`]) of the same run, in full, so a drift names
//!   the analysis and the line.
//! - `<profile>.ckpt.sha256` — SHA-256 of the final-day checkpoint,
//!   canonicalized: the snapshot is loaded, wall-clock stage timings are
//!   stripped (they vary run-to-run by construction), and the state is
//!   re-encoded with the same codec before hashing. Checkpoint bytes are
//!   tied to the snapshot format version, so these fixtures are
//!   re-recorded at every format bump (they lock cross-thread and resume
//!   stability, and catch unintended drift in checkpoint encoding).
//!
//! Every profile is asserted at 1, 2 and 8 worker threads.
//!
//! To refresh fixtures after an *intentional* output change (a new
//! collected datum, a checkpoint format bump), run:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --test golden
//! ```
//!
//! and justify the new bytes in the PR description.
#![expect(clippy::disallowed_methods, reason = "goldens and scratch directories")]

use chatlens::analysis::batch_fragments;
use chatlens::checkpoint::{encode_snapshot, load_from_file};
use chatlens::core::{Attachments, Campaign, CampaignState, CheckpointPolicy};
use chatlens::simnet::fault::{CorruptionProfile, FaultProfile};
use chatlens::simnet::hash::sha256_hex;
use chatlens::simnet::par::Pool;
use chatlens::{run_study_with, CampaignConfig, Ecosystem, ScenarioConfig};
use std::path::PathBuf;

/// Same scale the Byzantine-hardening suite uses: large enough that all
/// three platforms discover, join and quarantine, small enough to run
/// three profiles × three thread counts in CI.
const GOLDEN_SCALE: f64 = 0.002;

const PROFILES: [&str; 3] = ["calm", "bursty", "hostile"];

fn campaign_for(profile: &str) -> CampaignConfig {
    match profile {
        "calm" => CampaignConfig::default(),
        "bursty" => CampaignConfig {
            profile: FaultProfile::Bursty,
            ..CampaignConfig::default()
        },
        "hostile" => CampaignConfig {
            corruption: CorruptionProfile::Hostile,
            ..CampaignConfig::default()
        },
        other => panic!("unknown golden profile {other:?}"),
    }
}

fn fixture_path(profile: &str, what: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{profile}.{what}"))
}

fn update_mode() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Compare `actual` against the committed fixture, or record it when
/// `UPDATE_GOLDEN` is set.
fn check_fixture(profile: &str, what: &str, actual: &str) {
    let path = fixture_path(profile, what);
    if update_mode() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("record fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); record with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if what.ends_with(".txt") {
        // Byte-level diff with a readable first-divergence message.
        if expected != actual {
            for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
                assert_eq!(
                    e,
                    a,
                    "{profile} {what} diverged from golden at line {}",
                    i + 1
                );
            }
            panic!(
                "{profile} {what} diverged from golden in length: {} vs {} bytes",
                expected.len(),
                actual.len()
            );
        }
    } else {
        assert_eq!(
            expected.trim_end(),
            actual.trim_end(),
            "{profile} {what} diverged from golden"
        );
    }
}

/// Run one profile checkpointed at exactly 1 thread (pinned, not
/// inherited from `CHATLENS_THREADS`: the snapshot persists the
/// `threads` knob, so checkpoint *bytes* — unlike the dataset — are
/// tied to the thread count the run used), returning the campaign
/// report, every analysis fragment (`== <name>` headed, in registration
/// order) and the hex SHA-256 of the final-day checkpoint bytes.
fn run_profile_checkpointed(profile: &str) -> (String, String, String) {
    let dir =
        std::env::temp_dir().join(format!("chatlens-golden-{profile}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let policy = CheckpointPolicy::daily(dir.clone());
    let scenario = ScenarioConfig::at_scale(GOLDEN_SCALE);
    let num_days = 38u32;
    let campaign = CampaignConfig {
        threads: 1,
        ..campaign_for(profile)
    };
    let attach = Attachments {
        checkpoint: Some(&policy),
        ..Attachments::default()
    };
    let ds = Campaign::new(&mut Ecosystem::build(scenario), campaign, attach)
        .and_then(Campaign::finish)
        .expect("checkpointed run completes")
        .into_dataset();
    let report = ds.campaign_report();
    let fragments = batch_fragments(&ds, &Pool::new(1))
        .into_iter()
        .map(|(name, text)| format!("== {name}\n{text}"))
        .collect();
    let last = (0..num_days)
        .rev()
        .map(|d| policy.snapshot_path(d))
        .find(|p| p.exists())
        .expect("at least one snapshot written");
    // Stage timing counters inside the snapshot are wall-clock (they vary
    // run to run by construction), so the fixture hashes the snapshot
    // re-encoded after `strip_wall_clock` — everything else in the file
    // is deterministic and any encoding or state drift changes the hash.
    let mut state: CampaignState = load_from_file(&last).expect("final snapshot loads");
    state.metrics.strip_wall_clock();
    let ckpt_sha = format!(
        "{} {}\n",
        sha256_hex(&encode_snapshot(&state)),
        last.file_name().expect("snapshot name").to_string_lossy()
    );
    let _ = std::fs::remove_dir_all(&dir);
    (report, fragments, ckpt_sha)
}

/// The tentpole guarantee: for every profile, the campaign report matches
/// the pre-rewrite golden bytes, every analysis fragment matches its
/// fixture, the final-day checkpoint hash matches its fixture, and
/// re-running at 2 and 8 threads reproduces the same
/// report byte-for-byte.
#[test]
fn golden_reports_and_checkpoints_across_profiles_and_threads() {
    for profile in PROFILES {
        let (report, fragments, ckpt_sha) = run_profile_checkpointed(profile);
        check_fixture(profile, "report.txt", &report);
        check_fixture(profile, "fragments.txt", &fragments);
        check_fixture(profile, "ckpt.sha256", &ckpt_sha);
        for threads in [2usize, 8] {
            let ds = run_study_with(
                ScenarioConfig::at_scale(GOLDEN_SCALE),
                CampaignConfig {
                    threads,
                    ..campaign_for(profile)
                },
            );
            let rerun = ds.campaign_report();
            assert_eq!(
                rerun, report,
                "{profile} report at {threads} thread(s) diverged from 1-thread run"
            );
        }
    }
}

/// The report itself is deterministic: rendering twice from the same
/// dataset yields identical bytes, and the report embeds no wall-clock
/// values (stripping timings changes nothing).
#[test]
fn campaign_report_is_deterministic_and_wall_clock_free() {
    let mut ds = run_study_with(
        ScenarioConfig::at_scale(GOLDEN_SCALE),
        CampaignConfig::default(),
    );
    let a = ds.campaign_report();
    let b = ds.campaign_report();
    assert_eq!(a, b);
    ds.metrics.strip_wall_clock();
    assert_eq!(ds.campaign_report(), a, "report depends on wall-clock");
}
