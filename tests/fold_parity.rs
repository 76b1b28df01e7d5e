//! Incremental == batch parity suite for the analysis folds (PR 8's
//! correctness lock, extending the PR 6 golden-output contract).
//!
//! For every fault/corruption profile the golden suite covers (calm,
//! bursty, hostile), this suite asserts that each analysis fold's
//! rendered report fragment is **byte-identical** to the batch
//! computation over the final dataset:
//!
//! - at 1, 2 and 8 worker threads (both the campaign's thread knob and
//!   the fold driver's finish pool), and
//! - across a kill/resume: an incrementally-checkpointed run is cut at a
//!   mid-campaign snapshot, the folds are restored from the snapshot's
//!   ledger (no raw-history replay), and the resumed run must land on
//!   the same bytes.
//!
//! The datasets themselves are also asserted equal, so the fold plumbing
//! provably does not perturb the collection pipeline.

use chatlens::analysis::{batch_fragments, standard_folds};
use chatlens::checkpoint::load_from_file;
use chatlens::core::{
    run_study_with, Attachments, Campaign, CampaignState, CheckpointPolicy, FoldDriver,
};
use chatlens::simnet::fault::{CorruptionProfile, FaultProfile};
use chatlens::simnet::par::Pool;
use chatlens::{CampaignConfig, Dataset, Ecosystem, ScenarioConfig};

/// Same scale as the golden suite: all three platforms discover, join
/// and revoke, small enough for profiles × thread counts in CI.
const SCALE: f64 = 0.002;

const PROFILES: [&str; 3] = ["calm", "bursty", "hostile"];

fn campaign_for(profile: &str, threads: usize) -> CampaignConfig {
    let base = match profile {
        "calm" => CampaignConfig::default(),
        "bursty" => CampaignConfig {
            profile: FaultProfile::Bursty,
            ..CampaignConfig::default()
        },
        "hostile" => CampaignConfig {
            corruption: CorruptionProfile::Hostile,
            ..CampaignConfig::default()
        },
        other => panic!("unknown profile {other:?}"),
    };
    CampaignConfig { threads, ..base }
}

/// The batch reference: final dataset plus every batch fragment.
fn batch_reference(profile: &str) -> (Dataset, Vec<(&'static str, String)>) {
    let ds = run_study_with(ScenarioConfig::at_scale(SCALE), campaign_for(profile, 1));
    let pool = Pool::new(1);
    let fragments = batch_fragments(&ds, &pool);
    (ds, fragments)
}

fn assert_fragments_match(
    profile: &str,
    context: &str,
    batch: &[(&'static str, String)],
    outcome: &chatlens::core::FoldOutcome,
) {
    assert_eq!(
        batch.len(),
        outcome.fragments.len(),
        "{profile}/{context}: fold registry drifted from batch registry"
    );
    for (name, expected) in batch {
        let actual = outcome
            .fragment(name)
            .unwrap_or_else(|| panic!("{profile}/{context}: fold {name} missing"));
        if expected != actual {
            for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
                assert_eq!(
                    e,
                    a,
                    "{profile}/{context}: fold {name} diverged from batch at line {}",
                    i + 1
                );
            }
            panic!(
                "{profile}/{context}: fold {name} diverged from batch in length: {} vs {} bytes",
                expected.len(),
                actual.len()
            );
        }
    }
}

/// Incremental folds reproduce the batch bytes at 1, 2 and 8 threads for
/// every profile, and the folded run's dataset equals the batch run's.
#[test]
fn incremental_matches_batch_across_profiles_and_threads() {
    for profile in PROFILES {
        let (batch_ds, batch) = batch_reference(profile);
        for threads in [1usize, 2, 8] {
            let mut driver = FoldDriver::new(standard_folds(), threads);
            let attach = Attachments {
                folds: Some(&mut driver),
                ..Attachments::default()
            };
            let ds = Campaign::new(
                &mut Ecosystem::build(ScenarioConfig::at_scale(SCALE)),
                campaign_for(profile, threads),
                attach,
            )
            .and_then(Campaign::finish)
            .expect("folded run completes")
            .into_dataset();
            assert_eq!(
                ds.campaign_report(),
                batch_ds.campaign_report(),
                "{profile}@{threads}: folded run perturbed the dataset"
            );
            let outcome = driver.finish();
            assert_eq!(outcome.days_folded, ds.window.num_days() as u32);
            assert_fragments_match(profile, &format!("threads={threads}"), &batch, &outcome);
        }
    }
}

/// Kill an incrementally-checkpointed run at a mid-campaign snapshot,
/// restore the folds from the snapshot's ledger, resume, and land on the
/// batch bytes — no raw-history replay anywhere.
#[test]
fn incremental_survives_kill_and_resume() {
    for profile in PROFILES {
        let (batch_ds, batch) = batch_reference(profile);
        let dir = std::env::temp_dir().join(format!(
            "chatlens-fold-parity-{profile}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let policy = CheckpointPolicy::daily(dir.clone());

        // The "killed" first attempt: full run, snapshots daily.
        let mut driver = FoldDriver::new(standard_folds(), 1);
        let attach = Attachments {
            checkpoint: Some(&policy),
            folds: Some(&mut driver),
            ..Attachments::default()
        };
        Campaign::new(
            &mut Ecosystem::build(ScenarioConfig::at_scale(SCALE)),
            campaign_for(profile, 1),
            attach,
        )
        .and_then(Campaign::finish)
        .expect("checkpointed folded run completes");

        // Resume from a mid-campaign snapshot with a *fresh* driver:
        // everything it knows about days 0..=17 must come from the
        // snapshot's fold ledger.
        let mid = policy.snapshot_path(17);
        assert!(mid.exists(), "{profile}: day-17 snapshot missing");
        let state: CampaignState = load_from_file(&mid).expect("mid-campaign snapshot loads");
        let mut resumed = FoldDriver::new(standard_folds(), 1);
        let attach = Attachments {
            folds: Some(&mut resumed),
            ..Attachments::default()
        };
        let ds = Campaign::resume(&mut state.world(), &state, attach)
            .and_then(Campaign::finish)
            .expect("the snapshot's fold ledger restores")
            .into_dataset();
        assert_eq!(
            ds.campaign_report(),
            batch_ds.campaign_report(),
            "{profile}: resumed folded run perturbed the dataset"
        );
        let outcome = resumed.finish();
        assert_fragments_match(profile, "kill/resume", &batch, &outcome);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Peak encoded fold-state bytes over a folded campaign at scale 0.02,
/// pinned exactly: a byte count that depends only on `(seed, scale)`,
/// so any drift is a real change to a fold's state, never noise, and
/// the value holds at every thread count.
#[test]
fn fold_state_peak_bytes_is_pinned_at_scale_0_02() {
    let config = CampaignConfig::default();
    let mut driver = FoldDriver::new(standard_folds(), config.threads);
    let attach = Attachments {
        folds: Some(&mut driver),
        ..Attachments::default()
    };
    Campaign::new(
        &mut Ecosystem::build(ScenarioConfig::at_scale(0.02)),
        config,
        attach,
    )
    .and_then(Campaign::finish)
    .expect("an unbudgeted folded campaign completes");
    assert_eq!(driver.peak_state_bytes(), 764_546);
}
