//! Fold parity: every analysis is one [`DayFold`](chatlens::core::DayFold),
//! and however it is run it renders the committed golden fragments
//! (`tests/golden/<profile>.fragments.txt`, pinned by `tests/golden.rs`).
//!
//! For every fault/corruption profile the golden suite covers (calm,
//! bursty, hostile):
//!
//! - **live fold** — the standard folds attached to the campaign session,
//!   at 1, 2 and 8 worker threads (both the campaign's thread knob and
//!   the fold driver's finish pool);
//! - **dataset fold** — the same folds run over the assembled dataset's
//!   day slices ([`batch_fragments`]) at the same pool sizes;
//! - **kill/resume** — a checkpointed folded run cut at a mid-campaign
//!   snapshot, its folds restored from the snapshot's ledger (no
//!   raw-history replay), and resumed to the end;
//!
//! all equal the golden fragments byte for byte. The folded runs'
//! campaign reports equal the golden reports too, so the fold plumbing
//! provably does not perturb the collection pipeline.
#![expect(clippy::disallowed_methods, reason = "reads goldens, clears scratch")]

use chatlens::analysis::{batch_fragments, StandardFolds};
use chatlens::checkpoint::load_from_file;
use chatlens::core::{Attachments, Campaign, CampaignState, CheckpointPolicy, FoldDriver};
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

fn golden(profile: &str, what: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{profile}.{what}"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {} ({e})", path.display()))
}

/// Fragments in the golden file's layout: `== <name>` then the text.
fn render(fragments: &[(&'static str, String)]) -> String {
    fragments
        .iter()
        .map(|(name, text)| format!("== {name}\n{text}"))
        .collect()
}

/// Assert `fragments` equal the profile's golden fragments, naming the
/// first diverging line.
fn assert_golden(profile: &str, context: &str, fragments: &[(&'static str, String)]) {
    let expected = golden(profile, "fragments.txt");
    let actual = render(fragments);
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            e,
            a,
            "{profile}/{context}: fragments diverged from golden at line {}",
            i + 1
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "{profile}/{context}: fragments diverged from golden in length"
    );
}

fn assert_dataset_unperturbed(profile: &str, context: &str, ds: &Dataset) {
    assert!(
        ds.campaign_report() == golden(profile, "report.txt"),
        "{profile}/{context}: the folded run perturbed the dataset"
    );
}

/// Live folds and dataset folds render the golden fragments at 1, 2 and
/// 8 threads for every profile.
#[test]
fn live_folds_match_dataset_folds_and_golden_across_profiles_and_threads() {
    for profile in PROFILES {
        for threads in [1usize, 2, 8] {
            let mut driver = FoldDriver::new(StandardFolds::new(), threads);
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
            let context = format!("threads={threads}");
            assert_dataset_unperturbed(profile, &context, &ds);
            assert_eq!(driver.days_folded(), ds.window.num_days() as u32);
            assert_golden(profile, &format!("live {context}"), &driver.finish());
            let folded = batch_fragments(&ds, &Pool::new(threads));
            assert_golden(profile, &format!("dataset {context}"), &folded);
        }
    }
}

/// Kill a checkpointed folded run at a mid-campaign snapshot, restore the
/// folds from the snapshot's ledger, resume, and land on the golden
/// fragments — no raw-history replay anywhere.
#[test]
fn live_folds_survive_kill_and_resume() {
    for profile in PROFILES {
        let dir = std::env::temp_dir().join(format!(
            "chatlens-fold-parity-{profile}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let policy = CheckpointPolicy::daily(dir.clone());

        // The "killed" first attempt: full run, snapshots daily.
        let mut driver = FoldDriver::new(StandardFolds::new(), 1);
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
        let mut resumed = FoldDriver::new(StandardFolds::new(), 1);
        let attach = Attachments {
            folds: Some(&mut resumed),
            ..Attachments::default()
        };
        let ds = Campaign::resume(&mut state.world(), &state, attach)
            .and_then(Campaign::finish)
            .expect("the snapshot's fold ledger restores")
            .into_dataset();
        assert_dataset_unperturbed(profile, "kill/resume", &ds);
        assert_golden(profile, "kill/resume", &resumed.finish());

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
    let mut driver = FoldDriver::new(StandardFolds::new(), config.threads);
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
