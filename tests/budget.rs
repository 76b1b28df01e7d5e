//! The memory-budget tentpole: a campaign run under a hard byte ceiling
//! must degrade by spilling cold day-partitions to disk — never by
//! aborting — and still produce a campaign report byte-identical to the
//! unbudgeted run's.
//!
//! The composition matrix at the bottom is the acceptance gate: budget
//! enforcement × torn-write disk faults (on both the snapshot chain and
//! the spill files) × a kill at a day boundary with chain-recovery
//! resume, at 1, 2 and 8 worker threads — every combination must
//! converge on the same report bytes, and every detected torn spill
//! write must be ledgered.

use std::path::PathBuf;

use chatlens::analysis::{batch_fragments, StandardFolds};
use chatlens::core::budget::{load_spill_ledger, BudgetLimit, BudgetPolicy};
use chatlens::core::{
    recover_latest_state, resume_study_budgeted, run_study_budgeted, run_study_days_budgeted,
    Attachments, BudgetedRun, Campaign, CampaignConfig, CheckpointPolicy, FoldDriver,
};
use chatlens::simnet::fault::DiskFaultProfile;
use chatlens::simnet::par::Pool;
use chatlens::{run_study_with, Ecosystem, ScenarioConfig};

/// Same scale as the crash-storm and checkpoint suites: every pipeline
/// stage fires, runs stay CI-sized.
fn scenario() -> ScenarioConfig {
    ScenarioConfig::at_scale(0.002)
}

/// Per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatlens-budget-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The unbudgeted reference report.
fn reference_report() -> String {
    run_study_with(scenario(), CampaignConfig::default()).campaign_report()
}

#[test]
fn min_mode_spills_everything_cold_and_reproduces_the_report() {
    let reference = reference_report();
    let dir = scratch("min");
    let budget = BudgetPolicy::new(BudgetLimit::Min, &dir);
    let run = run_study_budgeted(scenario(), CampaignConfig::default(), &budget)
        .expect("Min mode never refuses");
    assert_eq!(
        run.report, reference,
        "budgeted report must be byte-identical to the unbudgeted run's"
    );
    assert!(
        run.stats.partitions > 0 && run.stats.evictions > 0,
        "Min mode must actually evict cold partitions: {:?}",
        run.stats
    );
    assert!(
        run.stats.spilled_bytes > 0 && run.stats.faults >= run.stats.partitions,
        "streaming the report must fault every partition back: {:?}",
        run.stats
    );
    // Every spilled partition is on disk, named by day.
    for part in 0..run.stats.partitions {
        assert!(
            dir.join(format!("day{part:03}.part")).is_file(),
            "spill partition file for day {part} missing"
        );
    }
}

#[test]
fn a_byte_ceiling_below_the_unbounded_peak_holds_and_reproduces_the_report() {
    let reference = reference_report();

    // Probe the unbounded peak with a ceiling nothing can exceed.
    let probe_dir = scratch("probe");
    let probe = run_study_budgeted(
        scenario(),
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(u64::MAX), &probe_dir),
    )
    .expect("an unreachable ceiling never refuses");
    assert_eq!(probe.stats.evictions, 0, "nothing to evict under u64::MAX");
    let peak = probe.stats.resident_peak;
    let floor = probe.stats.floor;
    assert!(peak > floor, "the campaign must accumulate above the floor");

    // A ceiling strictly below the unbounded peak forces spills.
    let limit = floor + (peak - floor) / 2;
    let dir = scratch("bytes");
    let run = run_study_budgeted(
        scenario(),
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(limit), &dir),
    )
    .expect("spilling must satisfy this ceiling — refusal is a bug");
    assert_eq!(
        run.report, reference,
        "report must not depend on the budget"
    );
    assert!(
        run.stats.resident_peak <= limit,
        "budget.resident_peak {} exceeded the ceiling {}",
        run.stats.resident_peak,
        limit
    );
    assert!(run.stats.evictions > 0, "the ceiling must force evictions");
}

#[test]
fn a_ceiling_below_the_floor_is_a_typed_refusal() {
    let dir = scratch("floor");
    let err = run_study_budgeted(
        scenario(),
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(1), &dir),
    )
    .expect_err("a 1-byte ceiling is below any floor");
    let msg = err.to_string();
    assert!(
        msg.contains("budget"),
        "refusal must be the typed budget error, got: {msg}"
    );
}

/// The composition matrix: `--mem-budget` × `--disk-fault torn` (both
/// the snapshot chain and the spill I/O ride the same fault-injected
/// filesystem) × a kill at the day-20 boundary with chain-recovery
/// resume — at 1, 2 and 8 worker threads. Every cell must converge on
/// the unbudgeted report's exact bytes, and every detected torn spill
/// write must appear in the spill ledger.
#[test]
fn budget_torn_kill_resume_matrix_converges_on_identical_reports() {
    let reference = reference_report();

    for threads in [1usize, 2, 8] {
        let campaign = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };

        // Uninterrupted budgeted run under torn spill I/O.
        let dir = scratch(&format!("torn-full-t{threads}"));
        let budget = BudgetPolicy {
            limit: BudgetLimit::Min,
            dir: dir.clone(),
            disk_fault: DiskFaultProfile::Torn,
        };
        let full = run_study_budgeted(scenario(), campaign, &budget)
            .expect("torn spill I/O is healed by verify-and-retry, never fatal");
        assert_eq!(
            full.report, reference,
            "torn spill I/O must not perturb the report (threads={threads})"
        );
        if full.stats.torn_detected > 0 {
            let ledger = load_spill_ledger(&dir);
            assert!(
                ledger.len() as u64 >= full.stats.torn_detected,
                "every detected torn spill write must be ledgered \
                 ({} detected, {} ledger entries)",
                full.stats.torn_detected,
                ledger.len()
            );
        }

        // Kill at the day-20 boundary, then chain-recover and resume
        // under the same budget — snapshots and spills both torn.
        let ckpt_dir = scratch(&format!("torn-kill-ckpt-t{threads}"));
        let spill_dir = scratch(&format!("torn-kill-spill-t{threads}"));
        let policy = CheckpointPolicy {
            dir: ckpt_dir.clone(),
            every_days: 1,
            on_drop: false,
            disk_fault: DiskFaultProfile::Torn,
        };
        let budget = BudgetPolicy {
            limit: BudgetLimit::Min,
            dir: spill_dir.clone(),
            disk_fault: DiskFaultProfile::Torn,
        };
        let halted = run_study_days_budgeted(scenario(), campaign, &policy, &budget, 20)
            .expect("halting a budgeted run at a boundary is clean");
        assert_eq!(halted, 20);
        let recovered = recover_latest_state(&policy, campaign.seed, Some(20))
            .expect("chain walk never hard-fails");
        let state = recovered
            .state
            .expect("some valid snapshot ancestor survives the torn profile");
        assert!(state.day <= 20);
        assert!(
            state.budget.is_some(),
            "a budgeted snapshot must carry the accountant's state"
        );
        let resumed = resume_study_budgeted(&state, &budget)
            .expect("resume under the same ceiling completes");
        assert_eq!(
            resumed.report, reference,
            "kill/resume under budget + torn faults must converge on the \
             unbudgeted report (threads={threads}, resumed from day {})",
            state.day
        );
    }
}

/// A budgeted, checkpointed, calm-disk campaign end to end: the ceiling
/// holds, the report matches, and the snapshot chain stays resumable.
#[test]
fn budgeted_checkpointed_run_reports_identically() {
    let reference = reference_report();
    let ckpt_dir = scratch("ckpt");
    let spill_dir = scratch("ckpt-spill");
    let policy = CheckpointPolicy {
        dir: ckpt_dir,
        every_days: 1,
        on_drop: false,
        disk_fault: DiskFaultProfile::Calm,
    };
    let budget = BudgetPolicy::new(BudgetLimit::Min, &spill_dir);
    let attach = Attachments {
        checkpoint: Some(&policy),
        budget: Some(&budget),
        ..Attachments::default()
    };
    let run = Campaign::new(
        &mut Ecosystem::build(scenario()),
        CampaignConfig::default(),
        attach,
    )
    .and_then(Campaign::finish)
    .expect("calm budgeted checkpointed run completes")
    .into_budgeted();
    assert_eq!(run.report, reference);
    assert!(run.stats.partitions > 0);
}

/// The budget composes with the incremental folds: under `Min`, a
/// folded budgeted run reports the unbudgeted bytes and every fold
/// fragment equals the same fold run over the unbudgeted dataset — at 1,
/// 2 and 8 threads, and across a kill at the day-17 boundary resumed
/// through chain recovery with a fresh driver under the same budget.
#[test]
fn min_budget_composes_with_incremental_folds() {
    let ds = run_study_with(scenario(), CampaignConfig::default());
    let reference = ds.campaign_report();
    let unbudgeted = batch_fragments(&ds, &Pool::new(1));
    let check = |context: &str, run: &BudgetedRun, driver: &mut FoldDriver| {
        assert!(
            run.report == reference,
            "{context}: the folded budgeted report must equal the unbudgeted one"
        );
        assert!(
            driver.finish() == unbudgeted,
            "{context}: the folds diverged from the unbudgeted dataset's"
        );
    };

    for threads in [1usize, 2, 8] {
        let campaign = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };
        let budget = BudgetPolicy::new(BudgetLimit::Min, scratch(&format!("folds-t{threads}")));
        let mut driver = FoldDriver::new(StandardFolds::new(), threads);
        let attach = Attachments {
            folds: Some(&mut driver),
            budget: Some(&budget),
            ..Attachments::default()
        };
        let run = Campaign::new(&mut Ecosystem::build(scenario()), campaign, attach)
            .and_then(Campaign::finish)
            .expect("Min mode never refuses")
            .into_budgeted();
        assert!(
            run.stats.partitions > 0,
            "Min mode must spill under folds too: {:?}",
            run.stats
        );
        check(&format!("threads={threads}"), &run, &mut driver);
    }

    let campaign = CampaignConfig::default();
    let policy = CheckpointPolicy::daily(scratch("folds-kill-ckpt"));
    let budget = BudgetPolicy::new(BudgetLimit::Min, scratch("folds-kill-spill"));
    let mut driver = FoldDriver::new(StandardFolds::new(), 1);
    let attach = Attachments {
        checkpoint: Some(&policy),
        folds: Some(&mut driver),
        budget: Some(&budget),
    };
    let halted = Campaign::new(&mut Ecosystem::build(scenario()), campaign, attach)
        .and_then(|mut session| session.run_until(17))
        .expect("halting a budgeted folded run at a boundary is clean");
    assert_eq!(halted, 17);
    let state = recover_latest_state(&policy, campaign.seed, None)
        .expect("chain walk never hard-fails")
        .state
        .expect("the calm chain survives");
    assert_eq!(state.day, 17);
    assert!(state.budget.is_some() && state.folds.is_some());
    let mut resumed = FoldDriver::new(StandardFolds::new(), 1);
    let attach = Attachments {
        folds: Some(&mut resumed),
        budget: Some(&budget),
        ..Attachments::default()
    };
    let run = Campaign::resume(&mut state.world(), &state, attach)
        .and_then(Campaign::finish)
        .expect("resume under the same budget with a fresh driver completes")
        .into_budgeted();
    check("kill/resume", &run, &mut resumed);
}

/// The accountant's counters at `scale`: the unbounded probe's floor
/// and resident peak, then the spill partitions, spilled bytes and
/// faults under a ceiling of the floor plus half the unbounded headroom
/// (a tighter ceiling runs into the warm residency window, which is not
/// evictable, and is refused instead).
fn accounting_counters(scale: f64, tag: &str) -> [u64; 5] {
    let probe_dir = scratch(&format!("{tag}-probe"));
    let probe = run_study_budgeted(
        ScenarioConfig::at_scale(scale),
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(u64::MAX), &probe_dir),
    )
    .expect("an unreachable ceiling never refuses");
    let (floor, peak) = (probe.stats.floor, probe.stats.resident_peak);
    let tight_dir = scratch(&format!("{tag}-tight"));
    let run = run_study_budgeted(
        ScenarioConfig::at_scale(scale),
        CampaignConfig::default(),
        &BudgetPolicy::new(BudgetLimit::Bytes(floor + (peak - floor) / 2), &tight_dir),
    )
    .expect("a ceiling above the floor spills, never refuses");
    let _ = std::fs::remove_dir_all(&probe_dir);
    let _ = std::fs::remove_dir_all(&tight_dir);
    let s = run.stats;
    [floor, peak, s.partitions, s.spilled_bytes, s.faults]
}

// The accounting is pinned exactly at the paper stand-in scale (0.02)
// and its 10x stand-in (0.2). Every value is a byte or partition count
// that depends only on `(seed, scale)`, so the pins hold at every
// thread count and any drift is a real accounting change.

#[test]
fn accounting_counters_are_pinned_at_scale_0_02() {
    assert_eq!(
        accounting_counters(0.02, "pin-paper"),
        [7_238_625, 15_003_114, 18, 3_933_595, 36]
    );
}

#[test]
fn accounting_counters_are_pinned_at_scale_0_2() {
    assert_eq!(
        accounting_counters(0.2, "pin-x10"),
        [73_808_410, 152_857_930, 22, 40_188_620, 44]
    );
}
