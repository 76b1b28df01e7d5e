//! The campaign orchestrator: wires discovery, monitoring, and joining to
//! one discrete-event timeline and runs the full 38-day study.
//!
//! Daily rhythm (§3):
//! * every hour at :00 — Search API round (six hosts, paginated);
//! * every hour at :30 — Streaming API drain for the elapsed hour;
//! * daily at 22:40 — 1% sample drain into the control dataset;
//! * daily at 23:10 — monitor round over every known, unrevoked group
//!   (placed late so groups discovered earlier the same day get their
//!   first observation on their discovery day, as in §3.2);
//! * once, on `join_day` at 12:00 — join the sampled groups;
//! * once, at the end of the final day — collect member lists, profiles
//!   and message histories from every joined group.
//!
//! # The campaign session
//!
//! A [`Campaign`] owns the live campaign over a borrowed world and
//! advances it one study day at a time. Every run mode is the same day
//! loop ([`Campaign::step_day`]) with optional [`Attachments`]:
//!
//! * a [`CheckpointPolicy`] — a day boundary is a *quiescent point* (no
//!   event is ever scheduled in the final second of a day), so the whole
//!   mutable state of the campaign is capturable there as a
//!   [`CampaignState`]; the session saves one per policy interval, and
//!   [`Campaign::resume`] rebuilds the world from the scenario, replays
//!   the delta, and continues to a dataset byte-identical to an
//!   uninterrupted run;
//! * a [`FoldDriver`] — after every completed day the driver hands each
//!   registered [`DayFold`](crate::fold::DayFold) a borrowed slice of the
//!   day's appends, so analyses maintain compact per-day state instead of
//!   replaying history at campaign end; the folded state rides inside
//!   every snapshot (`CampaignState::folds`), and `tests/fold_parity.rs`
//!   proves the live fragments byte-identical to the same folds run over
//!   the assembled dataset;
//! * a [`BudgetPolicy`] — the memory accountant meters the resident
//!   stores (and the fold state) at every boundary and spills cold day
//!   partitions; the session then finishes into a [`BudgetedRun`] that
//!   reads them back, one partition at a time, for every pass over the
//!   tweet log.
//!
//! The `run_study*`/`resume_study*` functions are one-expression
//! wrappers over the session for the common modes.

use crate::budget::{BudgetError, BudgetPolicy, BudgetStats, MemoryBudget};
use crate::dataset::{log_pass, CampaignSummary, Dataset};
use crate::discovery::{CollectedTweet, Discovery};
use crate::fold::{DayMark, DayParts, FoldDriver};
use crate::joiner::Joiner;
use crate::monitor::Monitor;
use crate::net::Net;
use crate::pii::PiiStore;
use crate::state::{CampaignState, EngineState, StateView};
use chatlens_checkpoint::{
    chain, encode_snapshot_with, CheckpointError, FaultVfs, RealVfs, Recovered, Vfs,
};
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::fault::{
    CorruptionProfile, DiskFaultProfile, FaultInjector, FaultProfile, FaultSchedule, OutageSpec,
};
use chatlens_simnet::metrics::{keys, Metrics};
use chatlens_simnet::rng::Rng;
use chatlens_simnet::time::{SimDuration, SimTime, StudyWindow};
use chatlens_simnet::Engine;
use chatlens_workload::{Ecosystem, ScenarioConfig};
use std::fmt;
use std::path::PathBuf;

/// Knobs of the collection campaign itself (as opposed to the world it
/// observes). Defaults follow the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Zero-based study day on which groups are joined.
    pub join_day: u32,
    /// Hours between Search API rounds (1 = the paper's hourly cadence).
    pub search_interval_hours: u32,
    /// Days between monitor rounds (1 = daily, §3.2).
    pub monitor_interval_days: u32,
    /// Use the Search API feed (ablation: the paper merges both feeds
    /// because each alone is incomplete).
    pub use_search: bool,
    /// Use the Streaming API feed.
    pub use_stream: bool,
    /// How the join sample is drawn (§3.3 uses uniform sampling).
    pub join_strategy: crate::joiner::JoinStrategy,
    /// Transport fault model for every client.
    pub faults: FaultInjector,
    /// Correlated-failure profile layered over `faults`: `Calm` is the
    /// plain i.i.d. model (bit-identical to the pre-profile behavior),
    /// `Bursty` adds a Gilbert–Elliott bad-state chain, `Outage` also
    /// schedules service blackouts (explicit via `outages`, or the stock
    /// storm when none are given).
    pub profile: FaultProfile,
    /// Explicit per-service outage windows, in [`SERVICE_NAMES`] order
    /// (Twitter, WhatsApp, Telegram, Discord). `None` = no scheduled
    /// outage for that service.
    ///
    /// [`SERVICE_NAMES`]: crate::net::SERVICE_NAMES
    pub outages: [Option<OutageSpec>; 4],
    /// Payload-corruption regime (`repro run --corruption`), orthogonal
    /// to `profile`: faults shape whether responses arrive, corruption
    /// shapes what arrives inside the successful ones. `Calm` draws
    /// nothing from any RNG, so it is bit-identical to older builds.
    pub corruption: CorruptionProfile,
    /// Seed for campaign-side randomness (join sampling, client jitter) —
    /// separate from the world seed so the same world can be re-collected
    /// differently.
    pub seed: u64,
    /// Worker threads of the run. Nothing inside the campaign is sized
    /// by it: every stage runs on the calling thread. It stays in the
    /// configuration because snapshots and `repro checkpoint inspect`
    /// carry it, and callers size their own [`chatlens_simnet::par::Pool`]s
    /// from it. The dataset is bit-identical at any value.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            join_day: 10,
            search_interval_hours: 1,
            monitor_interval_days: 1,
            use_search: true,
            use_stream: true,
            join_strategy: crate::joiner::JoinStrategy::default(),
            faults: FaultInjector::new(0.01, 0.005),
            profile: FaultProfile::Calm,
            outages: [None; 4],
            corruption: CorruptionProfile::Calm,
            seed: 0xC011_EC70,
            threads: default_threads(),
        }
    }
}

/// Derive the four per-service [`FaultSchedule`]s from the campaign
/// knobs. Used by both the fresh and the restored [`Runner`] paths, so a
/// resumed campaign rebuilds exactly the schedules the snapshot ran
/// under (the schedules themselves are pure config, not state).
///
/// Under [`FaultProfile::Outage`] with no explicit `outages` specs, the
/// stock storm applies: a 3-day WhatsApp blackout starting day 12 and a
/// 2-day Discord credential ban starting day 20.
fn fault_schedules(campaign: &CampaignConfig, start: SimTime) -> [FaultSchedule; 4] {
    let mut specs = campaign.outages;
    if campaign.profile == FaultProfile::Outage && specs.iter().all(Option::is_none) {
        specs[1] = Some(OutageSpec {
            start_day: 12,
            days: 3,
            ban: false,
        });
        specs[3] = Some(OutageSpec {
            start_day: 20,
            days: 2,
            ban: true,
        });
    }
    specs.map(|spec| FaultSchedule {
        base: campaign.faults,
        burst: campaign.profile.burst(),
        outages: spec.iter().map(|s| s.window(start)).collect(),
    })
}

/// Default worker-thread count: 1, unless overridden by the
/// `CHATLENS_THREADS` environment variable. Because the parallel runtime
/// is deterministic, CI runs the whole test suite under
/// `CHATLENS_THREADS=8` and every exact-value assertion must still hold.
fn default_threads() -> usize {
    std::env::var("CHATLENS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Campaign events on the virtual timeline. Public because snapshots
/// persist the pending event queue (see [`crate::state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignEvent {
    /// Hourly Search API round over the six query hosts.
    Search,
    /// Half-hourly Streaming API drain.
    StreamDrain,
    /// Daily 1%-sample drain into the control dataset.
    SampleDrain,
    /// Daily monitor round; carries the zero-based study day.
    Monitor {
        /// Zero-based study day of this round.
        day: u32,
    },
    /// The one-time join phase on `join_day`.
    Join,
    /// The end-of-study collection pass over joined groups.
    Collect,
    /// Daily gap-aware backfill: retry queued stream/sample windows and
    /// the day's failed monitor fetches; carries the zero-based study day.
    Backfill {
        /// Zero-based study day of this round.
        day: u32,
    },
}

/// When and where to write snapshots during a checkpointed run.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory snapshots are written into (created on first save).
    pub dir: PathBuf,
    /// Save every N completed study days; `0` disables interval saves.
    pub every_days: u32,
    /// Also save (best-effort) if the campaign unwinds mid-run — a panic
    /// in a handler, for instance — so the run is resumable from the last
    /// completed day rather than its last interval snapshot.
    pub on_drop: bool,
    /// Which storage fault regime snapshot I/O runs under. `Calm` (the
    /// default) is the real filesystem; `Flaky`/`Torn` route saves and
    /// loads through a deterministic [`FaultVfs`] whose injected damage
    /// the chain-recovery resume path must survive.
    pub disk_fault: DiskFaultProfile,
}

impl CheckpointPolicy {
    /// Save into `dir` after every completed day, and on unwind.
    pub fn daily(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every_days: 1,
            on_drop: true,
            disk_fault: DiskFaultProfile::Calm,
        }
    }

    /// Path of the snapshot written after `day` completed days.
    pub fn snapshot_path(&self, day: u32) -> PathBuf {
        self.dir.join(format!("day{day:03}.ckpt"))
    }

    /// The filesystem snapshot I/O goes through under this policy: the
    /// real one under `Calm`, a deterministic fault injector seeded from
    /// the campaign seed (via the registered `("checkpoint", "disk")`
    /// stream) otherwise.
    pub fn vfs(&self, seed: u64) -> Box<dyn Vfs> {
        match self.disk_fault {
            DiskFaultProfile::Calm => Box::new(RealVfs),
            profile => Box::new(FaultVfs::new(seed, profile.rates())),
        }
    }
}

/// Run the full study over a freshly built ecosystem with default
/// campaign settings.
pub fn run_study(scenario: ScenarioConfig) -> Dataset {
    run_study_with(scenario, CampaignConfig::default())
}

/// Run the full study with explicit campaign settings. Returns the
/// assembled [`Dataset`].
pub fn run_study_with(scenario: ScenarioConfig, campaign: CampaignConfig) -> Dataset {
    run_study_on(&mut Ecosystem::build(scenario), campaign)
}

/// Run the campaign against an existing ecosystem (used by ablation
/// benches that re-collect the same world under different settings; the
/// ecosystem's materialized histories are deterministic per group, so
/// re-use is safe).
pub fn run_study_on(eco: &mut Ecosystem, campaign: CampaignConfig) -> Dataset {
    Campaign::new(eco, campaign, Attachments::default())
        .and_then(Campaign::finish)
        .map(Outcome::into_dataset)
        .expect("a campaign without checkpoints or a budget cannot fail")
}

/// Run a checkpointed campaign but halt cleanly after `days` completed
/// study days, leaving the snapshot chain (and nothing else) on disk.
/// Returns the number of days actually completed. This is the
/// deterministic "kill at a day boundary" behind `repro run
/// --halt-after-day`, which the crash-storm smoke uses to interrupt a
/// campaign mid-flight without racing a real signal.
pub fn run_study_days_checkpointed(
    scenario: ScenarioConfig,
    campaign: CampaignConfig,
    policy: &CheckpointPolicy,
    days: u32,
) -> Result<u32, CheckpointError> {
    let attach = Attachments {
        checkpoint: Some(policy),
        ..Attachments::default()
    };
    Campaign::new(&mut Ecosystem::build(scenario), campaign, attach)
        .and_then(|mut session| session.run_until(days))
        .map_err(|err| match err {
            StudyError::Checkpoint(err) => err,
            other => unreachable!("an unbudgeted fresh campaign failed: {other}"),
        })
}

/// Walk the checkpoint chain in `policy.dir` backwards to the newest
/// valid snapshot (see [`chain::recover_latest`]), persisting every
/// skipped link into the directory's recovery ledger. Snapshot reads go
/// through the policy's (possibly fault-injected) filesystem; the ledger
/// append always goes through the real one, so the fault domain cannot
/// erase its own audit trail. `up_to` bounds the walk ("resume as of day
/// N"); `None` recovers from the newest on-disk evidence. A `Recovered`
/// with `state: None` means no link survived — start fresh.
pub fn recover_latest_state(
    policy: &CheckpointPolicy,
    seed: u64,
    up_to: Option<u32>,
) -> Result<Recovered<CampaignState>, CheckpointError> {
    let mut vfs = policy.vfs(seed);
    let recovered = chain::recover_latest::<CampaignState>(vfs.as_mut(), &policy.dir, up_to)?;
    chain::append_ledger(&policy.dir, &recovered.skipped)?;
    Ok(recovered)
}

/// Resume a snapshotted campaign and run it to completion. The returned
/// dataset is byte-identical to the uninterrupted run's (modulo the
/// wall-clock `.micros` metrics, which [`Metrics::strip_wall_clock`]
/// normalizes).
///
/// # Panics
/// Panics if the snapshot cannot be resumed (see [`Campaign::resume`]).
pub fn resume_study(state: &CampaignState) -> Dataset {
    Campaign::resume(&mut state.world(), state, Attachments::default())
        .and_then(Campaign::finish)
        .map(Outcome::into_dataset)
        .unwrap_or_else(|err| panic!("cannot resume the snapshot: {err}"))
}

/// Resume a snapshotted campaign, advance at most `days` study days, and
/// return the new snapshot state. Building block for the equivalence
/// tests (resume day N, run one day, compare against the day-N+1
/// snapshot of an uninterrupted run).
///
/// # Panics
/// Panics if the snapshot cannot be resumed (see [`Campaign::resume`]).
pub fn resume_study_days(state: &CampaignState, days: u32) -> CampaignState {
    Campaign::resume(&mut state.world(), state, Attachments::default())
        .and_then(|mut session| {
            session.run_until(state.day.saturating_add(days))?;
            Ok(session.state())
        })
        .unwrap_or_else(|err| panic!("cannot resume the snapshot: {err}"))
}

/// Run the full study under a hard memory budget: day partitions of the
/// collected logs are spilled coldest-first through the budget policy's
/// (possibly fault-injected) filesystem whenever the accounted resident
/// size exceeds the ceiling, and the report is streamed at the end. The
/// report is byte-identical to [`run_study_with`]'s
/// [`Dataset::campaign_report`].
pub fn run_study_budgeted(
    scenario: ScenarioConfig,
    campaign: CampaignConfig,
    budget: &BudgetPolicy,
) -> Result<BudgetedRun, StudyError> {
    let attach = Attachments {
        budget: Some(budget),
        ..Attachments::default()
    };
    Campaign::new(&mut Ecosystem::build(scenario), campaign, attach)
        .and_then(Campaign::finish)
        .map(Outcome::into_budgeted)
}

/// Run a budgeted, checkpointed campaign but halt cleanly after `days`
/// completed study days (the budgeted `--halt-after-day`). Snapshots
/// carry the accountant's state (checkpoint format v6), so the halted run
/// resumes — under the same budget — to a byte-identical report. Returns
/// the number of days actually completed.
pub fn run_study_days_budgeted(
    scenario: ScenarioConfig,
    campaign: CampaignConfig,
    policy: &CheckpointPolicy,
    budget: &BudgetPolicy,
    days: u32,
) -> Result<u32, StudyError> {
    let attach = Attachments {
        checkpoint: Some(policy),
        budget: Some(budget),
        ..Attachments::default()
    };
    Campaign::new(&mut Ecosystem::build(scenario), campaign, attach)
        .and_then(|mut session| session.run_until(days))
}

/// Resume a budgeted campaign from a v6 snapshot and run it to
/// completion (no further snapshot saves). The budget policy must carry
/// the snapshot's ceiling ([`BudgetError::ResumeMismatch`] otherwise);
/// spilled-partition dedup indexes are rebuilt by faulting each
/// manifest partition exactly once.
pub fn resume_study_budgeted(
    state: &CampaignState,
    budget: &BudgetPolicy,
) -> Result<BudgetedRun, StudyError> {
    let attach = Attachments {
        budget: Some(budget),
        ..Attachments::default()
    };
    Campaign::resume(&mut state.world(), state, attach)
        .and_then(Campaign::finish)
        .map(Outcome::into_budgeted)
}

/// Why a campaign session refused to start or continue. Every arm is a
/// typed refusal — a session degrades (spill, then refuse) and never
/// aborts.
#[derive(Debug)]
pub enum StudyError {
    /// Snapshot I/O failed under a non-tolerant disk-fault profile.
    Checkpoint(CheckpointError),
    /// The memory accountant refused: ceiling below the floor,
    /// un-evictable working set over the ceiling, damaged spill data, or
    /// a snapshot whose budget state does not fit the attached budget.
    Budget(BudgetError),
    /// The snapshot decodes but cannot be resumed as asked: it fails the
    /// restore audit, carries the wrong number of day marks, or its fold
    /// ledger is missing or does not fit the attached folds.
    Resume(String),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            StudyError::Budget(e) => write!(f, "budget: {e}"),
            StudyError::Resume(why) => write!(f, "resume: {why}"),
        }
    }
}

impl std::error::Error for StudyError {}

impl From<CheckpointError> for StudyError {
    fn from(e: CheckpointError) -> StudyError {
        StudyError::Checkpoint(e)
    }
}

impl From<BudgetError> for StudyError {
    fn from(e: BudgetError) -> StudyError {
        StudyError::Budget(e)
    }
}

/// The output of a budgeted campaign. It never materializes the full
/// tweet log: its report (byte-identical to the unbudgeted run's) and
/// summary are streamed at finish from the spilled day partitions plus
/// the resident tails, and [`Outcome::tweet_pass`] streams them again.
#[derive(Debug)]
pub struct BudgetedRun {
    /// The canonical campaign report — byte-identical to
    /// [`Dataset::campaign_report`] of an unbudgeted run.
    pub report: String,
    /// Table 2 and the campaign counters.
    pub summary: CampaignSummary,
    /// Accountant statistics at finish (resident peak, spill volume, …),
    /// taken before any later pass faults a partition back.
    pub stats: BudgetStats,
    /// The `budget.*` metric registry (kept out of the report's frozen
    /// counter digest).
    pub metrics: Metrics,
    /// The finished stores; `tweets` and `control` hold only the tails
    /// that follow the spilled days.
    resident: Dataset,
    /// The accountant, which reads the spilled days back.
    spill: MemoryBudget,
}

/// What a [`Campaign`] session carries besides the campaign itself. Each
/// attachment is optional and every mix is legal.
#[derive(Default)]
pub struct Attachments<'a> {
    /// Save a snapshot per this policy after every completed interval
    /// day (and on unwind, if the policy asks for it).
    pub checkpoint: Option<&'a CheckpointPolicy>,
    /// Fold every completed day into this driver's incremental analyses;
    /// its [`FoldLedger`](crate::fold::FoldLedger) rides inside every
    /// snapshot. Call [`FoldDriver::finish`] after the session for the
    /// report fragments.
    pub folds: Option<&'a mut FoldDriver>,
    /// Run under this memory budget; the session then finishes into a
    /// [`BudgetedRun`] instead of a [`Dataset`].
    pub budget: Option<&'a BudgetPolicy>,
}

/// What a finished [`Campaign`] hands back: the assembled dataset, or
/// a budgeted session's run. Every artifact renders from either through
/// [`Outcome::summary`], [`Outcome::tweet_pass`] and [`Outcome::report`].
#[derive(Debug)]
pub enum Outcome {
    /// An unbudgeted session's dataset.
    Dataset(Box<Dataset>),
    /// A budgeted session's report, summary and accountant statistics.
    Budgeted(Box<BudgetedRun>),
}

impl Outcome {
    /// The dataset of an unbudgeted session.
    ///
    /// # Panics
    /// Panics on a budgeted session's outcome.
    pub fn into_dataset(self) -> Dataset {
        match self {
            Outcome::Dataset(ds) => *ds,
            Outcome::Budgeted(_) => panic!("a budgeted session yields a BudgetedRun"),
        }
    }

    /// The report of a budgeted session.
    ///
    /// # Panics
    /// Panics on an unbudgeted session's outcome.
    pub fn into_budgeted(self) -> BudgetedRun {
        match self {
            Outcome::Budgeted(run) => *run,
            Outcome::Dataset(_) => panic!("an unbudgeted session yields a Dataset"),
        }
    }

    /// Table 2 and the campaign counters.
    pub fn summary(&self) -> CampaignSummary {
        match self {
            Outcome::Dataset(ds) => ds.campaign_summary(),
            Outcome::Budgeted(run) => run.summary,
        }
    }

    /// The canonical campaign report.
    pub fn report(&self) -> String {
        match self {
            Outcome::Dataset(ds) => ds.campaign_report(),
            Outcome::Budgeted(run) => run.report.clone(),
        }
    }

    /// The campaign's own metrics: counters and stage timings.
    pub fn metrics(&self) -> &Metrics {
        match self {
            Outcome::Dataset(ds) => &ds.metrics,
            Outcome::Budgeted(run) => &run.resident.metrics,
        }
    }

    /// One ordered pass over the collected tweet log: `f` sees it in
    /// append order, one chunk at a time — each spilled day partition
    /// (read back one at a time), then the resident tail; an unbudgeted
    /// dataset is one chunk.
    pub fn tweet_pass(&mut self, f: impl FnMut(&[CollectedTweet])) -> Result<(), BudgetError> {
        let (ds, spill) = match self {
            Outcome::Dataset(ds) => (&**ds, None),
            Outcome::Budgeted(run) => (&run.resident, Some(&mut run.spill)),
        };
        log_pass(spill, |p| p.tweets.as_slice(), &ds.tweets, f)
    }
}

/// One campaign session: the live campaign over a borrowed world plus
/// its [`Attachments`], advanced one study day at a time.
///
/// Every run mode — plain, checkpointed, incremental, budgeted, and any
/// mix of them, fresh or resumed — goes through the same day loop in
/// [`Campaign::step_day`]: run the day's events, fold the day if folds
/// are attached, enforce the budget (metering the fold state) if one is
/// attached, then save a snapshot if the checkpoint policy says the day
/// is due.
///
/// If the session unwinds while its policy has `on_drop` set, it saves
/// the current day boundary — but only when it sits exactly at one whose
/// snapshot is not yet on disk. A panic in the middle of a day leaves the
/// chain untouched rather than overwriting a clean snapshot with
/// half-run state.
pub struct Campaign<'a> {
    eco: &'a mut Ecosystem,
    runner: Runner,
    folds: Option<&'a mut FoldDriver>,
    snapshots: Option<Snapshots<'a>>,
    /// False while a day is in flight: the unwind save only captures
    /// completed day boundaries.
    at_boundary: bool,
    /// Resumed from a budgeted snapshot without a budget: the session
    /// cannot read the spilled partitions, so it refuses to run.
    budget_unmet: bool,
}

/// The checkpoint attachment: where snapshots go and which day is on
/// disk already.
struct Snapshots<'a> {
    policy: &'a CheckpointPolicy,
    vfs: Box<dyn Vfs>,
    /// The newest day boundary this session knows to be on disk.
    saved: Option<u32>,
}

impl<'a> Campaign<'a> {
    /// A fresh campaign over `eco`. Fails only if an attached budget
    /// refuses outright (a ceiling below the world's floor).
    pub fn new(
        eco: &'a mut Ecosystem,
        campaign: CampaignConfig,
        attach: Attachments<'a>,
    ) -> Result<Campaign<'a>, StudyError> {
        let mut runner = Runner::new(eco.window, campaign);
        if let Some(policy) = attach.budget {
            let floor = eco.twitter.encoded_bytes();
            runner.budget = Some(MemoryBudget::attach(policy, campaign.seed, floor)?);
        }
        Ok(Campaign::start(eco, runner, attach, None, false))
    }

    /// Resume a snapshotted campaign. `eco` must be the snapshot's world,
    /// [`CampaignState::world`]. The restored components are audited
    /// before any event runs on top of them, attached folds are restored
    /// from the snapshot's fold ledger, and an attached budget resumes
    /// the snapshot's accountant.
    ///
    /// Fails with [`StudyError::Resume`] if the snapshot violates the
    /// campaign invariants, does not carry one day mark per completed
    /// day, or — with folds attached — carries no fold ledger, a ledger
    /// for other folds, or one whose day count or cursors disagree with
    /// the snapshot; with [`StudyError::Budget`] if a budget is attached
    /// to an unbudgeted snapshot or does not fit its accountant. A
    /// budgeted snapshot resumed *without* a budget restores (so
    /// [`Campaign::state`] still works) but refuses to run a day or
    /// finish, since its cold partitions sit in a spill directory it
    /// cannot read.
    pub fn resume(
        eco: &'a mut Ecosystem,
        state: &CampaignState,
        mut attach: Attachments<'a>,
    ) -> Result<Campaign<'a>, StudyError> {
        let mut runner = Runner::from_state(state, eco.window);
        let violations = crate::audit::audit_components(
            runner.days(),
            &runner.discovery,
            &runner.monitor,
            &runner.joiner,
        );
        if !violations.is_empty() {
            return Err(StudyError::Resume(format!(
                "restored snapshot violates campaign invariants: {violations:#?}"
            )));
        }
        if runner.marks.len() != state.day as usize {
            return Err(StudyError::Resume(format!(
                "snapshot carries {} day marks for {} completed days",
                runner.marks.len(),
                state.day
            )));
        }
        if let Some(driver) = attach.folds.as_deref_mut() {
            restore_folds(driver, state, &runner)?;
        }
        if let Some(policy) = attach.budget {
            let bs = state.budget.as_ref().ok_or_else(|| {
                BudgetError::ResumeMismatch(
                    "snapshot carries no budget state: it was written by an unbudgeted run; \
                     resume it without --mem-budget"
                        .into(),
                )
            })?;
            let mut accountant = MemoryBudget::resume(bs, policy, runner.campaign.seed)?;
            accountant.reindex_spilled(&mut runner.discovery)?;
            runner.budget = Some(accountant);
        }
        let budget_unmet = state.budget.is_some() && attach.budget.is_none();
        Ok(Campaign::start(
            eco,
            runner,
            attach,
            Some(state.day),
            budget_unmet,
        ))
    }

    fn start(
        eco: &'a mut Ecosystem,
        runner: Runner,
        attach: Attachments<'a>,
        saved: Option<u32>,
        budget_unmet: bool,
    ) -> Campaign<'a> {
        let snapshots = attach.checkpoint.map(|policy| Snapshots {
            policy,
            vfs: policy.vfs(runner.campaign.seed),
            saved,
        });
        Campaign {
            eco,
            runner,
            folds: attach.folds,
            snapshots,
            at_boundary: true,
            budget_unmet,
        }
    }

    /// Run the next study day through the one day loop: the day's
    /// events, then the attached folds, then budget enforcement at the
    /// boundary (spill first, typed refusal only if spilling cannot
    /// satisfy the ceiling), then a snapshot if the policy says the day
    /// is due. Does nothing once every study day has run.
    pub fn step_day(&mut self) -> Result<(), StudyError> {
        self.ready()?;
        if self.runner.day >= self.runner.days() {
            return Ok(());
        }
        self.at_boundary = false;
        self.runner.run_day(self.eco);
        let mut fold_bytes = 0;
        if let Some(driver) = self.folds.as_deref_mut() {
            driver.fold_day(&self.runner.parts());
            fold_bytes = driver.state_sizes().map(|(_, bytes)| bytes).sum();
        }
        self.runner.enforce_budget(fold_bytes)?;
        self.at_boundary = true;
        let day = self.runner.day;
        let Some(snaps) = &self.snapshots else {
            return Ok(());
        };
        let policy = snaps.policy;
        if policy.every_days == 0 || !day.is_multiple_of(policy.every_days) {
            return Ok(());
        }
        match self.save() {
            Err(err) if policy.disk_fault.tolerates_save_failures() => {
                // An injected fault costs durability (the chain gets a
                // hole recovery must walk past), never the run.
                eprintln!("# snapshot save failed (injected): {err}");
                Ok(())
            }
            result => result.map_err(StudyError::from),
        }
    }

    /// Run study days until `day` are complete (or the window ends) and
    /// return the number of completed days. The session stays live: run
    /// further, capture [`Campaign::state`], or [`Campaign::finish`].
    pub fn run_until(&mut self, day: u32) -> Result<u32, StudyError> {
        while self.runner.day < day.min(self.runner.days()) {
            self.step_day()?;
        }
        Ok(self.runner.day)
    }

    /// Capture the full campaign state (including the fold ledger when
    /// folds are attached). Valid at any day boundary.
    pub fn state(&self) -> CampaignState {
        self.with_view(|view| view.to_state())
    }

    /// Lend `f` the campaign state as a view of the live components. Only
    /// the parts they do not hold as-is are built (the engine's pending
    /// queue, client states, fold ledger, ecosystem delta and budget
    /// state); the collections are borrowed, not cloned.
    fn with_view<R>(&self, f: impl FnOnce(&StateView<'_>) -> R) -> R {
        let Runner {
            window: _,
            campaign,
            day,
            engine,
            net,
            rng,
            discovery,
            monitor,
            joiner,
            pii,
            metrics,
            marks,
            budget,
        } = &self.runner;
        let engine = EngineState::capture(engine);
        let rng = rng.state();
        let clients = net.export_state();
        let folds = self.folds.as_deref().map(FoldDriver::ledger);
        let delta = self.eco.export_delta();
        let budget = budget.as_ref().map(MemoryBudget::state);
        f(&StateView {
            scenario: &self.eco.config,
            campaign,
            day,
            engine: &engine,
            rng: &rng,
            clients: &clients,
            discovery,
            monitor,
            joiner,
            pii,
            metrics,
            marks,
            folds: &folds,
            delta: &delta,
            budget: &budget,
        })
    }

    /// Run the remaining days, record the end-of-run metrics, and
    /// deliver the result: the assembled [`Dataset`], or — with a budget
    /// attached — the [`BudgetedRun`], whose report and summary stream
    /// from the spilled partitions.
    pub fn finish(mut self) -> Result<Outcome, StudyError> {
        self.run_until(self.runner.days())?;
        self.ready()?;
        // Disarm the unwind save: a finished run leaves exactly its
        // interval snapshots behind.
        self.snapshots = None;
        self.runner.drain_tail(self.eco);
        self.runner.record_final_metrics();
        let budget = self.runner.budget.take();
        let ds = self.runner.assemble();
        let Some(mut spill) = budget else {
            return Ok(Outcome::Dataset(Box::new(ds)));
        };
        let (report, summary) = ds.report_pass(Some(&mut spill))?;
        Ok(Outcome::Budgeted(Box::new(BudgetedRun {
            report,
            summary,
            stats: spill.stats(),
            metrics: spill.metrics(),
            resident: ds,
            spill,
        })))
    }

    fn ready(&self) -> Result<(), StudyError> {
        if !self.budget_unmet {
            return Ok(());
        }
        Err(StudyError::Budget(BudgetError::ResumeMismatch(
            "snapshot was written under a memory budget; resume it with the same \
             budget (and its spill directory)"
                .into(),
        )))
    }

    /// Write the current day boundary's snapshot, encoded from a view of
    /// the live campaign: the same bytes as [`encode_snapshot`] of
    /// [`Campaign::state`], without the copy.
    ///
    /// [`encode_snapshot`]: chatlens_checkpoint::encode_snapshot
    fn save(&mut self) -> Result<(), CheckpointError> {
        let bytes = self.with_view(|view| encode_snapshot_with(|w| view.save(w)));
        let day = self.runner.day;
        let snaps = self.snapshots.as_mut().expect("saving needs a policy");
        snaps
            .vfs
            .write_atomic(&snaps.policy.snapshot_path(day), &bytes)?;
        snaps.saved = Some(day);
        Ok(())
    }
}

impl Drop for Campaign<'_> {
    fn drop(&mut self) {
        let unsaved = self
            .snapshots
            .as_ref()
            .is_some_and(|s| s.policy.on_drop && s.saved != Some(self.runner.day));
        if unsaved && self.at_boundary && std::thread::panicking() {
            // Best-effort: never surface I/O errors mid-unwind.
            let _ = self.save();
        }
    }
}

/// Restore `driver` from the snapshot's fold ledger and check that the
/// ledger agrees with the snapshot's day count and collections.
fn restore_folds(
    driver: &mut FoldDriver,
    state: &CampaignState,
    runner: &Runner,
) -> Result<(), StudyError> {
    let ledger = state.folds.as_ref().ok_or_else(|| {
        StudyError::Resume(
            "snapshot carries no fold ledger: it was written without analysis \
             folds attached; resume it without folds or re-run from scratch"
                .into(),
        )
    })?;
    driver.restore(ledger).map_err(|err| {
        StudyError::Resume(format!(
            "fold ledger does not match the registered folds: {err}"
        ))
    })?;
    if driver.days_folded() != state.day {
        return Err(StudyError::Resume(format!(
            "fold ledger covers {} days, the snapshot {}",
            driver.days_folded(),
            state.day
        )));
    }
    let cursors = (
        ledger.tweets_seen,
        ledger.control_seen,
        ledger.groups_seen,
        ledger.joined_seen,
    );
    let collections = (
        runner.discovery.tweets.len() as u64,
        runner.discovery.control.len() as u64,
        runner.discovery.groups.len() as u64,
        runner.joiner.joined.len() as u64,
    );
    if cursors != collections {
        return Err(StudyError::Resume(format!(
            "fold ledger cursors {cursors:?} disagree with the snapshot's collections \
             {collections:?}"
        )));
    }
    Ok(())
}

/// The live campaign: every mutable component plus the event timeline,
/// advanced one study day at a time so day boundaries are capturable.
struct Runner {
    window: StudyWindow,
    campaign: CampaignConfig,
    /// Completed study days (== the next day index to execute).
    day: u32,
    engine: Engine<CampaignEvent>,
    net: Net,
    rng: Rng,
    discovery: Discovery,
    monitor: Monitor,
    joiner: Joiner,
    pii: PiiStore,
    metrics: Metrics,
    /// One mark per completed day: collection-vector lengths at the day
    /// boundary. Recorded unconditionally (runs with and without folds
    /// produce identical datasets and snapshots, folds aside).
    marks: Vec<DayMark>,
    /// The memory accountant of a budgeted run (`None` on the unbudgeted
    /// paths, which never spill and assemble datasets in memory).
    budget: Option<MemoryBudget>,
}

impl Runner {
    /// A fresh campaign over `window` with the whole event mix scheduled
    /// up front (it is static — nothing schedules during the run).
    fn new(window: StudyWindow, campaign: CampaignConfig) -> Runner {
        let start = window.start_time();
        let end = window.end_time();
        let mut engine: Engine<CampaignEvent> = Engine::new(start);

        let total_hours = window.num_days() * 24;
        for h in 0..total_hours {
            if campaign.use_search && h % u64::from(campaign.search_interval_hours.max(1)) == 0 {
                engine.schedule_at(start + SimDuration::hours(h), CampaignEvent::Search);
            }
            if campaign.use_stream {
                engine.schedule_at(
                    start + SimDuration::hours(h) + SimDuration::minutes(30),
                    CampaignEvent::StreamDrain,
                );
            }
        }
        for d in 0..window.num_days() {
            engine.schedule_at(
                start + SimDuration::days(d) + SimDuration::hours(22) + SimDuration::minutes(40),
                CampaignEvent::SampleDrain,
            );
            if d % u64::from(campaign.monitor_interval_days.max(1)) == 0 {
                engine.schedule_at(
                    start
                        + SimDuration::days(d)
                        + SimDuration::hours(23)
                        + SimDuration::minutes(10),
                    CampaignEvent::Monitor { day: d as u32 },
                );
            }
            // Backfill after the day's monitor round and last stream
            // drain, still inside the day (quiescent boundary intact).
            engine.schedule_at(
                start + SimDuration::days(d) + SimDuration::hours(23) + SimDuration::minutes(40),
                CampaignEvent::Backfill { day: d as u32 },
            );
        }
        engine.schedule_at(
            start + SimDuration::days(u64::from(campaign.join_day)) + SimDuration::hours(12),
            CampaignEvent::Join,
        );
        engine.schedule_at(
            end.checked_sub(SimDuration::minutes(20)).expect("window"),
            CampaignEvent::Collect,
        );

        Runner {
            window,
            campaign,
            day: 0,
            engine,
            net: Net::with_corruption(
                campaign.seed,
                start,
                fault_schedules(&campaign, start),
                campaign.corruption.schedule(),
            ),
            rng: Rng::new(campaign.seed ^ 0x9E37_79B9),
            discovery: Discovery::new(start),
            monitor: Monitor::new(),
            joiner: Joiner::new(),
            pii: PiiStore::new(),
            metrics: Metrics::new(),
            marks: Vec::new(),
            budget: None,
        }
    }

    /// Study days in the window.
    fn days(&self) -> u32 {
        self.window.num_days() as u32
    }

    /// Execute every event of the next study day. The day's deadline is
    /// its final second (23:59:59) — no campaign event is ever scheduled
    /// there, so running to it is equivalent to running through the day
    /// as part of one uninterrupted `run_until`.
    fn run_day(&mut self, eco: &mut Ecosystem) {
        let deadline = (self.window.start_time() + SimDuration::days(u64::from(self.day) + 1))
            .checked_sub(SimDuration::secs(1))
            .expect("window");
        self.run_to(eco, deadline);
        self.day += 1;
        self.marks.push(DayMark {
            day: self.day - 1,
            tweets: self.discovery.tweets.len() as u64,
            control: self.discovery.control.len() as u64,
            groups: self.discovery.groups.len() as u64,
            joined: self.joiner.joined.len() as u64,
        });
        // Day boundaries are quiescent points, so the cross-component
        // invariants must hold here; debug builds prove it after every
        // day, release campaigns skip the sweep.
        #[cfg(debug_assertions)]
        {
            let violations = crate::audit::audit_components(
                self.days(),
                &self.discovery,
                &self.monitor,
                &self.joiner,
            );
            assert!(
                violations.is_empty(),
                "invariant audit failed after day {}: {violations:#?}",
                self.day - 1
            );
        }
    }

    /// Run any events left past the final day boundary (a complete run
    /// has none; a resumed mid-campaign runner may).
    fn drain_tail(&mut self, eco: &mut Ecosystem) {
        self.run_to(eco, self.window.end_time());
    }

    /// Run every event scheduled up to `deadline`.
    fn run_to(&mut self, eco: &mut Ecosystem, deadline: SimTime) {
        let Runner {
            engine,
            campaign,
            net,
            rng,
            discovery,
            monitor,
            joiner,
            pii,
            metrics,
            ..
        } = self;
        engine.run_until(deadline, |eng, ev| {
            handle_event(
                ev,
                eng.now(),
                eco,
                campaign,
                net,
                rng,
                discovery,
                monitor,
                joiner,
                pii,
                metrics,
            );
        });
    }

    /// Assemble the dataset from the finished campaign's collections,
    /// leaving the runner's collections empty.
    fn assemble(&mut self) -> Dataset {
        let start = self.window.start_time();
        let mut ds = Dataset::assemble(
            self.window,
            std::mem::replace(&mut self.discovery, Discovery::new(start)),
            std::mem::take(&mut self.monitor.timelines),
            std::mem::take(&mut self.monitor.gaps),
            std::mem::take(&mut self.monitor.quarantine),
            std::mem::take(&mut self.joiner),
            std::mem::take(&mut self.pii),
            std::mem::take(&mut self.marks),
        );
        ds.metrics = std::mem::take(&mut self.metrics);
        ds
    }

    /// Record the end-of-run metrics (part of the frozen counter digest,
    /// so the batch and budgeted paths share it).
    fn record_final_metrics(&mut self) {
        self.metrics
            .add(keys::TRANSPORT_ATTEMPTS, self.net.total_attempts());
        let (opened, fast_fails) = self.net.breaker_totals();
        self.metrics.add(keys::TRANSPORT_BREAKER_OPENED, opened);
        self.metrics
            .add(keys::TRANSPORT_BREAKER_FAST_FAILS, fast_fails);
        self.metrics
            .add(keys::MONITOR_GAP_DAYS, self.monitor.gap_days());
        self.metrics.add(
            keys::DISCOVERY_UNRECOVERED_WINDOWS,
            self.discovery.pending_windows() as u64,
        );
        self.metrics.add(
            keys::DISCOVERY_TWEETS_COLLECTED,
            self.discovery.tweets.len() as u64,
        );
        self.metrics.add(
            keys::DISCOVERY_GROUPS_DISCOVERED,
            self.discovery.groups.len() as u64,
        );
        self.metrics.add(
            keys::DISCOVERY_FAILED_REQUESTS,
            self.discovery.failed_requests,
        );
        self.metrics
            .add(keys::JOIN_DEAD_AT_JOIN, self.joiner.dead_at_join);
        self.metrics
            .add(keys::JOIN_JOINED_GROUPS, self.joiner.joined.len() as u64);
        self.metrics
            .add(keys::JOIN_FAILED_FETCHES, self.joiner.failed_fetches);
        self.metrics
            .add(keys::TRANSPORT_CORRUPTED, self.net.corrupted_total());
        self.metrics.add(
            keys::QUARANTINE_ENTRIES,
            (self.discovery.quarantine.len()
                + self.monitor.quarantine.len()
                + self.joiner.quarantine.len()) as u64,
        );
    }

    /// Day-boundary budget enforcement (no-op on unbudgeted runners).
    /// The accountant is taken out of the runner for the call so it can
    /// mutate the discovery logs it accounts for.
    fn enforce_budget(&mut self, fold_bytes: u64) -> Result<(), BudgetError> {
        let Some(mut budget) = self.budget.take() else {
            return Ok(());
        };
        let timeline_bytes = self.monitor.timelines.encoded_bytes();
        let result = budget.enforce(
            self.day,
            &self.marks,
            &mut self.discovery,
            self.window.start_time(),
            timeline_bytes,
            fold_bytes,
        );
        self.budget = Some(budget);
        result
    }

    /// Borrow the live collections for per-day fold slicing.
    fn parts(&self) -> DayParts<'_> {
        DayParts {
            window: self.window,
            tweets: self.discovery.tweets.view(),
            control: self.discovery.control.view(),
            groups: &self.discovery.groups,
            joined: &self.joiner.joined,
            interner: self.discovery.interner(),
            timelines: &self.monitor.timelines,
            gaps: &self.monitor.gaps,
            pii: &self.pii,
        }
    }

    /// Restore a runner from a snapshot. `window` comes from the rebuilt
    /// ecosystem; the transport clients are rebuilt with their original
    /// configuration and then overwritten with the snapshotted state.
    fn from_state(state: &CampaignState, window: StudyWindow) -> Runner {
        let campaign = state.campaign;
        let start = window.start_time();
        let mut net = Net::with_corruption(
            campaign.seed,
            start,
            fault_schedules(&campaign, start),
            campaign.corruption.schedule(),
        );
        net.restore_state(state.clients.clone());
        Runner {
            window,
            campaign,
            day: state.day,
            engine: state.engine.restore(),
            net,
            rng: Rng::from_state(state.rng),
            discovery: state.discovery.clone(),
            monitor: state.monitor.clone(),
            joiner: state.joiner.clone(),
            pii: state.pii.clone(),
            metrics: state.metrics.clone(),
            marks: state.marks.clone(),
            budget: None,
        }
    }
}

/// One campaign event, dispatched against the pipeline components. Free
/// function (rather than a `Runner` method) so `step_day` can lend the
/// engine to `run_until` while the handler mutates the other fields.
#[allow(clippy::too_many_arguments)]
fn handle_event(
    ev: CampaignEvent,
    now: SimTime,
    eco: &mut Ecosystem,
    campaign: &CampaignConfig,
    net: &mut Net,
    rng: &mut Rng,
    discovery: &mut Discovery,
    monitor: &mut Monitor,
    joiner: &mut Joiner,
    pii: &mut PiiStore,
    metrics: &mut Metrics,
) {
    match ev {
        CampaignEvent::Search => {
            metrics.incr(keys::CAMPAIGN_SEARCH_ROUNDS);
            metrics.time_stage(keys::STAGE_SEARCH, || {
                discovery.run_search(net, eco, now);
            });
            metrics.observe(
                keys::DISCOVERY_GROUPS_KNOWN,
                discovery.group_count() as f64,
                &[1e2, 1e3, 1e4, 1e5, 1e6],
            );
        }
        CampaignEvent::StreamDrain => {
            metrics.incr(keys::CAMPAIGN_STREAM_DRAINS);
            metrics.time_stage(keys::STAGE_STREAM, || {
                discovery.drain_stream(net, eco, now);
            });
        }
        CampaignEvent::SampleDrain => {
            metrics.incr(keys::CAMPAIGN_SAMPLE_DRAINS);
            metrics.time_stage(keys::STAGE_SAMPLE, || {
                discovery.drain_sample(net, eco, now);
            });
        }
        CampaignEvent::Monitor { day } => {
            metrics.incr(keys::CAMPAIGN_MONITOR_ROUNDS);
            metrics.time_stage(keys::STAGE_MONITOR, || {
                monitor.run_day(net, eco, discovery, now, day, Some(pii));
            });
        }
        CampaignEvent::Join => {
            metrics.time_stage(keys::STAGE_JOIN, || {
                for kind in PlatformKind::ALL {
                    let budget = eco.config.join_budget_scaled(kind);
                    let disco: &Discovery = discovery;
                    let timelines = &monitor.timelines;
                    joiner.join_phase_with(
                        net,
                        eco,
                        disco,
                        kind,
                        budget,
                        now,
                        rng,
                        campaign.join_strategy,
                        &|key| {
                            disco
                                .slot_of_key(key)
                                .and_then(|slot| timelines.get(slot))
                                .and_then(|t| t.size_span())
                                .map(|(_, last)| last)
                        },
                    );
                }
            });
        }
        CampaignEvent::Collect => {
            metrics.time_stage(keys::STAGE_COLLECT, || {
                joiner.collect_phase(net, eco, now, pii);
            });
        }
        CampaignEvent::Backfill { day } => {
            metrics.incr(keys::CAMPAIGN_BACKFILL_ROUNDS);
            metrics.time_stage(keys::STAGE_BACKFILL, || {
                discovery.backfill(net, eco, now);
                monitor.backfill_day(net, eco, discovery, now, day, Some(pii));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetLimit;
    use crate::quarantine::{QuarantineCode, QuarantineEntry};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::OnceLock;

    /// The full tiny campaign is the expensive fixture here; run it once
    /// and share it across tests.
    fn tiny_dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| run_study(ScenarioConfig::tiny()))
    }

    #[test]
    fn full_campaign_produces_everything() {
        let ds = tiny_dataset();
        assert!(!ds.tweets.is_empty());
        assert!(!ds.control.is_empty());
        assert!(!ds.groups.is_empty());
        assert!(!ds.timelines.is_empty());
        assert!(!ds.joined.is_empty());
        assert!(ds.bot_join_rejected);
        assert!(ds.pii.wa_total_phones() > 0);
        // Every platform is represented.
        for kind in PlatformKind::ALL {
            let s = ds.summary(kind);
            assert!(s.tweets > 0, "{kind} tweets");
            assert!(s.group_urls > 0, "{kind} urls");
            assert!(s.joined_groups > 0, "{kind} joined");
            assert!(s.messages > 0, "{kind} messages");
        }
    }

    #[test]
    fn discovery_covers_most_of_the_world() {
        let ds = tiny_dataset();
        let cfg = ScenarioConfig::tiny();
        for kind in PlatformKind::ALL {
            let expected = cfg.scaled(cfg.platform(kind).n_group_urls) as f64;
            let found = ds.summary(kind).group_urls as f64;
            let coverage = found / expected;
            assert!(
                coverage > 0.9,
                "{kind}: discovered {found} of {expected} ({coverage:.2})"
            );
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_study(ScenarioConfig::at_scale(0.003));
        let b = run_study(ScenarioConfig::at_scale(0.003));
        assert_eq!(a.tweets.len(), b.tweets.len());
        assert_eq!(a.groups.len(), b.groups.len());
        assert_eq!(a.joined.len(), b.joined.len());
        assert_eq!(a.pii.wa_total_phones(), b.pii.wa_total_phones());
        assert_eq!(a.totals(), b.totals());
    }

    #[test]
    fn thread_count_never_changes_the_dataset() {
        let run = |threads: usize| {
            run_study_with(
                ScenarioConfig::at_scale(0.003),
                CampaignConfig {
                    threads,
                    ..CampaignConfig::default()
                },
            )
        };
        let serial = run(1);
        // Stage timings were recorded (values are wall-clock and therefore
        // uncomparable, but the counters must exist).
        assert!(serial.metrics.get("stage.search.runs") > 0);
        assert!(serial.metrics.get("stage.monitor.runs") > 0);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(par.totals(), serial.totals(), "{threads} threads");
            assert_eq!(par.tweets.len(), serial.tweets.len());
            assert_eq!(par.timelines, serial.timelines, "{threads} threads");
            assert_eq!(
                par.pii.wa_total_phones(),
                serial.pii.wa_total_phones(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn joined_budgets_respected() {
        let ds = tiny_dataset();
        let cfg = ScenarioConfig::tiny();
        for kind in PlatformKind::ALL {
            let budget = cfg.join_budget_scaled(kind);
            let joined = ds.summary(kind).joined_groups;
            assert!(joined <= budget, "{kind}: {joined} > {budget}");
        }
    }

    #[test]
    fn monitor_saw_discord_die_young() {
        let ds = tiny_dataset();
        let dc: Vec<_> = ds
            .groups
            .iter()
            .filter(|g| g.platform == PlatformKind::Discord)
            .collect();
        let dead_on_arrival = dc
            .iter()
            .filter(|g| ds.timeline_of(g).is_some_and(|t| t.dead_on_arrival()))
            .count() as f64
            / dc.len() as f64;
        assert!(
            dead_on_arrival > 0.4,
            "Discord dead-on-arrival share {dead_on_arrival}"
        );
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted() {
        // Capture mid-campaign, rebuild the world from scratch, and run
        // the rest: the dataset must match an uninterrupted run exactly
        // (wall-clock stage timings aside).
        let scenario = ScenarioConfig::at_scale(0.003);
        let mut full = run_study(scenario.clone());

        let state = mid_campaign(scenario, Attachments::default());
        let mut resumed = resume_study(&state);

        full.metrics.strip_wall_clock();
        resumed.metrics.strip_wall_clock();
        assert_eq!(full, resumed);
    }

    /// A scale-0.003 campaign stopped after three days, as a snapshot.
    fn mid_campaign(scenario: ScenarioConfig, attach: Attachments<'_>) -> CampaignState {
        let mut eco = Ecosystem::build(scenario);
        let mut session = Campaign::new(&mut eco, CampaignConfig::default(), attach)
            .unwrap_or_else(|err| panic!("session starts: {err}"));
        assert_eq!(session.run_until(3).expect("three days run"), 3);
        session.state()
    }

    /// Per-test scratch directory under the system temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chatlens-study-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Run `body` on a fresh checkpointed session and let it panic, so
    /// the session drops mid-unwind.
    fn unwind_with(policy: &CheckpointPolicy, body: impl FnOnce(&mut Campaign<'_>)) {
        let mut eco = Ecosystem::build(ScenarioConfig::at_scale(0.003));
        let attach = Attachments {
            checkpoint: Some(policy),
            ..Attachments::default()
        };
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut session =
                Campaign::new(&mut eco, CampaignConfig::default(), attach).expect("starts");
            body(&mut session);
            panic!("a campaign event handler failed");
        }));
        assert!(unwound.is_err());
    }

    #[test]
    fn unwind_save_never_overwrites_a_clean_snapshot_with_mid_day_state() {
        let dir = scratch("unwind-mid-day");
        let policy = CheckpointPolicy::daily(&dir);
        let day3 = policy.snapshot_path(3);
        let mut clean = Vec::new();
        unwind_with(&policy, |session| {
            session.run_until(3).expect("three days run");
            clean = std::fs::read(&day3).expect("day-3 snapshot written");
            // What a handler panicking at noon on day 3 leaves behind:
            // the engine has popped (and lost) events past the boundary
            // whose snapshot is already on disk.
            session.at_boundary = false;
            let noon =
                session.runner.window.start_time() + SimDuration::days(3) + SimDuration::hours(12);
            session.runner.run_to(session.eco, noon);
        });
        assert!(
            std::fs::read(&day3).expect("day-3 snapshot still there") == clean,
            "the unwind save overwrote a clean snapshot with mid-day state"
        );
        assert!(!policy.snapshot_path(4).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwind_save_writes_an_unsaved_day_boundary() {
        let dir = scratch("unwind-boundary");
        let policy = CheckpointPolicy {
            every_days: 2,
            ..CheckpointPolicy::daily(&dir)
        };
        let mut expected = None;
        unwind_with(&policy, |session| {
            session.run_until(3).expect("three days run");
            assert!(!policy.snapshot_path(3).exists(), "day 3 is off-interval");
            expected = Some(session.state());
        });
        let saved: CampaignState = chatlens_checkpoint::load_from_file(&policy.snapshot_path(3))
            .expect("the unwind save wrote the unsaved boundary");
        assert_eq!(Some(saved), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Resume `state` with `attach`, expecting a refusal.
    fn resume_refusal(state: &CampaignState, attach: Attachments<'_>) -> StudyError {
        match Campaign::resume(&mut state.world(), state, attach) {
            Ok(_) => panic!("resume accepted a snapshot it must refuse"),
            Err(err) => err,
        }
    }

    /// An empty fold set: its ledger carries no entries, only cursors.
    struct NoFolds;

    impl crate::fold::FoldSet for NoFolds {
        fn folds(&self) -> Vec<&dyn crate::fold::DayFold> {
            Vec::new()
        }

        fn folds_mut(&mut self) -> Vec<&mut dyn crate::fold::DayFold> {
            Vec::new()
        }
    }

    /// Resume `state` with a fresh (empty) fold driver attached,
    /// expecting a refusal.
    fn folded_refusal(state: &CampaignState) -> StudyError {
        let mut driver = FoldDriver::new(NoFolds, 1);
        resume_refusal(
            state,
            Attachments {
                folds: Some(&mut driver),
                ..Attachments::default()
            },
        )
    }

    fn assert_resume_refusal(err: StudyError, needle: &str) {
        match err {
            StudyError::Resume(why) => assert!(why.contains(needle), "{why}"),
            other => panic!("expected a resume refusal mentioning {needle:?}, got {other}"),
        }
    }

    #[test]
    fn resume_refuses_damaged_snapshots_with_typed_errors() {
        let scenario = ScenarioConfig::at_scale(0.003);
        let batch = mid_campaign(scenario.clone(), Attachments::default());
        let mut driver = FoldDriver::new(NoFolds, 1);
        let folded = mid_campaign(
            scenario,
            Attachments {
                folds: Some(&mut driver),
                ..Attachments::default()
            },
        );
        // Folds attached to a batch snapshot.
        assert_resume_refusal(folded_refusal(&batch), "no fold ledger");

        // A ledger for folds this driver does not register.
        let mut state = folded.clone();
        let ledger = state.folds.as_mut().expect("folded snapshot has a ledger");
        ledger.entries.push(("ghost".into(), Vec::new()));
        assert_resume_refusal(folded_refusal(&state), "registered folds");

        // A ledger whose day count or cursors disagree with the snapshot.
        let mut state = folded.clone();
        state.folds.as_mut().expect("ledger").days_folded += 1;
        assert_resume_refusal(folded_refusal(&state), "covers 4 days");
        let mut state = folded.clone();
        state.folds.as_mut().expect("ledger").tweets_seen += 1;
        assert_resume_refusal(folded_refusal(&state), "cursors");

        // One day mark short.
        let mut state = batch.clone();
        state.marks.pop();
        assert_resume_refusal(
            resume_refusal(&state, Attachments::default()),
            "2 day marks for 3 completed days",
        );

        // A quarantine entry no campaign could have written.
        let mut state = batch.clone();
        state.discovery.quarantine.push(QuarantineEntry {
            service: "twitter".into(),
            endpoint: "twitter/stream".into(),
            group: String::new(),
            day: 99,
            code: QuarantineCode::MissingField,
            detail: "missing".into(),
            body: String::new(),
        });
        assert_resume_refusal(
            resume_refusal(&state, Attachments::default()),
            "violates campaign invariants",
        );

        // The undamaged snapshots still resume.
        assert!(Campaign::resume(&mut batch.world(), &batch, Attachments::default()).is_ok());
        let attach = Attachments {
            folds: Some(&mut driver),
            ..Attachments::default()
        };
        assert!(Campaign::resume(&mut folded.world(), &folded, attach).is_ok());
    }

    #[test]
    fn budget_mismatches_on_resume_are_typed_refusals() {
        let scenario = ScenarioConfig::at_scale(0.003);
        let dir = scratch("resume-budget");
        let budget = BudgetPolicy::new(BudgetLimit::Min, &dir);
        let budgeted = mid_campaign(
            scenario.clone(),
            Attachments {
                budget: Some(&budget),
                ..Attachments::default()
            },
        );
        assert!(budgeted.budget.is_some());

        // A budget attached to an unbudgeted snapshot.
        let batch = mid_campaign(scenario, Attachments::default());
        let attach = Attachments {
            budget: Some(&budget),
            ..Attachments::default()
        };
        assert!(matches!(
            resume_refusal(&batch, attach),
            StudyError::Budget(BudgetError::ResumeMismatch(_))
        ));

        // A budgeted snapshot without its budget restores, but refuses to
        // run a day or to finish.
        let mut eco = budgeted.world();
        let mut session = Campaign::resume(&mut eco, &budgeted, Attachments::default())
            .unwrap_or_else(|err| panic!("a budgeted snapshot restores: {err}"));
        assert_eq!(session.run_until(3).expect("no day to run"), 3);
        assert_eq!(session.state().day, 3);
        assert!(matches!(
            session.run_until(4),
            Err(StudyError::Budget(BudgetError::ResumeMismatch(_)))
        ));
        assert!(matches!(
            session.finish(),
            Err(StudyError::Budget(BudgetError::ResumeMismatch(_)))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
