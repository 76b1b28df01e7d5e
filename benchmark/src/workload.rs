//! The three workloads and the untraced end-to-end iteration.
//!
//! One iteration is the whole pipeline a user waits for, run through the
//! library's public entry points: build the world, run the campaign at 1
//! thread, render the report, run the campaign again at 2 threads, then
//! halt a campaign mid-way and resume it from its checkpoint chain to the
//! final report. Every report is checked against the recorded reference
//! and against the other reports of the same world. Phases are timed
//! through a [`Pacer`], which calibrates them for machine speed.

use crate::alloc;
use crate::pace::{Pacer, Timed};
use crate::record::{self, Entry, References};
use chatlens_analysis::batch_fragments;
use chatlens_checkpoint::encode_snapshot;
use chatlens_core::budget::{BudgetLimit, BudgetPolicy};
use chatlens_core::study::run_study_on;
use chatlens_core::{
    recover_latest_state, resume_study, resume_study_budgeted, run_study_budgeted,
    run_study_days_budgeted, run_study_days_checkpointed, CampaignConfig, CampaignState,
    CheckpointPolicy,
};
use chatlens_simnet::fault::{CorruptionProfile, DiskFaultProfile, FaultProfile};
use chatlens_simnet::par::Pool;
use chatlens_workload::{Ecosystem, ScenarioConfig};
use std::path::{Path, PathBuf};

/// World scale of every workload: small enough for several complete
/// iterations per run on a 2-core machine, large enough that collect and
/// the report dominate as they do at the paper's scale.
pub const SCALE: f64 = 0.005;

/// Study days the halted campaign completes before it stops (of 38).
pub const HALT_DAY: u32 = 19;

/// World builds timed per iteration beyond the ones the campaigns use.
const EXTRA_BUILDS: usize = 3;

/// 2-thread campaigns per in-memory iteration: the 2-thread time varies
/// more from one campaign to the next than the 1-thread phases do, so it
/// is sampled twice as often.
const CAMPAIGNS_2T: usize = 2;

/// The campaign seeds each seed table offers, with their recorded report
/// digests (see NOTES.md "Seeds").
const SEEDS: &str = include_str!("../seeds.tsv");

pub type Res<T> = Result<T, String>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CalmPaper,
    HostileBursty,
    DurableBudget,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CalmPaper,
        Workload::HostileBursty,
        Workload::DurableBudget,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CalmPaper => "calm-paper",
            Workload::HostileBursty => "hostile-bursty",
            Workload::DurableBudget => "durable-budget",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The budgeted, checkpointed campaign instead of the in-memory one.
    pub fn durable(self) -> bool {
        self == Workload::DurableBudget
    }

    /// The seed table the workload draws its campaign seed from. The
    /// durable workload shares the calm one: same world, same campaign,
    /// so the same report bytes.
    pub fn table(self) -> &'static str {
        match self {
            Workload::HostileBursty => "hostile",
            Workload::CalmPaper | Workload::DurableBudget => "calm",
        }
    }

    /// The world of every workload: the paper-calibrated scenario (its
    /// own world seed) at [`SCALE`].
    pub fn scenario(self) -> ScenarioConfig {
        ScenarioConfig::at_scale(SCALE)
    }

    /// The campaign knobs at a pinned thread count (never inherited from
    /// `CHATLENS_THREADS`) and campaign seed.
    pub fn campaign(self, threads: usize, seed: u64) -> CampaignConfig {
        let base = CampaignConfig {
            threads,
            seed,
            ..CampaignConfig::default()
        };
        match self {
            Workload::HostileBursty => CampaignConfig {
                profile: FaultProfile::Bursty,
                corruption: CorruptionProfile::Hostile,
                ..base
            },
            Workload::CalmPaper | Workload::DurableBudget => base,
        }
    }
}

/// A scratch directory inside the benchmark's own directory, emptied on
/// creation and removed on drop.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create(tag: &str) -> WorkDir {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{tag}-{}", std::process::id()));
        // lint:allow(D13) benchmark scratch lives outside the simulation's durability domain
        let _ = std::fs::remove_dir_all(&root);
        // lint:allow(D13) benchmark scratch lives outside the simulation's durability domain
        std::fs::create_dir_all(&root).expect("create the benchmark work directory");
        WorkDir { root }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Remove everything an iteration left behind.
    pub fn clear(&self) {
        // lint:allow(D13) benchmark scratch lives outside the simulation's durability domain
        let _ = std::fs::remove_dir_all(&self.root);
        // lint:allow(D13) benchmark scratch lives outside the simulation's durability domain
        let _ = std::fs::create_dir_all(&self.root);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // lint:allow(D13) benchmark scratch lives outside the simulation's durability domain
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds once no other run's directory is left in it.
            // lint:allow(D13) benchmark scratch lives outside the simulation's durability domain
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One workload at one seed, ready to iterate.
pub struct Bench {
    pub workload: Workload,
    pub scenario: ScenarioConfig,
    /// The campaign seed the benchmark seed selected.
    pub campaign_seed: u64,
    pub work: WorkDir,
    /// Byte ceiling of the durable workload (0 elsewhere).
    pub limit: u64,
    /// The recorded digests of this campaign's report and fragments.
    reference: Entry<'static>,
}

/// What one untraced iteration measured.
#[derive(Debug, Clone)]
pub struct Sample {
    pub setup_s: Vec<Timed>,
    pub campaign_s: Timed,
    pub campaign_2t_s: Vec<Timed>,
    pub report_s: Timed,
    pub resume_s: Timed,
    /// Heap high-water mark over the iteration's 1-thread phases.
    pub heap_peak_bytes: usize,
    /// Canonical size of the halted chain's last snapshot.
    pub snapshot_bytes: u64,
    /// Allocation count per 1-thread phase, for the determinism self-check.
    pub allocs: Vec<u64>,
}

impl Sample {
    fn timings_mut(&mut self) -> impl Iterator<Item = &mut Timed> {
        self.setup_s
            .iter_mut()
            .chain(self.campaign_2t_s.iter_mut())
            .chain([&mut self.campaign_s, &mut self.report_s, &mut self.resume_s])
    }
}

impl Bench {
    /// Benchmark seed `seed` selects entry `seed mod n` of the
    /// workload's seed table.
    pub fn new(workload: Workload, seed: u64, tag: &str) -> Res<Bench> {
        let entries = References::new(SEEDS).entries(workload.table());
        let n = entries.len() as u64;
        let reference = *entries
            .get(seed.checked_rem(n).ok_or("the seed table is empty")? as usize)
            .ok_or("seed index out of range")?;
        let mut bench = Bench {
            workload,
            scenario: workload.scenario(),
            campaign_seed: reference.seed,
            work: WorkDir::create(tag),
            limit: 0,
            reference,
        };
        if workload.durable() {
            bench.limit = bench.tight_limit()?;
        }
        Ok(bench)
    }

    /// The durable workload's ceiling: the floor plus half the headroom
    /// an unbounded run needs, found by a probe under an unreachable
    /// ceiling (the accountant meters, nothing is evicted).
    fn tight_limit(&self) -> Res<u64> {
        let probe = run_study_budgeted(
            self.scenario.clone(),
            self.campaign(1),
            &BudgetPolicy::new(BudgetLimit::Bytes(u64::MAX), self.work.path("probe")),
        )
        .map_err(|e| format!("budget probe: {e}"))?;
        self.work.clear();
        let s = probe.stats;
        Ok(s.floor + (s.resident_peak - s.floor) / 2)
    }

    pub fn campaign(&self, threads: usize) -> CampaignConfig {
        self.workload.campaign(threads, self.campaign_seed)
    }

    pub fn budget(&self, dir: &str) -> BudgetPolicy {
        BudgetPolicy::new(BudgetLimit::Bytes(self.limit), self.work.path(dir))
    }

    /// The halted run's snapshot policy: every day on the durable
    /// workload, only at the halt day elsewhere.
    pub fn halt_policy(&self, dir: &str) -> CheckpointPolicy {
        if self.workload.durable() {
            CheckpointPolicy::daily(self.work.path(dir))
        } else {
            CheckpointPolicy {
                every_days: HALT_DAY,
                on_drop: false,
                disk_fault: DiskFaultProfile::Calm,
                ..CheckpointPolicy::daily(self.work.path(dir))
            }
        }
    }

    /// Run a campaign to [`HALT_DAY`] and stop, leaving its chain on disk.
    pub fn halt(&self, chain: &str, spill: &str) -> Res<CheckpointPolicy> {
        let policy = self.halt_policy(chain);
        let days = if self.workload.durable() {
            run_study_days_budgeted(
                self.scenario.clone(),
                self.campaign(1),
                &policy,
                &self.budget(spill),
                HALT_DAY,
            )
            .map_err(|e| format!("halted run: {e}"))?
        } else {
            run_study_days_checkpointed(self.scenario.clone(), self.campaign(1), &policy, HALT_DAY)
                .map_err(|e| format!("halted run: {e}"))?
        };
        if days != HALT_DAY {
            return Err(format!("halted run stopped after {days} days"));
        }
        Ok(policy)
    }

    /// Recover the newest snapshot of a chain and run it to the final
    /// campaign report (streamed from spill on the durable workload).
    pub fn resume_to_report(
        &self,
        policy: &CheckpointPolicy,
        spill: &str,
    ) -> Res<(String, CampaignState)> {
        let recovered = recover_latest_state(policy, self.campaign(1).seed, None)
            .map_err(|e| format!("recover: {e}"))?;
        let state = recovered.state.ok_or("recover: no snapshot survived")?;
        let report = if self.workload.durable() {
            resume_study_budgeted(&state, &self.budget(spill))
                .map_err(|e| format!("resume: {e}"))?
                .report
        } else {
            resume_study(&state).campaign_report()
        };
        Ok((report, state))
    }

    /// Check a campaign report (and, when rendered, its analysis
    /// fragments) against the recorded reference for this world. The
    /// durable workload's reference is the calm one: same world, same
    /// campaign, so the same bytes.
    pub fn check_reference(&self, report: &str, fragments: Option<&str>) -> Res<()> {
        if record::digest(report) != self.reference.report {
            return Err("the report digest differs from the recorded reference".into());
        }
        if fragments.is_some_and(|f| record::digest(f) != self.reference.fragments) {
            return Err("the fragments digest differs from the recorded reference".into());
        }
        Ok(())
    }

    /// One untraced iteration.
    pub fn iterate(&self) -> Res<Sample> {
        self.work.clear();
        let pacer = Pacer::new();
        let mut setup_s = Vec::new();
        let mut usage = Vec::new();
        for _ in 0..EXTRA_BUILDS {
            let (eco, t) = pacer.time(|| Ecosystem::build(self.scenario.clone()));
            drop(std::hint::black_box(eco));
            setup_s.push(t);
        }
        let mut sample = if self.workload.durable() {
            self.iterate_durable(&pacer, setup_s, &mut usage)?
        } else {
            self.iterate_in_memory(&pacer, setup_s, &mut usage)?
        };
        pacer.settle(sample.timings_mut());
        self.work.clear();
        Ok(sample)
    }

    fn iterate_in_memory(
        &self,
        pacer: &Pacer,
        mut setup_s: Vec<Timed>,
        usage: &mut Vec<alloc::Usage>,
    ) -> Res<Sample> {
        let pool = Pool::new(1);
        let ((mut eco, u), t) =
            pacer.time(|| alloc::measure(|| Ecosystem::build(self.scenario.clone())));
        setup_s.push(t);
        usage.push(u);

        let ((ds, u), campaign_s) =
            pacer.time(|| alloc::measure(|| run_study_on(&mut eco, self.campaign(1))));
        usage.push(u);

        let (((report, fragments), u), report_s) = pacer.time(|| {
            alloc::measure(|| {
                let report = ds.campaign_report();
                let fragments: String = batch_fragments(&ds, &pool)
                    .into_iter()
                    .map(|(name, text)| format!("== {name}\n{text}"))
                    .collect();
                (report, fragments)
            })
        });
        usage.push(u);
        drop((ds, eco));
        self.check_reference(&report, Some(&fragments))?;

        let mut campaign_2t_s = Vec::new();
        for _ in 0..CAMPAIGNS_2T {
            let (mut eco, t) = pacer.time(|| Ecosystem::build(self.scenario.clone()));
            setup_s.push(t);
            let (ds, t) = pacer.time_spread(|| run_study_on(&mut eco, self.campaign(2)));
            campaign_2t_s.push(t);
            if ds.campaign_report() != report {
                return Err("the 2-thread report differs from the 1-thread report".into());
            }
        }

        let (policy, u) = alloc::measure(|| self.halt("halt", "halt-spill"));
        usage.push(u);
        let policy = policy?;
        let (resume_s, snapshot_bytes, u) = self.timed_resume(pacer, &policy, &report)?;
        usage.push(u);
        Ok(finish_sample(
            setup_s,
            campaign_s,
            campaign_2t_s,
            report_s,
            resume_s,
            snapshot_bytes,
            usage,
        ))
    }

    fn iterate_durable(
        &self,
        pacer: &Pacer,
        setup_s: Vec<Timed>,
        usage: &mut Vec<alloc::Usage>,
    ) -> Res<Sample> {
        let build_s = record::median(&setup_s.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        let days = self.scenario_days();
        let run_all = |pacer: &Pacer, threads: usize, chain: &str, spill: &str| -> Res<Timed> {
            let (done, mut t) = pacer.time_spread(|| {
                run_study_days_budgeted(
                    self.scenario.clone(),
                    self.campaign(threads),
                    &CheckpointPolicy::daily(self.work.path(chain)),
                    &self.budget(spill),
                    days,
                )
            });
            let done = done.map_err(|e| format!("budgeted run at {threads} threads: {e}"))?;
            if done != days {
                return Err(format!("budgeted run stopped after {done} of {days} days"));
            }
            // The entry point builds its own world; that part is setup_s.
            t.wall_s -= build_s;
            Ok(t)
        };

        let (campaign_s, u) = alloc::measure(|| run_all(pacer, 1, "chain", "spill"));
        usage.push(u);
        let campaign_s = campaign_s?;

        let ((out, u), report_s) = pacer.time(|| {
            alloc::measure(|| {
                self.resume_to_report(&CheckpointPolicy::daily(self.work.path("chain")), "spill")
            })
        });
        usage.push(u);
        let (report, final_state) = out?;
        if final_state.day != days {
            return Err(format!(
                "the final chain link is day {}, not {days}",
                final_state.day
            ));
        }
        self.check_reference(&report, None)?;

        let campaign_2t_s = run_all(pacer, 2, "chain-2t", "spill-2t")?;

        let (policy, u) = alloc::measure(|| self.halt("halt", "halt-spill"));
        usage.push(u);
        let policy = policy?;
        let (resume_s, snapshot_bytes, u) = self.timed_resume(pacer, &policy, &report)?;
        usage.push(u);
        Ok(finish_sample(
            setup_s,
            campaign_s,
            vec![campaign_2t_s],
            report_s,
            resume_s,
            snapshot_bytes,
            usage,
        ))
    }

    /// Time recovery of the halted chain through to the final report,
    /// which must equal the uninterrupted run's report.
    fn timed_resume(
        &self,
        pacer: &Pacer,
        policy: &CheckpointPolicy,
        report: &str,
    ) -> Res<(Timed, u64, alloc::Usage)> {
        let ((out, u), resume_s) =
            pacer.time(|| alloc::measure(|| self.resume_to_report(policy, "halt-spill")));
        let (resumed, state) = out?;
        if resumed != report {
            return Err("the resumed report differs from the uninterrupted report".into());
        }
        Ok((resume_s, canonical_snapshot_bytes(&state), u))
    }

    pub fn scenario_days(&self) -> u32 {
        chatlens_simnet::time::StudyWindow::paper().num_days() as u32
    }
}

/// Encoded size of a snapshot with its wall-clock stage timers removed,
/// so the figure is a pure function of the campaign.
pub fn canonical_snapshot_bytes(state: &CampaignState) -> u64 {
    let mut state = state.clone();
    state.metrics.strip_wall_clock();
    encode_snapshot(&state).len() as u64
}

fn finish_sample(
    setup_s: Vec<Timed>,
    campaign_s: Timed,
    campaign_2t_s: Vec<Timed>,
    report_s: Timed,
    resume_s: Timed,
    snapshot_bytes: u64,
    usage: &[alloc::Usage],
) -> Sample {
    Sample {
        setup_s,
        campaign_s,
        campaign_2t_s,
        report_s,
        resume_s,
        heap_peak_bytes: usage.iter().map(|u| u.peak_bytes).max().unwrap_or(0),
        snapshot_bytes,
        allocs: usage.iter().map(|u| u.allocs).collect(),
    }
}
