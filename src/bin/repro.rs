//! Regenerates every table and figure of the paper and prints
//! paper-vs-measured comparisons.
//!
//! ```text
//! repro [--scale 0.1] [--seed 20200408] [--threads 1] [--timings] [artifact]
//! ```
//!
//! `artifact` is one of `table1 table2 table3 table4 table5 fig1 fig2 fig3
//! fig4 fig5 fig6 fig7 fig8 fig9 extras extensions dump-config run all`
//! (default `all`). `run` executes the campaign and prints its totals and
//! fold summary without rendering artifacts; `dump-config` prints the
//! scenario as JSON. Every other artifact ends with a markdown comparison
//! table (the EXPERIMENTS.md body).
//!
//! `--threads N` sizes the deterministic parallel runtime
//! ([`chatlens::simnet::par::Pool`]): every table and figure — and the
//! campaign dataset itself — is bit-identical at any thread count; only
//! wall-clock time changes. `--timings` prints the per-stage wall-clock
//! table recorded in [`chatlens::simnet::metrics::Metrics`].

use chatlens::analysis::content::ContentOutput;
use chatlens::analysis::discovery::DiscoveryOutput;
use chatlens::analysis::lifecycle::LifecycleOutput;
use chatlens::analysis::membership::MembershipOutput;
use chatlens::analysis::messages::MessagesOutput;
use chatlens::analysis::pii::PiiOutput;
use chatlens::analysis::{topics, LdaConfig, StandardFolds};
use chatlens::checkpoint::{chain, load_from_file, CheckpointError, RealVfs, Vfs};
use chatlens::core::audit_dataset;
use chatlens::core::budget::{BudgetLimit, BudgetPolicy};
use chatlens::core::dataset::CampaignSummary;
use chatlens::core::net::SERVICE_NAMES;
use chatlens::core::{
    recover_latest_state, Attachments, BudgetError, Campaign, CampaignConfig, CampaignState,
    CheckpointPolicy, FoldDriver, Outcome, StudyError,
};
use chatlens::perspective::{collect_english, score_tweets, EnglishTweets};
use chatlens::platforms::id::PlatformKind;
use chatlens::platforms::spec::PlatformSpec;
use chatlens::report::compare::{holding, markdown_table, Comparison};
use chatlens::report::fold::{fold_summary, FoldSummaryRow};
use chatlens::report::series::{cdf_summary, days_csv, sparkline, to_csv};
use chatlens::report::table::{fmt_bytes, fmt_count, fmt_pct, Table};
use chatlens::simnet::fault::{CorruptionProfile, DiskFaultProfile, FaultProfile, OutageSpec};
use chatlens::simnet::hash::sha256_hex;
use chatlens::simnet::metrics::{keys, Metrics};
use chatlens::simnet::time::SimTime;
use chatlens::twitter::Lang;
use chatlens::workload::Vocabulary;
use chatlens::{Ecosystem, ScenarioConfig};

const PLATFORMS: [PlatformKind; 3] = PlatformKind::ALL;

const HELP: &str = "\
repro — regenerate the paper's tables and figures from a simulated campaign

USAGE:
    repro [OPTIONS] [ARTIFACT]

ARTIFACT:
    one of: table1 table2 table3 table4 table5 fig1..fig9 extras
    extensions dump-config run all    (default: all)
    `run` executes the campaign and prints the dataset totals and the
    per-fold analysis summary (state size, fragment digest) without
    rendering the artifacts — pair it with the checkpoint options

SUBCOMMANDS:
    lint [--stats] [--format <text|json>] [--out <path>]
                     run the determinism & concurrency static-analysis
                     pass (chatlens-lint) over the workspace sources and
                     exit nonzero on any finding; --stats prints the
                     per-rule and per-crate summary tables (see DESIGN.md
                     §Determinism lint for the rule catalog D1..D14);
                     --format json prints the machine-readable
                     chatlens-lint/v1 report instead of diagnostics and
                     --out <path> writes that report to a file as well
    lint --validate <file>
                     check a previously emitted JSON report against the
                     chatlens-lint/v1 schema; exits 1 if it is malformed
    checkpoint inspect <file|dir>
                     decode a campaign snapshot and print its summary as
                     JSON (format version, day, clock, collection counts,
                     quarantine ledger sizes, deterministic metric
                     counters); exits 2 with a diagnostic on corrupt,
                     truncated, or version-skewed files. Given a
                     checkpoint directory instead, prints the per-day
                     chain status plus the persisted recovery ledger
    checkpoint verify [--all] <file|dir>
                     classify snapshots without touching them: a single
                     file loads (exit 0) or prints its typed error (exit
                     1); a directory (or --all) walks the whole chain,
                     prints one status line per day plus a counter
                     summary, and exits 0 as long as at least one valid
                     resume point survives
    checkpoint repair <dir>
                     quarantine every invalid snapshot and orphaned .tmp
                     file into <dir>/quarantine/ (recorded in the
                     recovery ledger) so the remaining chain verifies
                     clean
    audit <file>     resume the campaign from a snapshot to a finished
                     dataset and run the invariant auditor over it
                     (timeline monotonicity, membership/population
                     containment, gap- and quarantine-ledger consistency,
                     terminal revocations, message/timeline coherence);
                     prints one line per violation and exits 1 on any

OPTIONS:
    --scale <f64|paper|10x>
                     world scale relative to the paper (default 0.1);
                     `paper` is the full-size world (1.0) and `10x` a
                     ten-fold stress preset (10.0) for the memory-budget
                     acceptance runs
    --seed <u64>     world seed (default 20200408)
    --threads <n>    worker threads for the deterministic parallel runtime
                     (default 1). Output is bit-identical for a given seed
                     at ANY thread count — parallelism only changes
                     wall-clock time, never a table, figure, or the
                     collected dataset.
    --checkpoint-dir <dir>
                     save a campaign snapshot (day<NNN>.ckpt) into <dir>
                     at day boundaries during the run
    --checkpoint-every <n>
                     snapshot interval in study days (default 1; needs
                     --checkpoint-dir)
    --resume <file|dir>
                     resume the campaign from a snapshot instead of
                     starting fresh (--scale/--seed are then taken from
                     the snapshot, not the command line); the finished
                     dataset is bit-identical to an uninterrupted run.
                     Given a checkpoint directory (or a damaged file),
                     chain recovery walks the per-day chain backwards
                     past invalid snapshots to the newest valid one,
                     records every skip in the recovery ledger, and
                     replays the lost days; if nothing survives the
                     campaign restarts from scratch
    --fault-profile <calm|bursty|outage>
                     fault regime for the campaign's transport clients
                     (default calm). `bursty` layers a Gilbert-Elliott
                     burst chain over the i.i.d. faults; `outage` adds
                     scheduled service blackouts/bans (the built-in storm
                     unless --outage/--ban override it). Deterministic:
                     same profile + seed => byte-identical dataset.
    --outage <svc:start:days>
                     schedule a full blackout of one service, e.g.
                     `--outage whatsapp:12:3` (svc one of twitter,
                     whatsapp, telegram, discord; start is a 0-based
                     study day). Repeatable, one window per service.
    --ban <svc:start:days>
                     like --outage but the service answers instantly
                     with 403 Forbidden (credential suspension) instead
                     of dropping requests
    --corruption <calm|noisy|hostile>
                     payload-corruption regime for the campaign's wire
                     bodies (default calm). Orthogonal to the fault
                     profile: faults shape whether responses arrive,
                     corruption mangles what arrives inside successful
                     ones. Every rejected body lands in the dataset's
                     quarantine ledger with a typed error and provenance.
                     Deterministic: same profile + seed => byte-identical
                     dataset at any thread count.
    --disk-fault <calm|flaky|torn>
                     storage fault regime for snapshot I/O (default
                     calm). `flaky` injects occasional torn/short writes,
                     bit-rot, ENOSPC and rename failures; `torn` is a
                     torn-write-heavy storm. Injected faults cost
                     durability (holes in the checkpoint chain that
                     resume-time chain recovery walks past), never the
                     run. Deterministic: driven by the registered
                     (checkpoint, disk) RNG stream off the campaign
                     seed.
    --halt-after-day <n>
                     run the campaign (fresh or resumed, with or without
                     --mem-budget) but stop
                     cleanly after <n> completed study days, leaving the
                     snapshot chain on disk (the deterministic kill at a
                     day boundary used by the crash-storm CI smoke);
                     needs --checkpoint-dir
    --mem-budget <bytes|min>
                     run the campaign under a hard memory budget: the
                     accountant tracks the encoded-size resident bytes
                     of the big stores and spills cold day-partitions —
                     coldest day first, deterministically — through the
                     (possibly fault-injected, see --disk-fault) spill
                     filesystem whenever the ceiling is exceeded, then
                     reads them back one at a time for the report and
                     the artifacts. Every artifact and the report are
                     byte-identical to the unbudgeted run's; a ceiling
                     the spiller cannot satisfy is refused with a typed
                     error, never an abort. `min` evicts everything
                     eligible (the tightest deterministic residency).
                     The analysis fold state is metered too. Composes
                     with --checkpoint-dir / --resume / --halt-after-day.
                     Budgeted snapshots
                     carry the accountant (format v6) and must be
                     resumed with the same --mem-budget
    --spill-dir <dir>
                     where spill partitions (day<NNN>.part) and the
                     spill ledger live (default: <checkpoint-dir>/spill)
    --report-out <path>
                     write the canonical campaign report bytes to
                     <path> after a `run` (budgeted or not) — the CI
                     budget smoke byte-compares the two
    --timings        print per-stage wall-clock timings (campaign stages,
                     per-fold day and finish stages, and per-artifact
                     analysis stages) to stderr
    --csv <dir>      export figure series as CSV files into <dir>
    -h, --help       show this help";

fn main() {
    let mut scale = 0.1f64;
    let mut seed = 20_200_408u64;
    let mut threads = 1usize;
    let mut timings = false;
    let mut stats = false;
    let mut lint_json = false;
    let mut lint_out: Option<std::path::PathBuf> = None;
    let mut artifact = "all".to_string();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut ckpt_dir: Option<std::path::PathBuf> = None;
    let mut ckpt_every = 1u32;
    let mut resume: Option<std::path::PathBuf> = None;
    let mut profile = FaultProfile::Calm;
    let mut outages: [Option<OutageSpec>; 4] = [None; 4];
    let mut corruption = CorruptionProfile::Calm;
    let mut disk_fault = DiskFaultProfile::Calm;
    let mut halt_after: Option<u32> = None;
    let mut mem_budget: Option<BudgetLimit> = None;
    let mut spill_dir: Option<std::path::PathBuf> = None;
    let mut report_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "checkpoint" => {
                let sub = args.next();
                let result = match sub.as_deref() {
                    Some("inspect") => match args.next() {
                        Some(file) => checkpoint_inspect(std::path::Path::new(&file)),
                        None => Err(CliError::usage(
                            "checkpoint inspect needs a snapshot file or directory",
                        )),
                    },
                    Some("verify") => {
                        let mut all = false;
                        let mut target: Option<String> = None;
                        for v in args.by_ref() {
                            match v.as_str() {
                                "--all" => all = true,
                                other => target = Some(other.to_string()),
                            }
                        }
                        match target {
                            Some(t) => checkpoint_verify(std::path::Path::new(&t), all),
                            None => Err(CliError::usage(
                                "checkpoint verify needs a snapshot file or directory",
                            )),
                        }
                    }
                    Some("repair") => match args.next() {
                        Some(dir) => checkpoint_repair(std::path::Path::new(&dir)),
                        None => Err(CliError::usage(
                            "checkpoint repair needs a checkpoint directory",
                        )),
                    },
                    other => Err(CliError::usage(format!(
                        "unknown checkpoint subcommand {:?} (expected inspect, verify, or repair)",
                        other.unwrap_or("")
                    ))),
                };
                if let Err(e) = result {
                    exit_with(e);
                }
                return;
            }
            "audit" => {
                let result = match args.next() {
                    Some(file) => audit_snapshot(std::path::Path::new(&file)),
                    None => Err(CliError::usage("audit needs a snapshot file")),
                };
                if let Err(e) = result {
                    exit_with(e);
                }
                return;
            }
            "--scale" => {
                scale = match flag_value::<String>(&mut args, "--scale <f64|paper|10x>").as_str() {
                    "paper" => 1.0,
                    "10x" => 10.0,
                    other => match other.parse::<f64>() {
                        Ok(s) if s > 0.0 && s.is_finite() => s,
                        _ => exit_with(CliError::usage(format!(
                            "bad scale {other:?} (expected a positive number, `paper`, or `10x`)"
                        ))),
                    },
                };
            }
            "--seed" => seed = flag_value(&mut args, "--seed <u64>"),
            "--threads" => threads = flag_value(&mut args, "--threads <usize>"),
            "--timings" => timings = true,
            "--stats" => stats = true,
            "--format" => {
                lint_json = match flag_value::<String>(&mut args, "--format <text|json>").as_str() {
                    "json" => true,
                    "text" => false,
                    other => exit_with(CliError::usage(format!(
                        "unknown format {other:?} (expected text or json)"
                    ))),
                };
            }
            "--out" => lint_out = Some(flag_value(&mut args, "--out <path>")),
            "--validate" => {
                let file: std::path::PathBuf = flag_value(&mut args, "--validate <file>");
                if let Err(e) = validate_lint_json(&file) {
                    exit_with(e);
                }
                return;
            }
            "--csv" => csv_dir = Some(flag_value(&mut args, "--csv <dir>")),
            "--checkpoint-dir" => ckpt_dir = Some(flag_value(&mut args, "--checkpoint-dir <dir>")),
            "--checkpoint-every" => {
                ckpt_every = flag_value(&mut args, "--checkpoint-every <days>");
            }
            "--resume" => resume = Some(flag_value(&mut args, "--resume <file>")),
            "--fault-profile" => {
                let v: String = flag_value(&mut args, "--fault-profile <calm|bursty|outage>");
                profile = FaultProfile::parse(&v).unwrap_or_else(|| {
                    exit_with(CliError::usage(format!(
                        "unknown fault profile {v:?} (expected calm, bursty, or outage)"
                    )))
                });
            }
            "--corruption" => {
                let v: String = flag_value(&mut args, "--corruption <calm|noisy|hostile>");
                corruption = CorruptionProfile::parse(&v).unwrap_or_else(|| {
                    exit_with(CliError::usage(format!(
                        "unknown corruption profile {v:?} (expected calm, noisy, or hostile)"
                    )))
                });
            }
            "--disk-fault" => {
                let v: String = flag_value(&mut args, "--disk-fault <calm|flaky|torn>");
                disk_fault = DiskFaultProfile::parse(&v).unwrap_or_else(|| {
                    exit_with(CliError::usage(format!(
                        "unknown disk-fault profile {v:?} (expected calm, flaky, or torn)"
                    )))
                });
            }
            "--halt-after-day" => {
                halt_after = Some(flag_value(&mut args, "--halt-after-day <days>"));
            }
            "--mem-budget" => {
                mem_budget = Some(
                    match flag_value::<String>(&mut args, "--mem-budget <bytes|min>").as_str() {
                        "min" => BudgetLimit::Min,
                        other => BudgetLimit::Bytes(other.parse().unwrap_or_else(|_| {
                            exit_with(CliError::usage(format!(
                                "bad budget {other:?} (expected a byte count or `min`)"
                            )))
                        })),
                    },
                );
            }
            "--spill-dir" => spill_dir = Some(flag_value(&mut args, "--spill-dir <dir>")),
            "--report-out" => report_out = Some(flag_value(&mut args, "--report-out <path>")),
            "--outage" | "--ban" => {
                let spec: String = flag_value(&mut args, "--outage/--ban <svc:start_day:days>");
                let (idx, spec) = parse_outage(&spec, a == "--ban");
                outages[idx] = Some(spec);
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            flag if flag.starts_with("--") => exit_with(CliError::usage(format!(
                "unknown option {flag:?} (see --help)"
            ))),
            other => artifact = other.to_string(),
        }
    }
    if artifact == "lint" {
        run_lint(stats, lint_json, lint_out.as_deref());
        return;
    }
    let mut config = ScenarioConfig::at_scale(scale);
    config.seed = seed;
    if artifact == "dump-config" {
        println!(
            "{}",
            chatlens::workload::config_io::to_json(&config).expect("config serializes")
        );
        return;
    }
    eprintln!("# chatlens repro — scale {scale}, seed {seed}, threads {threads}");
    if profile != FaultProfile::Calm || outages.iter().any(Option::is_some) {
        eprintln!("# fault profile: {}", profile.name());
        for (name, spec) in SERVICE_NAMES.iter().zip(&outages) {
            if let Some(s) = spec {
                eprintln!(
                    "#   {} {} days {}..{}",
                    name,
                    if s.ban { "banned" } else { "down" },
                    s.start_day,
                    s.start_day + s.days
                );
            }
        }
    }
    // lint:allow(D1) stderr progress timing for the operator; no artifact reads it
    let t0 = std::time::Instant::now();
    if corruption != CorruptionProfile::Calm {
        eprintln!("# corruption profile: {}", corruption.name());
    }
    let campaign = CampaignConfig {
        threads,
        profile,
        outages,
        corruption,
        ..CampaignConfig::default()
    };
    if disk_fault != DiskFaultProfile::Calm {
        eprintln!("# disk-fault profile: {}", disk_fault.name());
    }
    let policy = ckpt_dir.as_ref().map(|dir| CheckpointPolicy {
        dir: dir.clone(),
        every_days: ckpt_every.max(1),
        on_drop: true,
        disk_fault,
    });
    let budget = mem_budget.map(|limit| {
        let dir = spill_dir
            .clone()
            .or_else(|| ckpt_dir.as_ref().map(|d| d.join("spill")))
            .unwrap_or_else(|| {
                exit_with(CliError::usage(
                    "--mem-budget needs --spill-dir (or --checkpoint-dir, \
                     whose spill/ subdirectory is the default)",
                ))
            });
        // lint:allow(D13) operator-addressed spill scratch dir; the Vfs owns every byte inside it
        if let Err(e) = std::fs::create_dir_all(&dir) {
            exit_with(CliError::failed(format!("{}: {e}", dir.display())));
        }
        eprintln!(
            "# memory budget: {} (spill dir {})",
            match limit {
                BudgetLimit::Bytes(b) => fmt_bytes(b),
                BudgetLimit::Min => "min".to_string(),
            },
            dir.display()
        );
        BudgetPolicy {
            limit,
            dir,
            disk_fault,
        }
    });
    if halt_after.is_some() && policy.is_none() {
        exit_with(CliError::usage("--halt-after-day needs --checkpoint-dir"));
    }
    let state =
        resume.as_ref().and_then(
            |path| match load_resume_state(path, campaign.seed, disk_fault) {
                Ok(Some(mut state)) => {
                    eprintln!(
                        "# resuming campaign from {} (day {}, threads {threads})",
                        path.display(),
                        state.day,
                    );
                    state.campaign.threads = threads;
                    Some(state)
                }
                Ok(None) => {
                    eprintln!(
                        "# no valid snapshot in {}; restarting the campaign from scratch",
                        path.display()
                    );
                    None
                }
                Err(e) => exit_with(e),
            },
        );
    // One session whatever the flags: attach what they ask for, then run
    // to the halt day or to the end. Every completed day is folded into
    // the standard analyses, so checkpoints carry folded state and the
    // artifacts render from the folds' outputs.
    let mut driver = FoldDriver::new(StandardFolds::new(), threads);
    let attach = Attachments {
        checkpoint: policy.as_ref(),
        folds: Some(&mut driver),
        budget: budget.as_ref(),
    };
    let mut eco = match &state {
        Some(state) => state.world(),
        None => {
            eprintln!("# building ecosystem and running the 38-day campaign...");
            Ecosystem::build(config)
        }
    };
    let session = match &state {
        Some(state) => Campaign::resume(&mut eco, state, attach),
        None => Campaign::new(&mut eco, campaign, attach),
    };
    let mut session = session.unwrap_or_else(|e| exit_with(study_failure(e)));
    if let Some(days) = halt_after {
        let done = session
            .run_until(days)
            .unwrap_or_else(|e| exit_with(study_failure(e)));
        let dir = &policy
            .as_ref()
            .expect("checked: halting needs a policy")
            .dir;
        let spills = budget
            .as_ref()
            .map(|b| format!(", spills in {}", b.dir.display()))
            .unwrap_or_default();
        println!(
            "campaign halted after day {done} (snapshots in {}{spills})",
            dir.display()
        );
        return;
    }
    let mut outcome = session
        .finish()
        .unwrap_or_else(|e| exit_with(study_failure(e)));
    eprintln!("# campaign done in {:.1?}\n", t0.elapsed());
    if let Some(p) = &policy {
        eprintln!("# snapshots in {}", p.dir.display());
    }
    let fragments = driver.finish();
    if timings {
        print_stage_timings("fold stage timings", driver.metrics());
    }
    let summary = outcome.summary();
    if artifact == "run" {
        let rows: Vec<FoldSummaryRow> = fragments
            .iter()
            .zip(driver.state_sizes())
            .map(|((name, fragment), (_, state_bytes))| FoldSummaryRow {
                name: (*name).to_string(),
                state_bytes,
                digest: sha256_hex(fragment.as_bytes())[..12].to_string(),
            })
            .collect();
        println!(
            "{}",
            fold_summary(&rows, driver.peak_state_bytes(), driver.days_folded()).render()
        );
        print_run_summary(&outcome, &summary, report_out.as_deref());
    }

    let mut cmp: Vec<Comparison> = Vec::new();
    // Analysis-side stage timings, reported next to the campaign's
    // (`stage.*` counters inside `ds.metrics`) under `--timings`.
    let mut stages = Metrics::new();
    let all = artifact == "all";
    let folds = driver.folds();
    if all || artifact == "table1" {
        table1();
    }
    if all || artifact == "table2" {
        stages.time_stage(keys::STAGE_TABLE2, || table2(&summary, scale, &mut cmp));
    }
    if all || artifact == "fig1" {
        stages.time_stage(keys::STAGE_FIG1, || {
            fig1(&folds.discovery.output(), scale, &mut cmp)
        });
    }
    if all || artifact == "fig2" {
        stages.time_stage(keys::STAGE_FIG2, || {
            fig2(&folds.discovery.output(), &mut cmp)
        });
    }
    if all || artifact == "fig3" {
        stages.time_stage(keys::STAGE_FIG3, || fig3(&folds.content.output(), &mut cmp));
    }
    if all || artifact == "fig4" {
        stages.time_stage(keys::STAGE_FIG4, || fig4(&folds.content.output(), &mut cmp));
    }
    if all || artifact == "table3" {
        stages.time_stage(keys::STAGE_LDA, || {
            table3(folds.topics.output(), threads, &mut cmp)
        });
    }
    if all || artifact == "fig5" {
        stages.time_stage(keys::STAGE_FIG5, || {
            fig5(&folds.lifecycle.output(), &mut cmp)
        });
    }
    if all || artifact == "fig6" {
        stages.time_stage(keys::STAGE_FIG6, || {
            fig6(&folds.lifecycle.output(), &mut cmp)
        });
    }
    if all || artifact == "fig7" {
        stages.time_stage(keys::STAGE_FIG7, || {
            fig7(&folds.membership.output(), &mut cmp)
        });
    }
    if all || artifact == "fig8" {
        stages.time_stage(keys::STAGE_FIG8, || {
            fig8(&folds.messages.output(), &mut cmp)
        });
    }
    if all || artifact == "fig9" {
        stages.time_stage(keys::STAGE_FIG9, || {
            fig9(&folds.messages.output(), &mut cmp)
        });
    }
    if all || artifact == "table4" {
        stages.time_stage(keys::STAGE_TABLE4, || table4(&folds.pii.output(), &mut cmp));
    }
    if all || artifact == "table5" {
        stages.time_stage(keys::STAGE_TABLE5, || table5(&folds.pii.output(), &mut cmp));
    }
    if all || artifact == "extras" {
        stages.time_stage(keys::STAGE_EXTRAS, || extras(&summary, folds, &mut cmp));
    }
    if all || artifact == "extensions" {
        let start = eco.window.start_time();
        let discovery = folds.discovery.output();
        stages
            .time_stage(keys::STAGE_EXTENSIONS, || {
                extensions(&mut outcome, start, &discovery, threads, &mut cmp)
            })
            .unwrap_or_else(|e| exit_with(study_failure(e.into())));
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = export_csv(folds, dir) {
            exit_with(CliError::usage(format!("CSV export failed: {e}")));
        }
        eprintln!("# figure series written to {}", dir.display());
    }
    if timings {
        print_stage_timings(
            "campaign stage timings (wall-clock, nondeterministic)",
            outcome.metrics(),
        );
        print_stage_timings("analysis stage timings", &stages);
    }
    if !cmp.is_empty() {
        println!("\n## Paper vs measured (scale {scale}, seed {seed})\n");
        println!("{}", markdown_table(&cmp));
        println!(
            "{} of {} comparisons within tolerance",
            holding(&cmp),
            cmp.len()
        );
    }
}

/// One `--timings` block on stderr: a title, then every stage timing of
/// `metrics`.
fn print_stage_timings(title: &str, metrics: &Metrics) {
    eprintln!("# {title}:");
    for (name, v) in metrics.stages() {
        eprintln!("#   {name} = {v}");
    }
}

fn pname(k: PlatformKind) -> &'static str {
    k.name()
}

/// Parse an `--outage`/`--ban` operand of the form `svc:start_day:days`
/// into the service's [`SERVICE_NAMES`] index and its [`OutageSpec`].
fn parse_outage(arg: &str, ban: bool) -> (usize, OutageSpec) {
    let bail = |what: &str| -> ! {
        exit_with(CliError::usage(format!(
            "bad outage spec {arg:?}: {what} (expected <svc:start_day:days>)"
        )))
    };
    let mut parts = arg.split(':');
    let (Some(svc), Some(start), Some(days), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        bail("need exactly three `:`-separated fields")
    };
    let Some(idx) = SERVICE_NAMES.iter().position(|&n| n == svc) else {
        bail("unknown service (expected twitter, whatsapp, telegram, or discord)")
    };
    let (Ok(start_day), Ok(days)) = (start.parse::<u32>(), days.parse::<u32>()) else {
        bail("start day and length must be unsigned integers")
    };
    if days == 0 {
        bail("outage length must be at least one day")
    }
    (
        idx,
        OutageSpec {
            start_day,
            days,
            ban,
        },
    )
}

/// The `run` artifact's summary: the canonical campaign report bytes to
/// a file if asked (the CI budget smoke byte-compares budgeted and
/// unbudgeted runs), the Table 2 totals and ledger lines, then — under a
/// budget — the accountant's statistics at finish.
fn print_run_summary(outcome: &Outcome, s: &CampaignSummary, report_out: Option<&std::path::Path>) {
    if let Some(path) = report_out {
        // lint:allow(D13) operator-requested report export, outside the durability domain
        if let Err(e) = std::fs::write(path, outcome.report().as_bytes()) {
            exit_with(CliError::failed(format!("{}: {e}", path.display())));
        }
        eprintln!("# report written to {}", path.display());
    }
    let tot = s.totals;
    println!(
        "campaign complete: {} tweets, {} group URLs, {} joined groups, {} messages",
        fmt_count(tot.tweets),
        fmt_count(tot.group_urls),
        fmt_count(tot.joined_groups),
        fmt_count(tot.messages)
    );
    if s.gap_days > 0 {
        println!(
            "gap ledger: {} group(s) with {} censored observation day(s)",
            fmt_count(s.gap_groups),
            fmt_count(s.gap_days)
        );
    }
    if s.quarantined > 0 {
        println!(
            "quarantine ledger: {} rejected bodies ({} corrupted in flight)",
            fmt_count(s.quarantined),
            fmt_count(outcome.metrics().get("transport.corrupted"))
        );
    }
    let Outcome::Budgeted(run) = outcome else {
        return;
    };
    let s = run.stats;
    let limit = match s.limit {
        Some(b) => fmt_bytes(b),
        None => "min".to_string(),
    };
    println!(
        "budget: limit {limit}, floor {}, resident peak {}, spilled {} partition(s) ({}), \
         evictions {}, faults {}, torn detected {}",
        fmt_bytes(s.floor),
        fmt_bytes(s.resident_peak),
        fmt_count(s.partitions),
        fmt_bytes(s.spilled_bytes),
        fmt_count(s.evictions),
        fmt_count(s.faults),
        fmt_count(s.torn_detected),
    );
}

/// A typed CLI failure: the diagnostic for stderr plus the process exit
/// code — `1` when the requested check found problems, `2` on usage or
/// I/O errors. Threaded back to [`exit_with`] through `Result` so the
/// subcommand bodies stay ordinary fallible functions instead of
/// sprinkling `process::exit` through every filesystem touch.
struct CliError {
    message: String,
    code: i32,
}

impl CliError {
    /// Usage / environment error (exit 2).
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// The requested check ran and failed (exit 1).
    fn failed(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

/// Print a [`CliError`] diagnostic and terminate with its exit code.
fn exit_with(err: CliError) -> ! {
    eprintln!("error: {}", err.message);
    std::process::exit(err.code);
}

/// The value that follows a flag on the command line, parsed as `T`. A
/// missing or malformed value is a usage error (exit 2), never a panic;
/// `usage` names the flag and its expected form.
fn flag_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, usage: &str) -> T {
    let parsed = match args.next() {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("bad value {v:?} for {usage}"))),
        None => Err(CliError::usage(format!("missing value for {usage}"))),
    };
    parsed.unwrap_or_else(|e| exit_with(e))
}

/// A campaign session's refusal as a CLI failure: snapshot I/O is an
/// environment error (exit 2), a budget or resume refusal a failed run
/// (exit 1).
fn study_failure(err: StudyError) -> CliError {
    match err {
        StudyError::Checkpoint(e) => CliError::usage(format!("snapshot save failed: {e}")),
        other => CliError::failed(other.to_string()),
    }
}

/// Resolve `--resume <path>` into a campaign state. A single readable
/// snapshot file loads directly; a checkpoint directory — or a file that
/// turns out to be damaged — goes through chain recovery: walk the
/// per-day chain backwards past invalid links to the newest valid
/// snapshot, appending every skip to the directory's recovery ledger.
/// `Ok(None)` means no link survived anywhere in the chain and the
/// caller should start fresh.
fn load_resume_state(
    path: &std::path::Path,
    seed: u64,
    disk_fault: DiskFaultProfile,
) -> Result<Option<CampaignState>, CliError> {
    if path.is_file() {
        match load_from_file::<CampaignState>(path) {
            Ok(state) => return Ok(Some(state)),
            Err(e) => eprintln!(
                "# snapshot {} is unusable ({e}); walking the checkpoint chain",
                path.display()
            ),
        }
    }
    let dir = if path.is_dir() {
        path.to_path_buf()
    } else {
        match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => {
                return Err(CliError::usage(format!(
                    "{}: no checkpoint directory to recover from",
                    path.display()
                )))
            }
        }
    };
    let policy = CheckpointPolicy {
        dir: dir.clone(),
        every_days: 0,
        on_drop: false,
        disk_fault,
    };
    let recovered = recover_latest_state(&policy, seed, None)
        .map_err(|e| CliError::usage(format!("{}: chain recovery failed: {e}", dir.display())))?;
    for skip in &recovered.skipped {
        eprintln!(
            "# chain recovery skipped {} (day {}): {}",
            skip.file,
            skip.day,
            skip.reason.label()
        );
    }
    Ok(recovered.state)
}

/// `repro lint --validate <file>`: parse a previously emitted lint
/// report and check it against the `chatlens-lint/v1` JSON schema.
/// Exits 0 when the document is well-formed and schema-valid.
fn validate_lint_json(path: &std::path::Path) -> Result<(), CliError> {
    let body = RealVfs
        .read(path)
        .map_err(|e| CliError::usage(format!("cannot read {e}")))?;
    let body = String::from_utf8(body)
        .map_err(|_| CliError::failed(format!("{} is not UTF-8", path.display())))?;
    match chatlens_lint::json::validate(&body) {
        Ok(()) => {
            eprintln!("# chatlens-lint: {} is schema-valid", path.display());
            Ok(())
        }
        Err(e) => Err(CliError::failed(format!(
            "{} fails schema validation: {e}",
            path.display()
        ))),
    }
}

/// `repro lint [--stats] [--format json] [--out <path>]`: run the
/// determinism & concurrency static-analysis pass over the workspace
/// and exit nonzero on findings. `--format json` prints the machine
/// readable `chatlens-lint/v1` report instead of diagnostics; `--out`
/// additionally writes that report to a file (useful in CI, where the
/// human diagnostics still go to stdout).
fn run_lint(stats: bool, json: bool, out: Option<&std::path::Path>) {
    // Prefer the invocation directory when it looks like the workspace
    // root (so the binary works from a checkout), falling back to the
    // compile-time manifest dir for `cargo run` from a subdirectory.
    let cwd = std::path::PathBuf::from(".");
    let root = if cwd.join("crates").is_dir() {
        cwd
    } else {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    let report = chatlens_lint::check_workspace(&root).expect("workspace sources readable");
    if json || out.is_some() {
        let body = chatlens_lint::json::report_json(&report);
        debug_assert!(chatlens_lint::json::validate(&body).is_ok());
        if let Some(path) = out {
            if let Err(e) = RealVfs.write_atomic(path, body.as_bytes()) {
                exit_with(CliError::usage(format!("cannot write report: {e}")));
            }
        }
        if json {
            println!("{body}");
        }
    }
    if !json {
        for f in &report.findings {
            println!("{f}");
        }
    }
    if stats {
        println!("\n## chatlens-lint --stats\n\n{}", report.stats_table());
    } else if !json {
        eprintln!(
            "# chatlens-lint: {} file(s), {} finding(s), {} suppressed",
            report.files_scanned,
            report.findings.len(),
            report.suppressed
        );
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// `repro checkpoint inspect <file|dir>`: decode a snapshot and print
/// its summary as JSON, or exit 2 with a diagnostic if the file is
/// corrupt, truncated, or written by a different format version. Given
/// a checkpoint directory, prints the per-day chain status and the
/// persisted recovery ledger instead.
fn checkpoint_inspect(path: &std::path::Path) -> Result<(), CliError> {
    if path.is_dir() {
        let entries = chain::verify_chain::<CampaignState>(&mut RealVfs, path)
            .map_err(|e| CliError::usage(format!("{e}")))?;
        if entries.is_empty() {
            println!("no snapshots in {}", path.display());
        }
        for e in &entries {
            match &e.outcome {
                Ok(()) => println!("{}  day {:3}  ok", e.file, e.day),
                Err(err) => println!("{}  day {:3}  INVALID: {err}", e.file, e.day),
            }
        }
        let ledger = chain::load_ledger(path);
        if ledger.entries.is_empty() {
            println!("recovery ledger: empty");
        } else {
            println!("recovery ledger ({} entries):", ledger.entries.len());
            for e in &ledger.entries {
                println!(
                    "  day {:3}  {}  {}  {}",
                    e.day,
                    e.file,
                    e.reason.label(),
                    e.action.label()
                );
            }
        }
        return Ok(());
    }
    match load_from_file::<CampaignState>(path) {
        Ok(state) => {
            println!(
                "{}",
                chatlens::workload::config_io::to_json(&state.summary())
                    .expect("summary serializes")
            );
            Ok(())
        }
        Err(e) => Err(CliError::usage(format!("{}: {e}", path.display()))),
    }
}

/// `repro checkpoint verify [--all] <file|dir>`: classify snapshots
/// without touching them. A directory (or `--all`) walks the whole
/// chain and prints a counter summary; success means at least one valid
/// resume point survives.
fn checkpoint_verify(path: &std::path::Path, all: bool) -> Result<(), CliError> {
    if all || path.is_dir() {
        let dir = if path.is_dir() {
            path
        } else {
            path.parent()
                .filter(|p| !p.as_os_str().is_empty())
                .ok_or_else(|| {
                    CliError::usage(format!("{}: not a checkpoint directory", path.display()))
                })?
        };
        let entries = chain::verify_chain::<CampaignState>(&mut RealVfs, dir)
            .map_err(|e| CliError::usage(format!("{e}")))?;
        let mut metrics = Metrics::new();
        for e in &entries {
            match &e.outcome {
                Ok(()) => {
                    metrics.add(keys::CHECKPOINT_CHAIN_VALID, 1);
                    println!("{}  day {:3}  ok", e.file, e.day);
                }
                Err(err) => {
                    metrics.add(keys::CHECKPOINT_CHAIN_INVALID, 1);
                    println!("{}  day {:3}  INVALID: {err}", e.file, e.day);
                }
            }
        }
        println!("{metrics}");
        if metrics.get(keys::CHECKPOINT_CHAIN_VALID) == 0 {
            return Err(CliError::failed(format!(
                "{}: no valid resume point in the chain",
                dir.display()
            )));
        }
        return Ok(());
    }
    match load_from_file::<CampaignState>(path) {
        Ok(state) => {
            println!("{}  day {:3}  ok", path.display(), state.day);
            Ok(())
        }
        Err(e) => Err(CliError::failed(format!("{}: {e}", path.display()))),
    }
}

/// `repro checkpoint repair <dir>`: quarantine every invalid snapshot
/// and orphaned `.tmp` file into `<dir>/quarantine/` (recorded in the
/// recovery ledger) so the remaining chain verifies clean.
fn checkpoint_repair(dir: &std::path::Path) -> Result<(), CliError> {
    if !dir.is_dir() {
        return Err(CliError::usage(format!(
            "{}: not a checkpoint directory",
            dir.display()
        )));
    }
    let report = chain::repair_chain::<CampaignState>(&mut RealVfs, dir)
        .map_err(|e| CliError::usage(format!("{e}")))?;
    for e in &report.quarantined {
        println!(
            "quarantined {}  day {:3}  {}",
            e.file,
            e.day,
            e.reason.label()
        );
    }
    let mut metrics = Metrics::new();
    metrics.add(keys::CHECKPOINT_CHAIN_VALID, u64::from(report.kept));
    metrics.add(
        keys::CHECKPOINT_QUARANTINED,
        report.quarantined.len() as u64,
    );
    println!("{metrics}");
    Ok(())
}

/// `repro audit <file>`: resume a snapshot to a finished dataset and run
/// the invariant auditor over it. Exit 0 (clean) or 1 (violations);
/// exit 2 when the snapshot itself cannot be decoded.
fn audit_snapshot(path: &std::path::Path) -> Result<(), CliError> {
    let state: CampaignState =
        load_from_file(path).map_err(|e| CliError::usage(format!("{}: {e}", path.display())))?;
    eprintln!(
        "# resuming campaign from {} (day {}) for audit...",
        path.display(),
        state.day
    );
    let ds = Campaign::resume(&mut state.world(), &state, Attachments::default())
        .and_then(Campaign::finish)
        .map_err(study_failure)?
        .into_dataset();
    let violations = audit_dataset(&ds);
    println!(
        "audited {} groups, {} timelines, {} quarantined bodies",
        fmt_count(ds.groups.len() as u64),
        fmt_count(ds.timelines.len() as u64),
        fmt_count(ds.quarantine.len() as u64)
    );
    if violations.is_empty() {
        println!("audit clean: every dataset invariant holds");
        return Ok(());
    }
    for v in &violations {
        println!("violation: {}", v.render());
    }
    Err(CliError::failed(format!(
        "{} invariant violation(s)",
        violations.len()
    )))
}

/// Write every figure's plottable series as CSV files into `dir`, each
/// through the VFS tmp+rename path so a crash never leaves a truncated
/// report file.
fn export_csv(folds: &StandardFolds, dir: &std::path::Path) -> Result<(), CheckpointError> {
    let mut vfs = RealVfs;
    vfs.create_dir_all(dir)?;
    let mut write = |name: String, body: String| vfs.write_atomic(&dir.join(name), body.as_bytes());
    let discovery = folds.discovery.output();
    let lifecycle = folds.lifecycle.output();
    let membership = folds.membership.output();
    let messages = folds.messages.output();
    for kind in PLATFORMS {
        let tag = pname(kind).to_lowercase();
        let i = kind.index();
        let d = discovery.daily[i].clone();
        write(
            format!("fig1_{tag}.csv"),
            days_csv(&["all", "unique", "new"], &[d.all, d.unique, d.new]),
        )?;
        write(
            format!("fig2_tweets_per_url_{tag}.csv"),
            to_csv(
                ("tweets_per_url", "cdf"),
                &discovery.tweets_per_url[i].series(),
            ),
        )?;
        write(
            format!("fig5_staleness_{tag}.csv"),
            to_csv(("age_days", "cdf"), &lifecycle.staleness[i].series()),
        )?;
        let r = &lifecycle.revocation[i];
        write(
            format!("fig6_lifetime_{tag}.csv"),
            to_csv(("days_accessible", "cdf"), &r.lifetime_days.series()),
        )?;
        write(
            format!("fig6_revoked_per_day_{tag}.csv"),
            to_csv(
                ("day", "revoked_share"),
                &r.revoked_per_day
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64, v))
                    .collect::<Vec<_>>(),
            ),
        )?;
        write(
            format!("fig7_members_{tag}.csv"),
            to_csv(("members", "cdf"), &membership.member_counts[i].series()),
        )?;
        write(
            format!("fig7_online_{tag}.csv"),
            to_csv(
                ("online_fraction", "cdf"),
                &membership.online_fractions[i].series(),
            ),
        )?;
        write(
            format!("fig7_growth_{tag}.csv"),
            to_csv(
                ("delta_members", "cdf"),
                &membership.growth[i].deltas.series(),
            ),
        )?;
        write(
            format!("fig9_msgs_per_group_day_{tag}.csv"),
            to_csv(
                ("msgs_per_day", "cdf"),
                &messages.msgs_per_group_day[i].series(),
            ),
        )?;
        write(
            format!("fig9_msgs_per_user_{tag}.csv"),
            to_csv(
                ("msgs_per_user", "cdf"),
                &messages.user_activity[i].volumes.series(),
            ),
        )?;
    }
    Ok(())
}

// ---- Extensions: §4 multilingual topics, §8 toxicity, Table 2 overlap ----

fn extensions(
    outcome: &mut Outcome,
    start: SimTime,
    discovery: &DiscoveryOutput,
    threads: usize,
    cmp: &mut Vec<Comparison>,
) -> Result<(), BudgetError> {
    println!("Extensions (paper's omitted-for-space / future-work analyses)");
    // Cross-platform co-shares: the Table 2 rows-vs-total gap.
    let cross = discovery.cross_platform_tweets;
    println!(
        "  {} tweets advertise groups on more than one platform — the gap \
         between Table 2's per-platform rows and its printed total",
        fmt_count(cross)
    );
    cmp.push(Comparison {
        artifact: "Ext".into(),
        quantity: "cross-platform tweets exist".into(),
        paper: 1.0,
        measured: cross as f64,
        direction: chatlens::report::Direction::AtLeast,
        tolerance: 0.0,
    });

    // One pass over the tweet log builds every corpus below.
    let vocab = Vocabulary::build();
    let langs = [
        (PlatformKind::WhatsApp, Lang::Es, "COVID-19"),
        (PlatformKind::Telegram, Lang::Es, "Politics (es)"),
        (PlatformKind::WhatsApp, Lang::Pt, "Politics (pt)"),
    ];
    let mut corpora: [Vec<Vec<u16>>; 3] = Default::default();
    let mut english = EnglishTweets::default();
    outcome.tweet_pass(|tweets| {
        for (docs, &(kind, lang, _)) in corpora.iter_mut().zip(&langs) {
            docs.extend(topics::corpus_for_lang(tweets, kind, lang, &vocab));
        }
        collect_english(tweets, &mut english);
    })?;

    // Multilingual LDA (§4's closing remark): COVID-19 in Spanish,
    // politics in Spanish/Portuguese.
    for ((kind, lang, want), docs) in langs.into_iter().zip(&corpora) {
        let Some(analysis) = topics::analyze_topics_lang(
            kind,
            lang,
            docs,
            &vocab,
            // K above the reference-set size gives LDA room to split a
            // viral group's flood off from the thematic topics.
            chatlens::analysis::LdaConfig {
                k: 8,
                iterations: 60,
                seed: 13,
                threads,
                ..chatlens::analysis::LdaConfig::default()
            },
        ) else {
            continue;
        };
        let found = analysis.topics.iter().any(|t| t.label == want);
        let shares = topics::share_by_label(&analysis);
        println!(
            "  {} {} tweets ({} docs): {}",
            pname(kind),
            lang,
            analysis.num_docs,
            shares
                .iter()
                .map(|(l, s)| format!("{l} {}", fmt_pct(*s)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        cmp.push(Comparison {
            artifact: "Ext".into(),
            quantity: format!("{kind} {lang}: \"{want}\" topic recovered"),
            paper: 1.0,
            measured: f64::from(found),
            direction: chatlens::report::Direction::AtLeast,
            tolerance: 0.0,
        });
    }

    // §8 future work: toxicity via the Perspective-style analyzer.
    let reports = score_tweets(&english, start, &vocab, 50.0);
    for r in &reports {
        println!(
            "  toxicity {:<8} scored {:<7} mean {:.3}  likely-toxic {}",
            pname(r.platform),
            fmt_count(r.scored),
            r.mean,
            fmt_pct(r.toxic_share)
        );
    }
    let share = |k: PlatformKind| {
        reports
            .iter()
            .find(|r| r.platform == k)
            .map(|r| r.toxic_share)
            .unwrap_or(0.0)
    };
    cmp.push(Comparison {
        artifact: "Ext".into(),
        quantity: "toxicity ordering TG > DC > WA".into(),
        paper: share(PlatformKind::Discord).max(share(PlatformKind::WhatsApp)),
        measured: share(PlatformKind::Telegram),
        direction: chatlens::report::Direction::AtLeast,
        tolerance: 0.0,
    });
    println!();
    Ok(())
}

// ---- Table 1 -------------------------------------------------------------

fn table1() {
    let mut t = Table::new("Table 1: Platform characteristics").header([
        "Characteristic",
        "WhatsApp",
        "Telegram",
        "Discord",
    ]);
    let specs = PlatformSpec::all();
    let row = |label: &str, f: &dyn Fn(&PlatformSpec) -> String| -> Vec<String> {
        let mut cells = vec![label.to_string()];
        cells.extend(specs.iter().map(f));
        cells
    };
    t.row(row("Initial release", &|s| s.release.to_string()));
    t.row(row("User base", &|s| fmt_count(s.user_base)));
    t.row(row("Registration", &|s| s.registration.label().to_string()));
    t.row(row("Public chats", &|s| s.public_chat_options.to_string()));
    t.row(row("Max members", &|s| fmt_count(u64::from(s.max_members))));
    t.row(row("Data API", &|s| {
        if s.has_data_api { "Yes" } else { "No" }.to_string()
    }));
    t.row(row("Forward limit", &|s| match s.forward_limit {
        Some(n) => format!("up to {n}"),
        None => "-".to_string(),
    }));
    t.row(row("E2E encryption", &|s| s.e2ee.label().to_string()));
    t.row(row("Invite TTL (days)", &|s| match s.invite_ttl_days {
        Some(d) => d.to_string(),
        None => "-".to_string(),
    }));
    println!("{}", t.render());
}

// ---- Table 2 -------------------------------------------------------------

fn table2(summary: &CampaignSummary, scale: f64, cmp: &mut Vec<Comparison>) {
    let paper_rows: [(PlatformKind, [f64; 6]); 3] = [
        (
            PlatformKind::WhatsApp,
            [239_807.0, 88_119.0, 45_718.0, 416.0, 476_059.0, 20_906.0],
        ),
        (
            PlatformKind::Telegram,
            [
                1_224_540.0,
                398_816.0,
                78_105.0,
                100.0,
                3_148_826.0,
                688_343.0,
            ],
        ),
        (
            PlatformKind::Discord,
            [
                779_685.0,
                340_702.0,
                227_712.0,
                100.0,
                4_630_184.0,
                52_463.0,
            ],
        ),
    ];
    let mut t = Table::new(format!("Table 2: Dataset overview (scale {scale})")).header([
        "Platform",
        "#Tweets",
        "#TwUsers",
        "#GroupURLs",
        "#Joined",
        "#Messages",
        "#Users",
    ]);
    for (kind, paper) in paper_rows {
        let s = summary.platforms[kind.index()];
        t.row([
            pname(kind).to_string(),
            fmt_count(s.tweets),
            fmt_count(s.twitter_users),
            fmt_count(s.group_urls),
            fmt_count(s.joined_groups),
            fmt_count(s.messages),
            fmt_count(s.platform_users),
        ]);
        // Linear-scaled quantities compare against paper×scale; join
        // budgets scale as sqrt(scale) and message/member totals follow
        // them.
        let budget_scale = scale.powf(0.25);
        // Tweet totals are dominated by a heavy share-count tail (14 of
        // the paper's Telegram URLs account for >100K tweets), so small
        // scales fluctuate hard; the tolerance reflects that.
        cmp.push(Comparison::near(
            "Table 2",
            format!("{kind} tweets"),
            paper[0] * scale,
            s.tweets as f64,
            if kind == PlatformKind::Telegram {
                0.6
            } else {
                0.45
            },
        ));
        cmp.push(Comparison::near(
            "Table 2",
            format!("{kind} group URLs"),
            paper[2] * scale,
            s.group_urls as f64,
            0.15,
        ));
        cmp.push(Comparison::near(
            "Table 2",
            format!("{kind} joined groups"),
            paper[3] * budget_scale,
            s.joined_groups as f64,
            0.15,
        ));
        // Joined-group message totals are dominated by whether the join
        // sample caught one of the few giant rooms, so this is the widest
        // band in the suite.
        cmp.push(Comparison::near(
            "Table 2",
            format!("{kind} messages"),
            paper[4] * budget_scale,
            s.messages as f64,
            0.85,
        ));
    }
    let tot = summary.totals;
    t.row([
        "Total".to_string(),
        fmt_count(tot.tweets),
        fmt_count(tot.twitter_users),
        fmt_count(tot.group_urls),
        fmt_count(tot.joined_groups),
        fmt_count(tot.messages),
        fmt_count(tot.platform_users),
    ]);
    println!("{}", t.render());
}

// ---- Fig 1 ---------------------------------------------------------------

fn fig1(discovery: &DiscoveryOutput, scale: f64, cmp: &mut Vec<Comparison>) {
    println!("Fig 1: group URLs discovered per day (collection-day axis)");
    // Paper medians: all (TG 33,864 / DC 19,970), unique (DC 8,090 /
    // TG 4,661), new (WA 1,111 / TG 1,817 / DC 5,664).
    let paper_new = [1_111.0, 1_817.0, 5_664.0];
    let daily = &discovery.daily;
    for kind in PLATFORMS {
        let d = &daily[kind.index()];
        println!(
            "  {:<8} all/day    {}",
            pname(kind),
            sparkline(&d.all.iter().map(|&x| x as f64).collect::<Vec<_>>())
        );
        println!(
            "  {:<8} unique/day {}",
            "",
            sparkline(&d.unique.iter().map(|&x| x as f64).collect::<Vec<_>>())
        );
        println!(
            "  {:<8} new/day    {}",
            "",
            sparkline(&d.new.iter().map(|&x| x as f64).collect::<Vec<_>>())
        );
        println!(
            "  {:<8} medians: all {:.0}, unique {:.0}, new {:.0}",
            "",
            d.median_all(),
            d.median_unique(),
            d.median_new()
        );
        cmp.push(Comparison::near(
            "Fig 1",
            format!("{kind} median new URLs/day"),
            paper_new[kind.index()] * scale,
            d.median_new(),
            0.35,
        ));
    }
    let [wa, tg, dc] = daily;
    cmp.push(Comparison {
        artifact: "Fig 1".into(),
        quantity: "Telegram has most URL mentions/day".into(),
        paper: dc.median_all(),
        measured: tg.median_all(),
        direction: chatlens::report::Direction::AtLeast,
        tolerance: 0.0,
    });
    cmp.push(Comparison {
        artifact: "Fig 1".into(),
        quantity: "WhatsApp discovers fewest new URLs/day".into(),
        paper: wa.median_new(),
        measured: tg.median_new().min(dc.median_new()),
        direction: chatlens::report::Direction::AtLeast,
        tolerance: 0.0,
    });
    println!();
}

// ---- Fig 2 ---------------------------------------------------------------

fn fig2(discovery: &DiscoveryOutput, cmp: &mut Vec<Comparison>) {
    println!("Fig 2: tweets per group URL");
    let per_url = &discovery.tweets_per_url;
    let [wa, tg, dc] = per_url;
    println!(
        "{}",
        chatlens::report::plot::plot_cdfs(
            "  Fig 2: tweets per URL (CDF, log x)",
            &[("WhatsApp", wa), ("Telegram", tg), ("Discord", dc)],
            64,
            10,
            true,
        )
    );
    let paper_once = [0.50, 0.50, 0.62];
    for kind in PLATFORMS {
        let e = &per_url[kind.index()];
        println!("  {}", cdf_summary(pname(kind), e).trim_end());
        let once = e.fraction_at_most(1.0);
        println!("  {:<8} shared once: {}", "", fmt_pct(once));
        cmp.push(Comparison::near(
            "Fig 2",
            format!("{kind} URLs shared once"),
            paper_once[kind.index()],
            once,
            0.12,
        ));
    }
    println!();
}

// ---- Fig 3 ---------------------------------------------------------------

fn fig3(content: &ContentOutput, cmp: &mut Vec<Comparison>) {
    let mut t = Table::new("Fig 3: tweet features").header([
        "Population",
        ">=1 hashtag",
        ">=2 hashtags",
        ">=1 mention",
        ">=2 mentions",
        "retweets",
    ]);
    // Paper: hashtags 13/24/14/13 (>1: 4/10/7/5), mentions 73/84/68/76
    // (>1: 20/14/15/12), RT 33/76/50.
    let paper = [(0.13, 0.73, 0.33), (0.24, 0.84, 0.76), (0.14, 0.68, 0.50)];
    let paper_multi = [(0.04, 0.20), (0.10, 0.14), (0.07, 0.15)];
    for kind in PLATFORMS {
        let f = &content.features[kind.index()];
        t.row([
            pname(kind).to_string(),
            fmt_pct(f.with_hashtag),
            fmt_pct(f.with_multi_hashtag),
            fmt_pct(f.with_mention),
            fmt_pct(f.with_multi_mention),
            fmt_pct(f.retweets),
        ]);
        let (mh, mm) = paper_multi[kind.index()];
        cmp.push(Comparison::near(
            "Fig 3",
            format!("{kind} multi-hashtag rate"),
            mh,
            f.with_multi_hashtag,
            0.3,
        ));
        cmp.push(Comparison::near(
            "Fig 3",
            format!("{kind} multi-mention rate"),
            mm,
            f.with_multi_mention,
            0.3,
        ));
        let (ph, pm, pr) = paper[kind.index()];
        cmp.push(Comparison::near(
            "Fig 3",
            format!("{kind} hashtag rate"),
            ph,
            f.with_hashtag,
            0.2,
        ));
        cmp.push(Comparison::near(
            "Fig 3",
            format!("{kind} mention rate"),
            pm,
            f.with_mention,
            0.1,
        ));
        cmp.push(Comparison::near(
            "Fig 3",
            format!("{kind} retweet rate"),
            pr,
            f.retweets,
            0.2,
        ));
    }
    let c = &content.control;
    t.row([
        "control".to_string(),
        fmt_pct(c.with_hashtag),
        fmt_pct(c.with_multi_hashtag),
        fmt_pct(c.with_mention),
        fmt_pct(c.with_multi_mention),
        fmt_pct(c.retweets),
    ]);
    cmp.push(Comparison::near(
        "Fig 3",
        "control hashtag rate",
        0.13,
        c.with_hashtag,
        0.2,
    ));
    println!("{}", t.render());
}

// ---- Fig 4 ---------------------------------------------------------------

fn fig4(content: &ContentOutput, cmp: &mut Vec<Comparison>) {
    let mut t = Table::new("Fig 4: tweet languages").header(["Platform", "top languages (share)"]);
    let paper_en = [0.26, 0.35, 0.47];
    for kind in PLATFORMS {
        let mut shares = content.languages[kind.index()].clone();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let top: Vec<String> = shares
            .iter()
            .take(4)
            .map(|(l, s)| format!("{l} {}", fmt_pct(*s)))
            .collect();
        t.row([pname(kind).to_string(), top.join(", ")]);
        cmp.push(Comparison::near(
            "Fig 4",
            format!("{kind} English share"),
            paper_en[kind.index()],
            content.language_share(kind, Lang::En),
            0.25,
        ));
    }
    cmp.push(Comparison::near(
        "Fig 4",
        "Discord Japanese share",
        0.27,
        content.language_share(PlatformKind::Discord, Lang::Ja),
        0.3,
    ));
    cmp.push(Comparison::near(
        "Fig 4",
        "Telegram Arabic share",
        0.15,
        content.language_share(PlatformKind::Telegram, Lang::Ar),
        0.3,
    ));
    println!("{}", t.render());
}

// ---- Table 3 -------------------------------------------------------------

fn table3(corpora: &[Vec<Vec<u16>>; 3], threads: usize, cmp: &mut Vec<Comparison>) {
    println!("Table 3: LDA topics over English tweets (10 per platform)");
    let vocab = Vocabulary::build();
    let mut discord_advertising = 0.0;
    for kind in PLATFORMS {
        let analysis = topics::analyze_corpus(
            kind,
            &corpora[kind.index()],
            &vocab,
            LdaConfig {
                k: 10,
                iterations: 60,
                seed: 3,
                threads,
                ..LdaConfig::default()
            },
        );
        println!("  {} ({} English tweets)", pname(kind), analysis.num_docs);
        let mut sorted = analysis.topics.clone();
        sorted.sort_by(|a, b| b.tweet_share.partial_cmp(&a.tweet_share).expect("finite"));
        for topic in &sorted {
            println!(
                "    {:<32} {:>6}  match {:.2}  [{}]",
                topic.label,
                fmt_pct(topic.tweet_share),
                topic.match_score,
                topic.top_terms[..5.min(topic.top_terms.len())].join(", ")
            );
        }
        let matched_well = analysis
            .topics
            .iter()
            .filter(|t| t.match_score >= 0.5)
            .count();
        cmp.push(Comparison {
            artifact: "Table 3".into(),
            quantity: format!("{kind} topics matching reference vocab (of 10)"),
            paper: 8.0,
            measured: matched_well as f64,
            direction: chatlens::report::Direction::AtLeast,
            tolerance: 0.0,
        });
        // Signature label shares: WhatsApp's advertising topic is 30% of
        // Table 3, Telegram's sex topics 23%.
        let shares = topics::share_by_label(&analysis);
        let share_of = |label: &str| {
            shares
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| *s)
                .unwrap_or(0.0)
        };
        match kind {
            PlatformKind::WhatsApp => cmp.push(Comparison::near(
                "Table 3",
                "WhatsApp advertising-label share",
                0.30,
                share_of("WhatsApp group advertisement"),
                0.5,
            )),
            PlatformKind::Telegram => cmp.push(Comparison::near(
                "Table 3",
                "Telegram sex-label share",
                0.23,
                share_of("Sex"),
                0.6,
            )),
            PlatformKind::Discord => discord_advertising = share_of("Advertising Discord groups"),
        }
    }
    // Signature platform-specific topics must be recovered.
    cmp.push(Comparison::near(
        "Table 3",
        "Discord advertising-label share",
        0.47,
        discord_advertising,
        0.5,
    ));
    println!();
}

// ---- Fig 5 ---------------------------------------------------------------

fn fig5(lifecycle: &LifecycleOutput, cmp: &mut Vec<Comparison>) {
    println!("Fig 5: staleness (group age in days at first share)");
    let staleness = &lifecycle.staleness;
    let [wa, tg, dc] = staleness;
    println!(
        "{}",
        chatlens::report::plot::plot_cdfs(
            "  Fig 5: group age at first share, days (CDF, log x)",
            &[("WhatsApp", wa), ("Telegram", tg), ("Discord", dc)],
            64,
            10,
            true,
        )
    );
    let paper_same_day = [0.76, 0.28, 0.27];
    let paper_over_year = [0.10, 0.29, 0.256];
    for kind in PLATFORMS {
        let e = &staleness[kind.index()];
        let same_day = e.fraction_at_most(0.0);
        let over_year = e.fraction_above(365.0);
        println!(
            "  {:<8} n={:<6} same-day {}  >1 year {}  max {:.0}d",
            pname(kind),
            e.len(),
            fmt_pct(same_day),
            fmt_pct(over_year),
            e.max().unwrap_or(0.0)
        );
        // WhatsApp/Telegram samples are small (joined groups only), so
        // tolerances widen there.
        let tol = if kind == PlatformKind::Discord {
            0.2
        } else {
            0.5
        };
        cmp.push(Comparison::near(
            "Fig 5",
            format!("{kind} same-day share"),
            paper_same_day[kind.index()],
            same_day,
            tol,
        ));
        cmp.push(Comparison::near(
            "Fig 5",
            format!("{kind} >1-year share"),
            paper_over_year[kind.index()],
            over_year,
            0.6,
        ));
    }
    println!();
}

// ---- Fig 6 ---------------------------------------------------------------

fn fig6(lifecycle: &LifecycleOutput, cmp: &mut Vec<Comparison>) {
    println!("Fig 6: URL lifetime and revocation");
    let paper_revoked = [0.273, 0.204, 0.684];
    let paper_doa = [0.064, 0.163, 0.674];
    let revocations = &lifecycle.revocation;
    for kind in PLATFORMS {
        let s = &revocations[kind.index()];
        println!(
            "  {:<8} observed {:<6} revoked {}  dead-on-arrival {}",
            pname(kind),
            s.observed,
            fmt_pct(s.revoked_fraction),
            fmt_pct(s.dead_on_arrival_fraction),
        );
        println!(
            "  {:<8} lifetime: {}",
            "",
            cdf_summary("days accessible", &s.lifetime_days).trim_end()
        );
        cmp.push(Comparison::near(
            "Fig 6",
            format!("{kind} revoked share"),
            paper_revoked[kind.index()],
            s.revoked_fraction,
            0.25,
        ));
        cmp.push(Comparison::near(
            "Fig 6",
            format!("{kind} dead-on-arrival share"),
            paper_doa[kind.index()],
            s.dead_on_arrival_fraction,
            0.35,
        ));
    }
    println!();
}

// ---- Fig 7 ---------------------------------------------------------------

fn fig7(membership: &MembershipOutput, cmp: &mut Vec<Comparison>) {
    println!("Fig 7: members, online share, growth");
    let [wa_sizes, tg_sizes, dc_sizes] = &membership.member_counts;
    println!(
        "{}",
        chatlens::report::plot::plot_cdfs(
            "  Fig 7a: members per group (CDF, log x)",
            &[
                ("WhatsApp", wa_sizes),
                ("Telegram", tg_sizes),
                ("Discord", dc_sizes),
            ],
            64,
            12,
            true,
        )
    );
    let paper_grew = [0.51, 0.53, 0.54];
    let paper_shrank = [0.38, 0.24, 0.19];
    for kind in PLATFORMS {
        let i = kind.index();
        println!(
            "  {}",
            cdf_summary(pname(kind), &membership.member_counts[i]).trim_end()
        );
        let online = &membership.online_fractions[i];
        if !online.is_empty() && online.max().unwrap_or(0.0) > 0.0 {
            println!(
                "  {:<8} online>50%: {}",
                "",
                fmt_pct(online.fraction_above(0.5))
            );
        }
        let g = &membership.growth[i];
        println!(
            "  {:<8} grew {} shrank {} flat {}  max |Δ| {:.0}",
            "",
            fmt_pct(g.grew),
            fmt_pct(g.shrank),
            fmt_pct(g.flat),
            g.deltas
                .max()
                .unwrap_or(0.0)
                .abs()
                .max(g.deltas.min().unwrap_or(0.0).abs())
        );
        cmp.push(Comparison::near(
            "Fig 7",
            format!("{kind} grew share"),
            paper_grew[kind.index()],
            g.grew,
            0.2,
        ));
        cmp.push(Comparison::near(
            "Fig 7",
            format!("{kind} shrank share"),
            paper_shrank[kind.index()],
            g.shrank,
            0.35,
        ));
    }
    cmp.push(Comparison {
        artifact: "Fig 7".into(),
        quantity: "WhatsApp max members <= 257".into(),
        paper: 257.0,
        measured: wa_sizes.max().unwrap_or(0.0),
        direction: chatlens::report::Direction::AtMost,
        tolerance: 0.0,
    });
    let dc_small = dc_sizes.fraction_at_most(100.0);
    let tg_small = tg_sizes.fraction_at_most(100.0);
    cmp.push(Comparison::near(
        "Fig 7",
        "Discord <100 members",
        0.60,
        dc_small,
        0.25,
    ));
    cmp.push(Comparison::near(
        "Fig 7",
        "Telegram <100 members",
        0.40,
        tg_small,
        0.3,
    ));
    println!();
}

// ---- Fig 8 ---------------------------------------------------------------

fn fig8(messages: &MessagesOutput, cmp: &mut Vec<Comparison>) {
    let mut t = Table::new("Fig 8: message types").header([
        "Platform", "text", "image", "video", "audio", "sticker", "doc", "contact", "loc", "other",
    ]);
    let paper_text = [0.78, 0.85, 0.96];
    for kind in PLATFORMS {
        let shares = &messages.kind_shares[kind.index()];
        let mut row = vec![pname(kind).to_string()];
        row.extend(shares.iter().map(|(_, s)| fmt_pct(*s)));
        t.row(row);
        cmp.push(Comparison::near(
            "Fig 8",
            format!("{kind} text share"),
            paper_text[kind.index()],
            shares[0].1,
            0.08,
        ));
    }
    cmp.push(Comparison::near(
        "Fig 8",
        "WhatsApp sticker share",
        0.10,
        messages.kind_shares[PlatformKind::WhatsApp.index()]
            .iter()
            .find(|(k, _)| k.label() == "sticker")
            .map(|(_, s)| *s)
            .unwrap_or(0.0),
        0.35,
    ));
    cmp.push(Comparison::near(
        "Fig 8",
        "WhatsApp multimedia share",
        0.21,
        messages.multimedia_share(PlatformKind::WhatsApp),
        0.3,
    ));
    println!("{}", t.render());
}

// ---- Fig 9 ---------------------------------------------------------------

fn fig9(messages: &MessagesOutput, cmp: &mut Vec<Comparison>) {
    println!("Fig 9: message volumes");
    let per_group_day = &messages.msgs_per_group_day;
    let activity = &messages.user_activity;
    let [wa, tg, dc] = per_group_day;
    println!(
        "{}",
        chatlens::report::plot::plot_cdfs(
            "  Fig 9a: mean messages per group per day (CDF, log x)",
            &[("WhatsApp", wa), ("Telegram", tg), ("Discord", dc)],
            64,
            10,
            true,
        )
    );
    let paper_busy = [0.60, 0.25, 0.60]; // share of groups >10 msgs/day
    let paper_low = [0.658, 0.829, 0.701]; // senders with <=10 messages
    let paper_top1 = [0.31, 0.60, 0.63];
    for kind in PLATFORMS {
        let per_day = &per_group_day[kind.index()];
        let ua = &activity[kind.index()];
        println!(
            "  {:<8} groups>10 msg/day {}  senders {}  <=10 msgs {}  top1% {}",
            pname(kind),
            fmt_pct(per_day.fraction_above(10.0)),
            fmt_count(ua.senders),
            fmt_pct(ua.low_volume_share),
            fmt_pct(ua.top1_share),
        );
        // Per-group activity is read off a ~50-group join sample at the
        // default scale; the band is wide accordingly.
        cmp.push(Comparison::near(
            "Fig 9",
            format!("{kind} groups >10 msgs/day"),
            paper_busy[kind.index()],
            per_day.fraction_above(10.0),
            0.5,
        ));
        cmp.push(Comparison::near(
            "Fig 9",
            format!("{kind} low-volume sender share"),
            paper_low[kind.index()],
            ua.low_volume_share,
            0.25,
        ));
        cmp.push(Comparison::near(
            "Fig 9",
            format!("{kind} top-1% sender share"),
            paper_top1[kind.index()],
            ua.top1_share,
            0.6,
        ));
    }
    println!();
}

// ---- Table 4 -------------------------------------------------------------

fn table4(pii: &PiiOutput, cmp: &mut Vec<Comparison>) {
    let mut t = Table::new("Table 4: PII exposure").header([
        "Platform",
        "users observed",
        "phones",
        "phone rate",
        "linked users",
        "link rate",
    ]);
    let rows = &pii.exposure;
    for row in rows {
        t.row([
            pname(row.platform).to_string(),
            fmt_count(row.users_observed),
            row.phones.map(fmt_count).unwrap_or_else(|| "-".into()),
            row.phone_rate.map(fmt_pct).unwrap_or_else(|| "-".into()),
            row.linked_users
                .map(fmt_count)
                .unwrap_or_else(|| "-".into()),
            row.link_rate.map(fmt_pct).unwrap_or_else(|| "-".into()),
        ]);
    }
    let [wa, tg, dc] = rows;
    cmp.push(Comparison::near(
        "Table 4",
        "WhatsApp phone rate (all observed users)",
        1.0,
        wa.phone_rate.unwrap_or(0.0),
        0.001,
    ));
    cmp.push(Comparison::near(
        "Table 4",
        "Telegram phone opt-in rate",
        0.0068,
        tg.phone_rate.unwrap_or(0.0),
        0.8,
    ));
    cmp.push(Comparison::near(
        "Table 4",
        "Discord linked-account rate",
        0.30,
        dc.link_rate.unwrap_or(0.0),
        0.2,
    ));
    println!("{}", t.render());
}

// ---- Table 5 -------------------------------------------------------------

fn table5(pii: &PiiOutput, cmp: &mut Vec<Comparison>) {
    let mut t = Table::new("Table 5: Discord linked platforms").header([
        "Platform",
        "#Users",
        "share of observed",
    ]);
    let rows = &pii.linked_accounts;
    for (label, n, share) in rows {
        t.row([label.clone(), fmt_count(*n), fmt_pct(*share)]);
    }
    println!("{}", t.render());
    let paper: [(&str, f64); 5] = [
        ("Twitch", 0.204),
        ("Steam", 0.122),
        ("Twitter", 0.089),
        ("Spotify", 0.080),
        ("Facebook", 0.005),
    ];
    for (label, rate) in paper {
        let measured = rows
            .iter()
            .find(|(l, _, _)| l == label)
            .map(|(_, _, s)| *s)
            .unwrap_or(0.0);
        cmp.push(Comparison::near(
            "Table 5",
            format!("Discord {label} link rate"),
            rate,
            measured,
            0.45,
        ));
    }
}

// ---- §5 extras -----------------------------------------------------------

fn extras(summary: &CampaignSummary, folds: &StandardFolds, cmp: &mut Vec<Comparison>) {
    println!("§5 extras: creators, countries, active members");
    let membership = folds.membership.output();
    for kind in PLATFORMS {
        let c = &membership.creators[kind.index()];
        println!(
            "  {:<8} creators {:<7} groups {:<7} single-group {}  max {}",
            pname(kind),
            fmt_count(c.creators),
            fmt_count(c.groups),
            fmt_pct(c.single_group_share),
            c.max_groups
        );
    }
    let wa = &membership.creators[PlatformKind::WhatsApp.index()];
    cmp.push(Comparison::near(
        "§5",
        "WhatsApp single-group creator share",
        0.927,
        wa.single_group_share,
        0.05,
    ));
    cmp.push(Comparison::near(
        "§5",
        "WhatsApp groups per creator",
        45_718.0 / 34_078.0,
        wa.groups as f64 / wa.creators.max(1) as f64,
        0.15,
    ));
    let countries = &membership.whatsapp_countries;
    let top: Vec<String> = countries
        .iter()
        .take(7)
        .map(|(c, n)| format!("{c} {}", fmt_count(*n)))
        .collect();
    println!("  WhatsApp creator countries: {}", top.join(", "));
    cmp.push(Comparison {
        artifact: "§5".into(),
        quantity: "Brazil leads WhatsApp creator countries".into(),
        paper: 1.0,
        measured: f64::from(countries.first().map(|(c, _)| c == "BR").unwrap_or(false)),
        direction: chatlens::report::Direction::AtLeast,
        tolerance: 0.0,
    });
    // Active-member shares are dominated by whether the join sample
    // caught one of the giant rooms, so the robust check is the paper's
    // qualitative finding: Telegram's share is far below the others.
    let shares = folds.messages.output().active_member_share;
    for (kind, share) in PLATFORMS.iter().zip(&shares) {
        println!(
            "  {:<8} active members (senders/members): {}",
            pname(*kind),
            fmt_pct(*share)
        );
    }
    cmp.push(Comparison {
        artifact: "§5".into(),
        quantity: "Telegram has the lowest active-member share".into(),
        paper: shares[1],
        measured: shares[0].min(shares[2]),
        direction: chatlens::report::Direction::AtLeast,
        tolerance: 0.0,
    });
    cmp.push(Comparison {
        artifact: "§5".into(),
        quantity: "Telegram active-member share below 45%".into(),
        paper: 0.45,
        measured: shares[1],
        direction: chatlens::report::Direction::AtMost,
        tolerance: 0.0,
    });
    let accounts = summary.accounts_used;
    println!(
        "  accounts used: WA {}, TG {}, DC {}; Discord bot-join rejected: {}",
        accounts[0], accounts[1], accounts[2], summary.bot_join_rejected
    );
    let x = summary.extraction;
    println!(
        "  extraction: {} URLs seen, {} invites, {} rejected; {} failed requests",
        fmt_count(x.urls_seen),
        fmt_count(x.invites),
        fmt_count(x.rejected),
        summary.failed_requests
    );
    println!();
}
