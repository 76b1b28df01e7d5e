//! End-to-end and per-layer benchmark of the chatlens pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload calm-paper --seed 1 --seconds 32 --trace 0
//! ```
//!
//! With `--trace 0` the run repeats the untraced end-to-end iteration
//! (see `workload.rs`) for `--seconds` after one warm-up iteration and
//! reports medians of machine-speed-calibrated times (see `pace.rs`);
//! with `--trace 1` it runs the traced per-layer iteration (see
//! `layers.rs`) instead and writes its spans under `benchmark/traces/`.
//! The last line of stdout is the JSON result.
//! `--screen` and `--record` build the seed tables in `seeds.tsv` (see
//! NOTES.md "Seeds"). NOTES.md explains the workloads and every metric.

mod alloc;
mod layers;
mod pace;
mod record;
mod trace;
mod workload;

use pace::Timed;
use record::{median, Metric, Outcome};
use std::time::Instant;
use workload::{Bench, Res, Sample, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: chatlens-benchmark --workload <calm-paper|hostile-bursty|durable-budget> \
                     --seed <n> --seconds <s> --trace <0|1>\n       chatlens-benchmark --screen <calm|hostile> <from> <to>\n       chatlens-benchmark --record <calm|hostile> <campaign seed>...";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let value = |flag: &str| -> Res<&str> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    if let [mode @ ("--screen" | "--record"), table, rest @ ..] = words.as_slice() {
        let workload = match *table {
            "calm" => Workload::CalmPaper,
            "hostile" => Workload::HostileBursty,
            _ => fail(USAGE),
        };
        let seeds: Vec<u64> = rest
            .iter()
            .map(|s| s.parse().unwrap_or_else(|_| fail(USAGE)))
            .collect();
        return match (*mode, seeds.as_slice()) {
            ("--screen", &[from, to]) => screen(workload, from, to),
            ("--record", seeds) => record_entries(workload, seeds),
            _ => fail(USAGE),
        };
    }
    let args = parse_args(&args).unwrap_or_else(|e| fail(&format!("{e}\n{USAGE}")));
    let tag = format!(
        "{}-{}",
        args.workload.name(),
        if args.trace { "trace" } else { "e2e" }
    );
    let bench = Bench::new(args.workload, args.seed, &tag).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "{} seed {}: campaign seed {}",
        args.workload.name(),
        args.seed,
        bench.campaign_seed
    );
    let outcome = if args.trace {
        let (metrics, attempted, failed) = layers::run(&bench, args.seconds);
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    } else {
        end_to_end(&bench, args.seconds)
    };
    drop(bench);
    println!("{}", outcome.to_json());
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// One warm-up iteration, then untraced iterations for `seconds` (at
/// least two, for the allocation self-check). An iteration that would
/// end past the window is not started.
fn end_to_end(bench: &Bench, seconds: f64) -> Outcome {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples: Vec<Sample> = Vec::new();
    let mut measuring: Option<Instant> = None;
    loop {
        attempted += 1;
        let t = Instant::now();
        let result = std::panic::catch_unwind(|| bench.iterate());
        let took = t.elapsed().as_secs_f64();
        match result {
            Ok(Ok(sample)) => {
                let show = |t: Timed| format!("{:.3}/{:.6}", t.wall_s, t.reference_s);
                eprintln!(
                    "iteration {attempted}: setup {} campaign {} 2t {} report {} resume {} ({took:.1}s wall)",
                    sample.setup_s.iter().map(|t| show(*t)).collect::<Vec<_>>().join(","),
                    show(sample.campaign_s),
                    sample.campaign_2t_s.iter().map(|t| show(*t)).collect::<Vec<_>>().join(","),
                    show(sample.report_s),
                    show(sample.resume_s),
                );
                if measuring.is_some() {
                    samples.push(sample);
                }
            }
            Ok(Err(e)) => {
                failed += 1;
                eprintln!("iteration {attempted} failed: {e}");
            }
            Err(_) => {
                failed += 1;
                eprintln!("iteration {attempted} panicked");
            }
        }
        let since = measuring
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64();
        if since + took > seconds && (samples.len() >= 2 || failed >= 3) {
            break;
        }
    }
    // Self-check: at one thread the allocation counts are a pure function
    // of the inputs, so two repetitions must agree exactly.
    if let [a, b, ..] = samples.as_slice() {
        if a.allocs != b.allocs {
            failed += 1;
            eprintln!(
                "allocation counts differ between repetitions: {:?} vs {:?}",
                a.allocs, b.allocs
            );
        }
    }
    Outcome {
        correct: failed == 0 && !samples.is_empty(),
        attempted,
        failed,
        metrics: if samples.is_empty() {
            Vec::new()
        } else {
            summarize(&samples)
        },
    }
}

/// The run's figures by `BENCHMARK.json` name. Each time is the median
/// over the measured iterations of the phase's calibrated time
/// (`pace.rs`); `setup_s` and `campaign_2t_s`, timed more than once per
/// iteration, are medians over every timing in the run. The byte figures
/// repeat exactly between iterations.
fn summarize(samples: &[Sample]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let calibrated = |ts: &[Timed]| ts.iter().map(|t| t.calibrated_s()).collect::<Vec<_>>();
    let every = |f: &dyn Fn(&Sample) -> &[Timed]| {
        median(
            &samples
                .iter()
                .flat_map(|s| calibrated(f(s)))
                .collect::<Vec<_>>(),
        )
    };
    let metric = |name: &str, unit: &str, value: f64| Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    };
    vec![
        metric("setup_s", "s", every(&|s| &s.setup_s)),
        metric("campaign_s", "s", med(&|s| s.campaign_s.calibrated_s())),
        metric("campaign_2t_s", "s", every(&|s| &s.campaign_2t_s)),
        metric("report_s", "s", med(&|s| s.report_s.calibrated_s())),
        metric(
            "total_s",
            "s",
            med(&|s| {
                median(&calibrated(&s.setup_s))
                    + s.campaign_s.calibrated_s()
                    + s.report_s.calibrated_s()
            }),
        ),
        metric(
            "heap_peak_mb",
            "MB",
            med(&|s| s.heap_peak_bytes as f64 / 1e6),
        ),
        metric("resume_s", "s", med(&|s| s.resume_s.calibrated_s())),
        metric("snapshot_mb", "MB", med(&|s| s.snapshot_bytes as f64 / 1e6)),
    ]
}

/// `--screen <table> <from> <to>`: for each candidate campaign seed,
/// print `seed campaign_allocs heap_peak_bytes report_allocs` of a plain
/// 1-thread run (campaign, then the campaign report and every analysis
/// fragment, as `report_s` times them) on the workload's world.
fn screen(workload: Workload, from: u64, to: u64) {
    let pool = chatlens_simnet::par::Pool::new(1);
    for seed in from..to {
        let mut eco = chatlens_workload::Ecosystem::build(workload.scenario());
        let (ds, campaign) = alloc::measure(|| {
            chatlens_core::study::run_study_on(&mut eco, workload.campaign(1, seed))
        });
        let (_, report) = alloc::measure(|| {
            (
                ds.campaign_report(),
                chatlens_analysis::batch_fragments(&ds, &pool),
            )
        });
        println!(
            "{seed} {} {} {}",
            campaign.allocs,
            campaign.peak_bytes.max(report.peak_bytes),
            report.allocs
        );
    }
}

/// `--record <table> <seed>...`: print the seed-table line of each
/// campaign seed, from plain 1-thread runs.
fn record_entries(workload: Workload, seeds: &[u64]) {
    for &seed in seeds {
        let mut eco = chatlens_workload::Ecosystem::build(workload.scenario());
        let ds = chatlens_core::study::run_study_on(&mut eco, workload.campaign(1, seed));
        let fragments: String =
            chatlens_analysis::batch_fragments(&ds, &chatlens_simnet::par::Pool::new(1))
                .into_iter()
                .map(|(name, text)| format!("== {name}\n{text}"))
                .collect();
        println!(
            "{} {seed} {} {}",
            workload.table(),
            record::digest(&ds.campaign_report()),
            record::digest(&fragments)
        );
    }
}
