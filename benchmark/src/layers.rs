//! The traced run: per-layer numbers, grouped by crate.
//!
//! Spans are recorded around the benchmark's own calls into each crate's
//! public functions; the campaign stages come from the `stage.*` counters
//! the study loop already keeps in `Dataset::metrics`. Nothing here adds a
//! timer inside the program. Times are medians over the run's iterations;
//! every other value is deterministic and must repeat exactly between
//! iterations, or the iteration counts as failed.

use crate::alloc;
use crate::record::{median, Metric};
use crate::trace::Tracer;
use crate::workload::{canonical_snapshot_bytes, Bench, Res};
use chatlens_analysis::{batch_fragments, standard_folds};
use chatlens_checkpoint::{
    decode_snapshot, encode_snapshot, load_from_file, save_to_file_with, RealVfs, Writer,
};
use chatlens_core::net::Net;
use chatlens_core::study::run_study_on;
use chatlens_core::{
    recover_latest_state, resume_study_days, run_study_budgeted, run_study_days_checkpointed,
    CampaignState, CheckpointPolicy, Dataset,
};
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::wire::WireDoc;
use chatlens_simnet::fault::{CorruptionProfile, DiskFaultProfile, FaultInjector, FaultSchedule};
use chatlens_simnet::hash::sha256;
use chatlens_simnet::metrics::keys;
use chatlens_simnet::par::Pool;
use chatlens_simnet::time::SimDuration;
use chatlens_simnet::transport::{Request, Status};
use chatlens_twitter::store::TRACK_HOSTS;
use chatlens_twitter::Tweet;
use chatlens_workload::Ecosystem;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Campaign stages, as the study loop names its `stage.*` counters.
const STAGES: [&str; 7] = [
    "search", "stream", "sample", "monitor", "backfill", "join", "collect",
];

/// Repetitions of each single-call layer (codec, SHA-256, file I/O) per
/// iteration; the median is kept.
const REPS: usize = 5;

type Fragment = fn(&Dataset, &Pool) -> String;

/// Every batch analysis fragment, in `batch_fragments` order.
const FRAGMENTS: [(&str, Fragment); 8] = [
    ("discovery", chatlens_analysis::discovery::fragment),
    ("content", chatlens_analysis::content::fragment),
    ("membership", chatlens_analysis::membership::fragment),
    ("lifecycle", chatlens_analysis::lifecycle::fragment),
    ("messages", chatlens_analysis::messages::fragment),
    ("pii", chatlens_analysis::pii::fragment),
    ("topics", chatlens_analysis::topics::fragment),
    ("stats", chatlens_analysis::stats::fragment),
];

/// One iteration's values, by metric name: `(unit, value)`.
#[derive(Default)]
struct Values(BTreeMap<String, (&'static str, f64)>);

impl Values {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: impl Into<f64>) {
        self.0.insert(name.into(), (unit, value.into()));
    }

    fn count(&mut self, name: &str, value: u64) {
        self.put(name, "count", value as f64);
    }

    fn bytes(&mut self, name: &str, value: u64) {
        self.put(name, "B", value as f64);
    }
}

/// Run traced iterations for `seconds` (at least one) and return the
/// per-layer metrics plus `(attempted, failed)`.
pub fn run(bench: &Bench, seconds: f64) -> (Vec<Metric>, u64, u64) {
    let mut tracer = Tracer::new();
    let mut runs: Vec<Values> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while attempted == 0 || (start.elapsed().as_secs_f64() < seconds && failed < 3) {
        attempted += 1;
        tracer.enter(format!("iteration.{attempted}"));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| iterate(bench, &mut tracer)));
        tracer.exit();
        match result {
            Ok(Ok(values)) => match runs.first().and_then(|first| moved_count(first, &values)) {
                Some(name) => {
                    failed += 1;
                    eprintln!("traced iteration {attempted}: deterministic {name} changed between iterations");
                }
                None => runs.push(values),
            },
            Ok(Err(e)) => {
                failed += 1;
                eprintln!("traced iteration {attempted} failed: {e}");
            }
            Err(_) => {
                failed += 1;
                eprintln!("traced iteration {attempted} panicked");
            }
        }
    }
    write_spans(bench, &tracer);

    let mut metrics = Vec::new();
    if let Some(first) = runs.first() {
        for (name, &(unit, value)) in &first.0 {
            let value = if unit == "s" {
                median(&runs.iter().map(|r| r.0[name].1).collect::<Vec<_>>())
            } else {
                value
            };
            metrics.push(Metric {
                name: name.clone(),
                unit: unit.to_string(),
                value,
            });
        }
        metrics.push(Metric {
            name: "failed_frac".into(),
            unit: "ratio".into(),
            value: failed as f64 / attempted as f64,
        });
    }
    (metrics, attempted, failed)
}

/// The first deterministic value that differs between two iterations.
fn moved_count(first: &Values, now: &Values) -> Option<String> {
    first
        .0
        .iter()
        .find(|(name, (unit, value))| *unit != "s" && now.0.get(*name).map(|v| v.1) != Some(*value))
        .map(|(name, _)| name.clone())
}

fn write_spans(bench: &Bench, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!(
        "{}-campaign{}.json",
        bench.workload.name(),
        bench.campaign_seed
    ));
    // lint:allow(D13) the span log is a benchmark artifact outside the simulation's durability domain
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn iterate(bench: &Bench, tr: &mut Tracer) -> Res<Values> {
    bench.work.clear();
    let mut m = Values::default();
    let pool = Pool::new(1);
    let scenario = &bench.scenario;

    // The untraced pipeline first, for the tracing overhead.
    let t = Instant::now();
    {
        let mut eco = Ecosystem::build(scenario.clone());
        let ds = run_study_on(&mut eco, bench.campaign(1));
        black_box(ds.campaign_report());
        black_box(batch_fragments(&ds, &pool));
    }
    let untraced_s = t.elapsed().as_secs_f64();

    // The same pipeline, one span per layer call.
    tr.enter("pipeline");
    let ((mut eco, u), _) = tr.span("workload.build", || {
        alloc::measure(|| Ecosystem::build(scenario.clone()))
    });
    m.count("workload.allocs", u.allocs);
    m.bytes("workload.store_bytes", eco.twitter.encoded_bytes());
    let ((ds, u), _) = tr.span("core.campaign", || {
        alloc::measure(|| run_study_on(&mut eco, bench.campaign(1)))
    });
    drop(eco);
    m.count("core.campaign_allocs", u.allocs);
    let ((report, u), report_s) =
        tr.span("core.report", || alloc::measure(|| ds.campaign_report()));
    m.put("core.report_s", "s", report_s);
    m.count("core.report_allocs", u.allocs);
    let mut fragments = String::new();
    let mut batch = BTreeMap::new();
    for (name, fragment) in FRAGMENTS {
        let (text, s) = tr.span(format!("analysis.{name}"), || fragment(&ds, &pool));
        m.put(format!("analysis.{name}_s"), "s", s);
        fragments.push_str(&format!("== {name}\n{text}"));
        batch.insert(name, text);
    }
    let traced_s = tr.exit();
    m.put("trace.overhead_s", "s", traced_s - untraced_s);
    bench.check_reference(&report, Some(&fragments))?;

    campaign_counters(&ds, &mut m);
    folds(&ds, &batch, tr, &mut m)?;
    twitter_codec(&ds, tr, &mut m)?;
    replays(bench, &ds, tr, &mut m)?;
    drop(ds);
    two_threads(bench, tr, &mut m)?;
    checkpoint_layers(bench, tr, &mut m)?;
    budget_layer(bench, &report, tr, &mut m)?;
    bench.work.clear();
    Ok(m)
}

/// Stage times and work counts the campaign itself recorded.
fn campaign_counters(ds: &Dataset, m: &mut Values) {
    for stage in STAGES {
        let micros = ds.metrics.get(&format!("stage.{stage}.micros"));
        m.put(format!("core.{stage}_s"), "s", micros as f64 / 1e6);
    }
    m.count("core.quarantined", ds.quarantine.len() as u64);
    m.count("core.gap_days", ds.metrics.get(keys::MONITOR_GAP_DAYS));
    m.count("core.tweets", ds.tweets.len() as u64);
    m.count("core.groups", ds.groups.len() as u64);
    m.count("core.messages", ds.totals().messages);
    m.count(
        "simnet.transport_attempts",
        ds.metrics.get(keys::TRANSPORT_ATTEMPTS),
    );
    m.count(
        "simnet.breaker_opens",
        ds.metrics.get(keys::TRANSPORT_BREAKER_OPENED),
    );
}

/// Drive each standard fold over the assembled dataset's day slices; the
/// folded fragments must equal the batch ones.
fn folds(ds: &Dataset, batch: &BTreeMap<&str, String>, tr: &mut Tracer, m: &mut Values) -> Res<()> {
    let pool = Pool::new(1);
    let mut folds = standard_folds();
    let mut day_s = vec![0.0; folds.len()];
    let mut peak_state = 0;
    for day in 0..ds.marks.len() as u32 {
        let slice = ds.day_slice(day).ok_or("a day without a slice")?;
        let mut state = 0;
        for (i, fold) in folds.iter_mut().enumerate() {
            let ((), s) = tr.span(format!("analysis.fold.{}.day", fold.name()), || {
                fold.fold_day(&slice)
            });
            day_s[i] += s;
            let mut w = Writer::new();
            fold.save_state(&mut w);
            state += w.len() as u64;
        }
        peak_state = peak_state.max(state);
    }
    for (fold, day_s) in folds.iter().zip(day_s) {
        let name = fold.name();
        let (text, finish_s) = tr.span(format!("analysis.fold.{name}.finish"), || {
            fold.finish(&pool)
        });
        if batch.get(name) != Some(&text) {
            return Err(format!(
                "fold {name} renders other bytes than its batch fragment"
            ));
        }
        m.put(format!("analysis.fold.{name}.day_s"), "s", day_s);
        m.put(format!("analysis.fold.{name}.finish_s"), "s", finish_s);
    }
    m.bytes("analysis.fold_state_peak_bytes", peak_state);
    Ok(())
}

/// The wire codec over every collected tweet; decoding must invert it.
fn twitter_codec(ds: &Dataset, tr: &mut Tracer, m: &mut Values) -> Res<()> {
    let (encoded, encode_s) = tr.span("twitter.tweet_encode", || {
        ds.tweets
            .iter()
            .map(|ct| ct.tweet.encode())
            .collect::<Vec<_>>()
    });
    let (decoded, decode_s) = tr.span("twitter.tweet_decode", || {
        encoded.iter().map(|s| Tweet::decode(s)).collect::<Vec<_>>()
    });
    if !decoded
        .iter()
        .zip(&ds.tweets)
        .all(|(d, ct)| d.as_ref() == Some(&ct.tweet))
    {
        return Err("a tweet does not survive its wire codec".into());
    }
    m.put("twitter.tweet_encode_s", "s", encode_s);
    m.put("twitter.tweet_decode_s", "s", decode_s);
    Ok(())
}

/// Replay campaign traffic against a fresh world: one six-host search
/// round per study day through a reliable `Net`, and one unauthenticated
/// monitor probe per discovered group through `Net::platform` (with
/// hostile corruption on the hostile workload), each body parsed as the
/// document kind the monitor expects.
fn replays(bench: &Bench, ds: &Dataset, tr: &mut Tracer, m: &mut Values) -> Res<()> {
    let mut eco = Ecosystem::build(bench.scenario.clone());
    let seed = bench.campaign(1).seed;
    let start = eco.window.start_time();
    let days = eco.window.num_days();

    let mut net = Net::reliable(seed, start);
    let mut search_s = 0.0;
    tr.enter("twitter.search_replay");
    for day in 0..days {
        let now = start + SimDuration::days(day) + SimDuration::hours(23);
        for host in TRACK_HOSTS {
            let mut page = 0u64;
            loop {
                let req = Request::new("twitter/search")
                    .with("host", host)
                    .with("page", page.to_string());
                let t = Instant::now();
                let resp = net
                    .twitter(&mut eco, now, &req)
                    .map_err(|e| format!("search replay: {e}"))?;
                search_s += t.elapsed().as_secs_f64();
                let doc = WireDoc::parse_as(&resp.body, "tw-search")
                    .map_err(|e| format!("search page: {e}"))?;
                match doc
                    .opt_u64("next_page")
                    .map_err(|e| format!("search page: {e}"))?
                {
                    Some(next) => page = next,
                    None => break,
                }
            }
        }
    }
    tr.exit();
    m.put("twitter.search_s", "s", search_s);

    let mut net = if bench.workload == crate::workload::Workload::HostileBursty {
        Net::with_corruption(
            seed,
            start,
            std::array::from_fn(|_| FaultSchedule::calm(FaultInjector::none())),
            CorruptionProfile::Hostile.schedule(),
        )
    } else {
        Net::reliable(seed, start)
    };
    let now =
        start + SimDuration::days(days - 1) + SimDuration::hours(23) + SimDuration::minutes(10);
    let (mut serve_s, mut parse_s, mut body_bytes, mut rejects) = (0.0, 0.0, 0u64, 0u64);
    tr.enter("platforms.monitor_replay");
    for rec in &ds.groups {
        let (endpoint, kind) = match rec.platform {
            PlatformKind::WhatsApp => ("whatsapp/landing", "wa-landing"),
            PlatformKind::Telegram => ("telegram/web", "tg-web"),
            PlatformKind::Discord => ("discord/api/invite", "dc-invite"),
        };
        let req = Request::new(endpoint).with("code", rec.invite.code.clone());
        let t = Instant::now();
        let resp = net.platform(&mut eco, rec.platform, now, &req);
        serve_s += t.elapsed().as_secs_f64();
        let Ok(resp) = resp else { continue };
        if resp.status != Status::Ok {
            continue;
        }
        body_bytes += resp.body.len() as u64;
        let t = Instant::now();
        let parsed = WireDoc::parse_as(&resp.body, kind).is_ok();
        parse_s += t.elapsed().as_secs_f64();
        rejects += u64::from(!parsed);
    }
    tr.exit();
    m.put("platforms.serve_s", "s", serve_s);
    m.put("platforms.wire_parse_s", "s", parse_s);
    m.bytes("platforms.body_bytes", body_bytes);
    m.count("platforms.parse_rejects", rejects);
    Ok(())
}

/// The campaign at 2 threads, saving only its final-day snapshot: stage
/// times come from the snapshot's counters, request outcomes from its
/// per-client transport traces.
fn two_threads(bench: &Bench, tr: &mut Tracer, m: &mut Values) -> Res<()> {
    let days = bench.scenario_days();
    let policy = CheckpointPolicy {
        every_days: days,
        on_drop: false,
        disk_fault: DiskFaultProfile::Calm,
        ..CheckpointPolicy::daily(bench.work.path("final-2t"))
    };
    let (done, _) = tr.span("core.campaign_2t", || {
        run_study_days_checkpointed(bench.scenario.clone(), bench.campaign(2), &policy, days)
    });
    done.map_err(|e| format!("2-thread run: {e}"))?;
    let state: CampaignState = load_from_file(&policy.snapshot_path(days))
        .map_err(|e| format!("2-thread snapshot: {e}"))?;
    for stage in ["monitor", "collect"] {
        let micros = state.metrics.get(&format!("stage.{stage}.micros"));
        m.put(format!("core.{stage}_2t_s"), "s", micros as f64 / 1e6);
    }
    let (mut attempts, mut answered, mut retryable) = (0, 0, 0);
    for client in &state.clients {
        let t = &client.trace;
        attempts += t.total;
        retryable += t.dropped_attempts;
        for (status, n) in &t.by_status {
            if status == "200 OK" || status == "410 Gone" {
                answered += n;
            } else if status.starts_with("500") || status.starts_with("429") {
                retryable += n;
            }
        }
    }
    // The 1-thread campaign's transport.attempts (the snapshot predates
    // the end-of-run counters): thread count never changes the traffic.
    if Some(attempts as f64) != m.0.get("simnet.transport_attempts").map(|v| v.1) {
        return Err("per-client traces disagree with transport.attempts".into());
    }
    m.count("core.requests", attempts);
    m.count("core.failed_requests", attempts - answered);
    m.put(
        "core.request_yield",
        "ratio",
        answered as f64 / attempts.max(1) as f64,
    );
    m.count("simnet.retries", retryable);
    Ok(())
}

/// Snapshot codec, file I/O, chain recovery and world rebuild on the
/// halted chain's last snapshot.
fn checkpoint_layers(bench: &Bench, tr: &mut Tracer, m: &mut Values) -> Res<()> {
    let (policy, _) = tr.span("core.halted_run", || bench.halt("halt", "halt-spill"));
    let policy = policy?;
    let seed = bench.campaign(1).seed;
    let (recovered, recover_s) = tr.span("checkpoint.recover", || {
        recover_latest_state(&policy, seed, None)
    });
    let state = recovered
        .map_err(|e| format!("recover: {e}"))?
        .state
        .ok_or("recover: no snapshot survived")?;
    let copy = bench.work.path("copy").join("snapshot.ckpt");
    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..REPS {
        let (bytes, s) = tr.span("checkpoint.encode", || encode_snapshot(&state));
        times.entry("checkpoint.encode_s").or_default().push(s);
        let (decoded, s) = tr.span("checkpoint.decode", || {
            decode_snapshot::<CampaignState>(&bytes)
        });
        times.entry("checkpoint.decode_s").or_default().push(s);
        if decoded.map_err(|e| format!("decode: {e}"))? != state {
            return Err("a snapshot does not survive its codec".into());
        }
        let (digest, s) = tr.span("simnet.sha256", || sha256(&bytes));
        black_box(digest);
        times.entry("simnet.sha256_s").or_default().push(s);
        let (saved, s) = tr.span("checkpoint.save", || {
            save_to_file_with(&mut RealVfs, &copy, &state)
        });
        saved.map_err(|e| format!("save: {e}"))?;
        times.entry("checkpoint.save_s").or_default().push(s);
        let (loaded, s) = tr.span("checkpoint.load", || load_from_file::<CampaignState>(&copy));
        loaded.map_err(|e| format!("load: {e}"))?;
        times.entry("checkpoint.load_s").or_default().push(s);
    }
    for (name, samples) in times {
        m.put(name, "s", median(&samples));
    }
    m.put("checkpoint.recover_s", "s", recover_s);
    m.bytes(
        "checkpoint.snapshot_bytes",
        canonical_snapshot_bytes(&state),
    );
    let (rebuilt, rebuild_s) = tr.span("core.rebuild", || resume_study_days(&state, 0));
    if rebuilt.day != state.day {
        return Err("the rebuild moved the campaign".into());
    }
    m.put("core.rebuild_s", "s", rebuild_s);
    Ok(())
}

/// The accountant's statistics of a complete budgeted run (durable
/// workload only; the other workloads attach no budget, so zero).
fn budget_layer(bench: &Bench, report: &str, tr: &mut Tracer, m: &mut Values) -> Res<()> {
    let (resident_peak, floor, spilled, partitions, faults) = if bench.workload.durable() {
        let (run, _) = tr.span("core.budgeted_run", || {
            run_study_budgeted(
                bench.scenario.clone(),
                bench.campaign(1),
                &bench.budget("budget-spill"),
            )
        });
        let run = run.map_err(|e| format!("budgeted run: {e}"))?;
        if run.report != report {
            return Err("the budgeted report differs from the in-memory report".into());
        }
        let s = run.stats;
        (
            s.resident_peak,
            s.floor,
            s.spilled_bytes,
            s.partitions,
            s.faults,
        )
    } else {
        (0, 0, 0, 0, 0)
    };
    m.bytes("budget.resident_peak_bytes", resident_peak);
    m.bytes("budget.floor_bytes", floor);
    m.bytes("budget.spilled_bytes", spilled);
    m.count("budget.spill_partitions", partitions);
    m.count("budget.faults", faults);
    Ok(())
}
