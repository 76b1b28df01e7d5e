//! Lightweight named counters and fixed-bucket histograms.
//!
//! The collector and monitor use a [`Metrics`] registry to keep campaign
//! health numbers (requests issued, revocations observed, joins denied…)
//! without threading bespoke counters through every call path.

use std::collections::BTreeMap;
use std::fmt;

/// A histogram over fixed, caller-supplied bucket upper bounds, plus an
/// overflow bucket. Also tracks exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Count of observations in the bucket ending at `bounds[i]` (the last
    /// index is the overflow bucket).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// `(upper_bound, count)` pairs; the final pair uses `f64::INFINITY`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }

    /// The configured bucket upper bounds (checkpoint export).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Raw per-bucket counts, overflow bucket last (checkpoint export).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Exact sum of all observations (checkpoint export).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Rebuild a histogram from exported parts (the restore half of
    /// checkpointing). `min`/`max` use the [`Histogram::min`] /
    /// [`Histogram::max`] convention: `None` for an empty histogram.
    ///
    /// # Panics
    /// Panics if `counts` does not have exactly `bounds.len() + 1` slots or
    /// the bounds are invalid (same contract as [`Histogram::new`]).
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Histogram {
        let mut h = Histogram::new(&bounds);
        assert_eq!(counts.len(), bounds.len() + 1, "bucket count mismatch");
        h.counts = counts;
        h.count = count;
        h.sum = sum;
        h.min = min.unwrap_or(f64::INFINITY);
        h.max = max.unwrap_or(f64::NEG_INFINITY);
        h
    }
}

/// The declared metric- and trace-key registry.
///
/// Every counter, histogram, and stage-timer key used on the artifact
/// path is a named constant here; the lint's D12 rule rejects ad-hoc
/// string literals at `Metrics` call sites so a key family can't fork
/// via typo (`transport.breaker_opend`). The *values* are part of the
/// golden output — renaming one changes report bytes — so add, don't
/// edit. The lint also rejects two constants declaring the same value.
pub mod keys {
    // Name tables document themselves: each constant name mirrors its
    // key string, and the module doc above carries the contract.
    #![allow(missing_docs)]

    // Transport-layer counters.
    pub const TRANSPORT_ATTEMPTS: &str = "transport.attempts";
    pub const TRANSPORT_BREAKER_OPENED: &str = "transport.breaker_opened";
    pub const TRANSPORT_BREAKER_FAST_FAILS: &str = "transport.breaker_fast_fails";
    pub const TRANSPORT_CORRUPTED: &str = "transport.corrupted";
    // Discovery / monitoring / joining counters.
    pub const DISCOVERY_UNRECOVERED_WINDOWS: &str = "discovery.unrecovered_windows";
    pub const DISCOVERY_TWEETS_COLLECTED: &str = "discovery.tweets_collected";
    pub const DISCOVERY_GROUPS_DISCOVERED: &str = "discovery.groups_discovered";
    pub const DISCOVERY_FAILED_REQUESTS: &str = "discovery.failed_requests";
    pub const DISCOVERY_GROUPS_KNOWN: &str = "discovery.groups_known";
    pub const MONITOR_GAP_DAYS: &str = "monitor.gap_days";
    pub const JOIN_DEAD_AT_JOIN: &str = "join.dead_at_join";
    pub const JOIN_JOINED_GROUPS: &str = "join.joined_groups";
    pub const JOIN_FAILED_FETCHES: &str = "join.failed_fetches";
    pub const QUARANTINE_ENTRIES: &str = "quarantine.entries";
    // Campaign round counters.
    pub const CAMPAIGN_SEARCH_ROUNDS: &str = "campaign.search_rounds";
    pub const CAMPAIGN_STREAM_DRAINS: &str = "campaign.stream_drains";
    pub const CAMPAIGN_SAMPLE_DRAINS: &str = "campaign.sample_drains";
    pub const CAMPAIGN_MONITOR_ROUNDS: &str = "campaign.monitor_rounds";
    pub const CAMPAIGN_BACKFILL_ROUNDS: &str = "campaign.backfill_rounds";
    // Campaign stage timers (`Metrics::time_stage`).
    pub const STAGE_SEARCH: &str = "search";
    pub const STAGE_STREAM: &str = "stream";
    pub const STAGE_SAMPLE: &str = "sample";
    pub const STAGE_MONITOR: &str = "monitor";
    pub const STAGE_JOIN: &str = "join";
    pub const STAGE_COLLECT: &str = "collect";
    pub const STAGE_BACKFILL: &str = "backfill";
    // Artifact-generation stage timers (the repro binary).
    pub const STAGE_TABLE2: &str = "table2";
    pub const STAGE_TABLE4: &str = "table4";
    pub const STAGE_TABLE5: &str = "table5";
    pub const STAGE_FIG1: &str = "fig1";
    pub const STAGE_FIG2: &str = "fig2";
    pub const STAGE_FIG3: &str = "fig3";
    pub const STAGE_FIG4: &str = "fig4";
    pub const STAGE_FIG5: &str = "fig5";
    pub const STAGE_FIG6: &str = "fig6";
    pub const STAGE_FIG7: &str = "fig7";
    pub const STAGE_FIG8: &str = "fig8";
    pub const STAGE_FIG9: &str = "fig9";
    pub const STAGE_LDA: &str = "lda";
    pub const STAGE_EXTRAS: &str = "extras";
    pub const STAGE_EXTENSIONS: &str = "extensions";

    // Incremental analysis folds (per-fold stages are computed as
    // `fold.<name>` / `fold_finish.<name>` from these prefixes).
    pub const STAGE_FOLD: &str = "fold";
    pub const STAGE_FOLD_FINISH: &str = "fold_finish";
    pub const FOLD_DAYS: &str = "fold.days";
    pub const FOLD_STATE_PEAK_BYTES: &str = "fold.state_peak_bytes";

    // Memory-budget accounting (`repro run --mem-budget`). These live in
    // the budget runtime's own registry, never the dataset's — the
    // campaign report's counter digest is a frozen byte contract and a
    // budgeted run must reproduce an unbudgeted run's bytes exactly.
    pub const BUDGET_RESIDENT_BYTES: &str = "budget.resident";
    pub const BUDGET_RESIDENT_PEAK_BYTES: &str = "budget.resident_peak";
    pub const BUDGET_SPILLED_BYTES: &str = "budget.spilled";
    pub const BUDGET_EVICTIONS: &str = "budget.evictions";
    pub const BUDGET_FAULTS: &str = "budget.faults";
    pub const BUDGET_TORN_DETECTED: &str = "budget.torn_detected";

    // Checkpoint-chain durability counters (`repro checkpoint verify`
    // / `repair` summaries and the chain-recovery resume path).
    pub const CHECKPOINT_CHAIN_VALID: &str = "checkpoint.chain_valid";
    pub const CHECKPOINT_CHAIN_INVALID: &str = "checkpoint.chain_invalid";
    pub const CHECKPOINT_SNAPSHOTS_SKIPPED: &str = "checkpoint.snapshots_skipped";
    pub const CHECKPOINT_QUARANTINED: &str = "checkpoint.quarantined";
}

/// A registry of named counters and histograms with deterministic
/// (sorted) iteration order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add `n` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Increment the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Read a counter (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Observe a value into the histogram `name`, creating it with the
    /// given default bounds on first use.
    pub fn observe(&mut self, name: &str, value: f64, default_bounds: &[f64]) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(default_bounds))
            .observe(value);
    }

    /// Read a histogram if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate histograms in name order (checkpoint export).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Rebuild a registry from exported parts (the restore half of
    /// checkpointing).
    pub fn from_parts(
        counters: BTreeMap<String, u64>,
        histograms: BTreeMap<String, Histogram>,
    ) -> Metrics {
        Metrics {
            counters,
            histograms,
        }
    }

    /// Remove every wall-clock timing counter (names ending `.micros`, as
    /// written by [`Metrics::time_stage`]). Timings are real elapsed time
    /// and therefore differ between otherwise bit-identical runs; equality
    /// comparisons across runs — e.g. the checkpoint/resume determinism
    /// suite — must normalize with this before comparing.
    pub fn strip_wall_clock(&mut self) {
        self.counters.retain(|name, _| !name.ends_with(".micros"));
    }

    /// Runs `f` and records its wall-clock duration under the counters
    /// `stage.<name>.micros` (accumulating) and `stage.<name>.runs`.
    ///
    /// Timings are real elapsed time and therefore *not* deterministic —
    /// they exist for throughput tracking (BENCH records, `repro`
    /// `--timings`) and must never feed back into simulation state.
    pub fn time_stage<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        self.add(
            &format!("stage.{name}.micros"),
            start.elapsed().as_micros() as u64,
        );
        self.incr(&format!("stage.{name}.runs"));
        out
    }

    /// Total microseconds recorded for a stage by [`Metrics::time_stage`].
    pub fn stage_micros(&self, name: &str) -> u64 {
        self.get(&format!("stage.{name}.micros"))
    }

    /// Counters under the `stage.` prefix, in name order — the per-stage
    /// timing table recorded during a run.
    pub fn stages(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters()
            .filter(|(name, _)| name.starts_with("stage."))
    }

    /// Merge another registry into this one (counters add; histograms must
    /// not collide — campaign subsystems use disjoint name prefixes).
    ///
    /// # Panics
    /// Panics on a histogram name collision.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for k in other.histograms.keys() {
            assert!(
                !self.histograms.contains_key(k),
                "histogram name collision: {k}"
            );
        }
        for (k, v) in &other.histograms {
            self.histograms.insert(k.clone(), v.clone());
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name} = {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "{name}: n={} mean={:.2} min={:?} max={:?}",
                h.count(),
                h.mean(),
                h.min(),
                h.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("a");
        m.add("a", 4);
        assert_eq!(m.get("a"), 5);
        assert_eq!(m.get("missing"), 0);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_count(0), 2, "<=1");
        assert_eq!(h.bucket_count(1), 1, "<=10");
        assert_eq!(h.bucket_count(2), 1, "<=100");
        assert_eq!(h.bucket_count(3), 1, "overflow");
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(500.0));
        assert!((h.mean() - 111.3).abs() < 0.01);
    }

    #[test]
    fn histogram_empty_stats() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    fn registry_histograms() {
        let mut m = Metrics::new();
        m.observe("lat", 5.0, &[1.0, 10.0]);
        m.observe("lat", 0.5, &[999.0]); // bounds ignored on reuse
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_count(0), 1);
        assert!(m.histogram("other").is_none());
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Metrics::new();
        a.add("x", 1);
        let mut b = Metrics::new();
        b.add("x", 2);
        b.add("y", 3);
        b.observe("h", 1.0, &[10.0]);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
        assert!(a.histogram("h").is_some());
    }

    #[test]
    fn time_stage_records_duration_and_runs() {
        let mut m = Metrics::new();
        let out = m.time_stage("lda", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7u32
        });
        assert_eq!(out, 7);
        m.time_stage("lda", || ());
        assert_eq!(m.get("stage.lda.runs"), 2);
        assert!(m.stage_micros("lda") >= 2000);
        assert_eq!(m.stage_micros("missing"), 0);
        let stages: Vec<&str> = m.stages().map(|(n, _)| n).collect();
        assert_eq!(stages, ["stage.lda.micros", "stage.lda.runs"]);
    }

    #[test]
    fn display_lists_everything() {
        let mut m = Metrics::new();
        m.add("requests", 7);
        m.observe("latency", 2.0, &[1.0, 5.0]);
        let s = m.to_string();
        assert!(s.contains("requests = 7"));
        assert!(s.contains("latency: n=1"));
    }

    #[test]
    fn buckets_iterator_ends_with_infinity() {
        let h = Histogram::new(&[1.0, 2.0]);
        let bounds: Vec<f64> = h.buckets().map(|(b, _)| b).collect();
        assert_eq!(bounds.len(), 3);
        assert!(bounds[2].is_infinite());
    }
}
