//! Lightweight named counters and fixed-bucket histograms.
//!
//! The collector and monitor use a [`Metrics`] registry to keep campaign
//! health numbers (requests issued, revocations observed, joins denied…)
//! without threading bespoke counters through every call path.

use std::borrow::Cow;
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

/// A counter or histogram key: one of the constants in [`keys`], the
/// only place a key can be made.
///
/// Metric writers take a `Key`, never a string, so a key family cannot
/// fork via typo (`transport.breaker_opend`):
///
/// ```
/// use chatlens_simnet::metrics::{keys, Metrics};
/// let mut m = Metrics::new();
/// m.incr(keys::JOIN_DEAD_AT_JOIN);
/// ```
///
/// ```compile_fail,E0308
/// use chatlens_simnet::metrics::{keys, Metrics};
/// let mut m = Metrics::new();
/// m.incr("ad_hoc");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key(&'static str);

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        self.0
    }
}

/// A stage timer for [`Metrics::time_stage`]: the names of its
/// `stage.<name>.micros` and `stage.<name>.runs` counters, made once.
/// The fixed stages are constants in [`keys`]; each analysis fold's
/// stages come from [`keys::fold_stage`] and [`keys::fold_finish_stage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKey {
    micros: Cow<'static, str>,
    runs: Cow<'static, str>,
}

/// The declared metric- and trace-key registry.
///
/// Every counter, histogram, and stage-timer key used on the artifact
/// path is a constant here, and [`Key`] and [`StageKey`] have no other
/// constructor. The *values* are part of the golden output — renaming
/// one changes report bytes — so add, don't edit. A unit test checks
/// that no two keys declare the same string.
pub mod keys {
    // Name tables document themselves: each constant name mirrors its
    // key string, and the module doc above carries the contract.
    #![expect(missing_docs, reason = "each constant's name mirrors its key string")]

    use super::{Key, StageKey};
    use std::borrow::Cow;

    /// Declare counter keys, listed in `ALL` for the distinctness test.
    macro_rules! counters {
        ($($name:ident = $value:literal;)+) => {
            $(pub const $name: Key = Key($value);)+
            #[cfg(test)]
            pub(super) const ALL: &[Key] = &[$($name),+];
        };
    }

    /// Declare stage timers, listed in `ALL_STAGES` for the distinctness
    /// test.
    macro_rules! stages {
        ($($name:ident = $stage:literal;)+) => {
            $(pub const $name: StageKey = StageKey {
                micros: Cow::Borrowed(concat!("stage.", $stage, ".micros")),
                runs: Cow::Borrowed(concat!("stage.", $stage, ".runs")),
            };)+
            #[cfg(test)]
            pub(super) const ALL_STAGES: &[StageKey] = &[$($name),+];
        };
    }

    counters! {
        // Transport-layer counters.
        TRANSPORT_ATTEMPTS = "transport.attempts";
        TRANSPORT_BREAKER_OPENED = "transport.breaker_opened";
        TRANSPORT_BREAKER_FAST_FAILS = "transport.breaker_fast_fails";
        TRANSPORT_CORRUPTED = "transport.corrupted";
        // Discovery / monitoring / joining counters.
        DISCOVERY_UNRECOVERED_WINDOWS = "discovery.unrecovered_windows";
        DISCOVERY_TWEETS_COLLECTED = "discovery.tweets_collected";
        DISCOVERY_GROUPS_DISCOVERED = "discovery.groups_discovered";
        DISCOVERY_FAILED_REQUESTS = "discovery.failed_requests";
        DISCOVERY_GROUPS_KNOWN = "discovery.groups_known";
        MONITOR_GAP_DAYS = "monitor.gap_days";
        JOIN_DEAD_AT_JOIN = "join.dead_at_join";
        JOIN_JOINED_GROUPS = "join.joined_groups";
        JOIN_FAILED_FETCHES = "join.failed_fetches";
        QUARANTINE_ENTRIES = "quarantine.entries";
        // Campaign round counters.
        CAMPAIGN_SEARCH_ROUNDS = "campaign.search_rounds";
        CAMPAIGN_STREAM_DRAINS = "campaign.stream_drains";
        CAMPAIGN_SAMPLE_DRAINS = "campaign.sample_drains";
        CAMPAIGN_MONITOR_ROUNDS = "campaign.monitor_rounds";
        CAMPAIGN_BACKFILL_ROUNDS = "campaign.backfill_rounds";
        // Incremental analysis folds.
        FOLD_DAYS = "fold.days";
        FOLD_STATE_PEAK_BYTES = "fold.state_peak_bytes";
        // Memory-budget accounting (`repro run --mem-budget`). These
        // live in the budget runtime's own registry, never the
        // dataset's — the campaign report's counter digest is a frozen
        // byte contract and a budgeted run must reproduce an unbudgeted
        // run's bytes exactly.
        BUDGET_RESIDENT_BYTES = "budget.resident";
        BUDGET_RESIDENT_PEAK_BYTES = "budget.resident_peak";
        BUDGET_SPILLED_BYTES = "budget.spilled";
        BUDGET_EVICTIONS = "budget.evictions";
        BUDGET_FAULTS = "budget.faults";
        BUDGET_TORN_DETECTED = "budget.torn_detected";
        // Checkpoint-chain durability counters (`repro checkpoint
        // verify` / `repair` summaries and the chain-recovery resume
        // path).
        CHECKPOINT_CHAIN_VALID = "checkpoint.chain_valid";
        CHECKPOINT_CHAIN_INVALID = "checkpoint.chain_invalid";
        CHECKPOINT_SNAPSHOTS_SKIPPED = "checkpoint.snapshots_skipped";
        CHECKPOINT_QUARANTINED = "checkpoint.quarantined";
    }

    stages! {
        // Campaign stage timers.
        STAGE_SEARCH = "search";
        STAGE_STREAM = "stream";
        STAGE_SAMPLE = "sample";
        STAGE_MONITOR = "monitor";
        STAGE_JOIN = "join";
        STAGE_COLLECT = "collect";
        STAGE_BACKFILL = "backfill";
        // The repro binary's world build: `Ecosystem::build`, or
        // `CampaignState::world` on resume.
        STAGE_BUILD = "build";
        // Artifact-generation stage timers (the repro binary).
        STAGE_TABLE2 = "table2";
        STAGE_TABLE4 = "table4";
        STAGE_TABLE5 = "table5";
        STAGE_FIG1 = "fig1";
        STAGE_FIG2 = "fig2";
        STAGE_FIG3 = "fig3";
        STAGE_FIG4 = "fig4";
        STAGE_FIG5 = "fig5";
        STAGE_FIG6 = "fig6";
        STAGE_FIG7 = "fig7";
        STAGE_FIG8 = "fig8";
        STAGE_FIG9 = "fig9";
        STAGE_LDA = "lda";
        STAGE_EXTRAS = "extras";
        STAGE_EXTENSIONS = "extensions";
    }

    /// The `stage.fold.<fold>` timer of one analysis fold's daily step.
    pub fn fold_stage(fold: &str) -> StageKey {
        StageKey {
            micros: Cow::Owned(format!("stage.fold.{fold}.micros")),
            runs: Cow::Owned(format!("stage.fold.{fold}.runs")),
        }
    }

    /// The `stage.fold_finish.<fold>` timer of one analysis fold's
    /// end-of-run rendering.
    pub fn fold_finish_stage(fold: &str) -> StageKey {
        StageKey {
            micros: Cow::Owned(format!("stage.fold_finish.{fold}.micros")),
            runs: Cow::Owned(format!("stage.fold_finish.{fold}.runs")),
        }
    }
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

    /// Add `n` to the counter `key` (creating it at zero).
    pub fn add(&mut self, key: Key, n: u64) {
        self.bump(key.0, n);
    }

    /// Increment the counter `key` by one.
    pub fn incr(&mut self, key: Key) {
        self.bump(key.0, 1);
    }

    /// Add `n` to the counter `name`; the name is copied only when the
    /// counter is created.
    fn bump(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Read a counter (0 if absent).
    pub fn get(&self, name: impl AsRef<str>) -> u64 {
        self.counters.get(name.as_ref()).copied().unwrap_or(0)
    }

    /// Observe a value into the histogram `key`, creating it with the
    /// given default bounds on first use.
    pub fn observe(&mut self, key: Key, value: f64, default_bounds: &[f64]) {
        match self.histograms.get_mut(key.0) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new(default_bounds);
                h.observe(value);
                self.histograms.insert(key.0.to_string(), h);
            }
        }
    }

    /// Read a histogram if it exists.
    pub fn histogram(&self, name: impl AsRef<str>) -> Option<&Histogram> {
        self.histograms.get(name.as_ref())
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl ExactSizeIterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate histograms in name order (checkpoint export).
    pub fn histograms(&self) -> impl ExactSizeIterator<Item = (&str, &Histogram)> {
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
    #[expect(clippy::disallowed_types, reason = "the one sanctioned wall clock")]
    pub fn time_stage<R>(&mut self, stage: &StageKey, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        self.bump(&stage.micros, start.elapsed().as_micros() as u64);
        self.bump(&stage.runs, 1);
        out
    }

    /// Total microseconds recorded for a stage by [`Metrics::time_stage`].
    pub fn stage_micros(&self, stage: &StageKey) -> u64 {
        self.get(&stage.micros)
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
        for (k, &v) in &other.counters {
            self.bump(k, v);
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
        m.incr(keys::JOIN_DEAD_AT_JOIN);
        m.add(keys::JOIN_DEAD_AT_JOIN, 4);
        m.add(keys::JOIN_FAILED_FETCHES, 0);
        assert_eq!(m.get(keys::JOIN_DEAD_AT_JOIN), 5);
        assert_eq!(m.get("join.dead_at_join"), 5);
        assert_eq!(m.get("missing"), 0);
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["join.dead_at_join", "join.failed_fetches"]);
    }

    #[test]
    fn declared_keys_are_distinct() {
        let fold = [keys::fold_stage("x"), keys::fold_finish_stage("x")];
        let mut names: Vec<&str> = keys::ALL.iter().map(|k| k.0).collect();
        for stage in keys::ALL_STAGES.iter().chain(&fold) {
            names.extend([&*stage.micros, &*stage.runs]);
        }
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "two keys declare one string");
        assert_eq!(
            (&*fold[0].micros, &*fold[1].runs),
            ("stage.fold.x.micros", "stage.fold_finish.x.runs")
        );
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
        m.observe(keys::DISCOVERY_GROUPS_KNOWN, 5.0, &[1.0, 10.0]);
        m.observe(keys::DISCOVERY_GROUPS_KNOWN, 0.5, &[999.0]); // bounds ignored on reuse
        let h = m.histogram(keys::DISCOVERY_GROUPS_KNOWN).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_count(0), 1);
        assert!(m.histogram("other").is_none());
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Metrics::new();
        a.add(keys::BUDGET_FAULTS, 1);
        let mut b = Metrics::new();
        b.add(keys::BUDGET_FAULTS, 2);
        b.add(keys::BUDGET_EVICTIONS, 3);
        b.observe(keys::DISCOVERY_GROUPS_KNOWN, 1.0, &[10.0]);
        a.merge(&b);
        assert_eq!(a.get(keys::BUDGET_FAULTS), 3);
        assert_eq!(a.get(keys::BUDGET_EVICTIONS), 3);
        assert!(a.histogram(keys::DISCOVERY_GROUPS_KNOWN).is_some());
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "the test sleeps to be timed")]
    fn time_stage_records_duration_and_runs() {
        let mut m = Metrics::new();
        let out = m.time_stage(&keys::STAGE_LDA, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7u32
        });
        assert_eq!(out, 7);
        m.time_stage(&keys::STAGE_LDA, || ());
        assert_eq!(m.get("stage.lda.runs"), 2);
        assert!(m.stage_micros(&keys::STAGE_LDA) >= 2000);
        assert_eq!(m.stage_micros(&keys::STAGE_FIG1), 0);
        let stages: Vec<&str> = m.stages().map(|(n, _)| n).collect();
        assert_eq!(stages, ["stage.lda.micros", "stage.lda.runs"]);
    }

    #[test]
    fn display_lists_everything() {
        let mut m = Metrics::new();
        m.add(keys::TRANSPORT_ATTEMPTS, 7);
        m.observe(keys::DISCOVERY_GROUPS_KNOWN, 2.0, &[1.0, 5.0]);
        let s = m.to_string();
        assert!(s.contains("transport.attempts = 7"));
        assert!(s.contains("discovery.groups_known: n=1"));
    }

    #[test]
    fn buckets_iterator_ends_with_infinity() {
        let h = Histogram::new(&[1.0, 2.0]);
        let bounds: Vec<f64> = h.buckets().map(|(b, _)| b).collect();
        assert_eq!(bounds.len(), 3);
        assert!(bounds[2].is_infinite());
    }
}
