//! Incremental per-day analysis folds.
//!
//! The campaign advances one study day at a time, and every analysis in
//! `chatlens-analysis` is a function of what the campaign has collected
//! so far. A [`DayFold`] maintains a compact per-day state: after each
//! completed day the study loop hands every registered fold a borrowed
//! [`DaySlice`] of that day's appends, and at campaign end `finish`
//! renders the analysis' report fragment from that state alone. The
//! same folds run over an assembled [`Dataset`](crate::Dataset) through
//! [`Dataset::day_slice`], so there is one implementation of each
//! analysis.
//!
//! The lifecycle (`init → fold_day × num_days → finish`):
//!
//! 1. **init** — the fold's constructor; state starts empty.
//! 2. **[`DayFold::fold_day`]** — once per completed study day, in day
//!    order, at the quiescent day boundary (the same instant snapshots
//!    are captured at).
//! 3. **checkpoint / resume** — [`FoldDriver::ledger`] encodes every
//!    fold's state via the [`Persist`](chatlens_checkpoint::Persist) codec into a [`FoldLedger`]
//!    carried by format-v5 snapshots; [`FoldDriver::restore`] decodes it
//!    so a resumed run never replays raw history.
//! 4. **[`DayFold::finish`]** — renders the analysis' report fragment
//!    from folded state alone.
//!
//! A [`FoldDriver`] owns its folds as a [`FoldSet`]; a caller that built
//! the driver over a concrete set reads the folds back, typed, through
//! [`FoldDriver::folds`] after the session.
//!
//! Day attribution follows collection time: everything a component
//! appended while day *d* ran belongs to day *d*'s slice. The appends
//! are delimited by [`DayMark`] cursors the runner records at every day
//! boundary, which also power [`Dataset::day_slice`] for post-hoc
//! slicing of an assembled dataset.
//!
//! [`Dataset::day_slice`]: crate::Dataset::day_slice

use crate::budget::LogView;
use crate::discovery::{CollectedTweet, DiscoveryRecord};
use crate::intern::Interner;
use crate::joiner::JoinedGroup;
use crate::monitor::{GapLedger, TimelineStore};
use crate::pii::PiiStore;
use chatlens_checkpoint::{persist_struct, CheckpointError, Reader, Writer};
use chatlens_simnet::metrics::{keys, Metrics, StageKey};
use chatlens_simnet::par::Pool;
use chatlens_simnet::time::StudyWindow;
use chatlens_twitter::Tweet;
use std::ops::Range;

/// Per-day collection cursors, recorded by the runner at every day
/// boundary: the length of each append-only collection vector at the end
/// of `day`. The difference between consecutive marks delimits one day's
/// appends — the basis of both live folding and [`Dataset::day_slice`].
///
/// [`Dataset::day_slice`]: crate::Dataset::day_slice
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayMark {
    /// Zero-based study day this mark closes.
    pub day: u32,
    /// `tweets.len()` at the end of the day.
    pub tweets: u64,
    /// `control.len()` at the end of the day.
    pub control: u64,
    /// `groups.len()` at the end of the day.
    pub groups: u64,
    /// `joined.len()` at the end of the day.
    pub joined: u64,
}

persist_struct!(DayMark {
    day,
    tweets,
    control,
    groups,
    joined
});

/// A borrowed view of the campaign's collections at the end of one study
/// day: the ranges appended *during* the day, plus the full group and
/// joined-group prefixes. Tweet history before the day is out of reach
/// (under `--mem-budget` it may sit spilled on disk). Folds read, never
/// clone — every accessor returns a borrow with the underlying storage's
/// lifetime.
///
/// Timelines, gaps and PII are cumulative stores (not append-only
/// vectors), so they are exposed whole; a fold reads the day's
/// observations via [`GroupTimeline::status_on`] (binary search over the
/// columnar day index).
///
/// [`GroupTimeline::status_on`]: crate::monitor::GroupTimeline::status_on
#[derive(Debug, Clone)]
pub struct DaySlice<'a> {
    /// Zero-based study day this slice closes.
    pub day: u32,
    /// Total study days in the window.
    pub days_total: u32,
    /// The collection window.
    pub window: StudyWindow,
    /// The group symbol table (dedup key ↔ discovery slot).
    pub interner: &'a Interner,
    /// Monitor timelines, indexed by discovery slot.
    pub timelines: &'a TimelineStore,
    /// The gap ledger (unobservable days per slot, ascending).
    pub gaps: &'a GapLedger,
    /// PII exposure accounting as of the end of the day.
    pub pii: &'a PiiStore,
    tweets_today: &'a [CollectedTweet],
    control_today: &'a [Tweet],
    groups: &'a [DiscoveryRecord],
    joined: &'a [JoinedGroup],
    new_groups: Range<usize>,
    new_joined: Range<usize>,
}

impl<'a> DaySlice<'a> {
    /// Whether this is the final study day (collection is complete:
    /// member lists, profiles and message histories have been fetched).
    pub fn is_final(&self) -> bool {
        self.day + 1 == self.days_total
    }

    /// The tweets collected during this day (always resident).
    pub fn tweets_today(&self) -> &'a [CollectedTweet] {
        self.tweets_today
    }

    /// The control-sample tweets collected during this day (always
    /// resident).
    pub fn control_today(&self) -> &'a [Tweet] {
        self.control_today
    }

    /// Every group discovered through the end of the day, in discovery
    /// (= slot) order. Records are live: `first_tweet_at` may still
    /// decrease on later days when backfill surfaces an older tweet.
    pub fn groups(&self) -> &'a [DiscoveryRecord] {
        self.groups
    }

    /// The groups discovered during this day.
    pub fn groups_today(&self) -> &'a [DiscoveryRecord] {
        &self.groups[self.new_groups.clone()]
    }

    /// Every group joined through the end of the day. Members and
    /// messages are filled by the end-of-study collection pass, so they
    /// are only complete when [`DaySlice::is_final`] holds.
    pub fn joined(&self) -> &'a [JoinedGroup] {
        self.joined
    }

    /// The groups joined during this day.
    pub fn joined_today(&self) -> &'a [JoinedGroup] {
        &self.joined[self.new_joined.clone()]
    }
}

/// The live campaign collections a [`FoldDriver`] slices per day.
/// Borrowed from the runner at each day boundary (or from an assembled
/// [`Dataset`](crate::Dataset) for post-hoc slicing).
#[derive(Debug, Clone, Copy)]
pub struct DayParts<'a> {
    /// The collection window.
    pub window: StudyWindow,
    /// Pattern-matched tweets, append-only; a [`LogView`] so global
    /// indices survive cold-prefix spills under `--mem-budget`.
    pub tweets: LogView<'a, CollectedTweet>,
    /// Control-sample tweets, append-only (spillable like `tweets`).
    pub control: LogView<'a, Tweet>,
    /// Discovered groups in slot order, append-only.
    pub groups: &'a [DiscoveryRecord],
    /// Joined groups, append-only (contents mutate at collection).
    pub joined: &'a [JoinedGroup],
    /// The group symbol table.
    pub interner: &'a Interner,
    /// Monitor timelines.
    pub timelines: &'a TimelineStore,
    /// The gap ledger.
    pub gaps: &'a GapLedger,
    /// PII accounting.
    pub pii: &'a PiiStore,
}

impl<'a> DayParts<'a> {
    /// Build the slice for `day` given the cursors recorded at the end of
    /// the previous day, taking the current collection frontier as the
    /// day's end (the live-folding case).
    pub(crate) fn slice(&self, day: u32, prev: &DayMark) -> DaySlice<'a> {
        let cur = DayMark {
            day,
            tweets: self.tweets.len() as u64,
            control: self.control.len() as u64,
            groups: self.groups.len() as u64,
            joined: self.joined.len() as u64,
        };
        self.slice_between(day, prev, &cur)
    }

    /// Build the slice for `day` delimited by two recorded marks (the
    /// post-hoc [`Dataset::day_slice`] case — prefixes are cut at `cur`,
    /// not at the collection frontier).
    ///
    /// [`Dataset::day_slice`]: crate::Dataset::day_slice
    pub(crate) fn slice_between(&self, day: u32, prev: &DayMark, cur: &DayMark) -> DaySlice<'a> {
        DaySlice {
            day,
            days_total: self.window.num_days() as u32,
            window: self.window,
            interner: self.interner,
            timelines: self.timelines,
            gaps: self.gaps,
            pii: self.pii,
            tweets_today: self.tweets.slice(prev.tweets as usize..cur.tweets as usize),
            control_today: self
                .control
                .slice(prev.control as usize..cur.control as usize),
            groups: &self.groups[..cur.groups as usize],
            joined: &self.joined[..cur.joined as usize],
            new_groups: prev.groups as usize..cur.groups as usize,
            new_joined: prev.joined as usize..cur.joined as usize,
        }
    }
}

/// An incremental analysis: compact per-day state folded over the
/// campaign's day loop, rendered to a report fragment at the end.
///
/// # Contract
///
/// * `fold_day` is called exactly once per study day, in day order, with
///   no days skipped — the [`FoldDriver`] enforces this.
/// * `finish` must be a pure function of the folded state, identical at
///   any pool size, whether the days were folded live or over an
///   assembled dataset, and across kill/resume (`tests/fold_parity.rs`
///   locks this per analysis and profile against golden fragments).
/// * `save_state`/`load_state` round-trip the state exactly through the
///   [`Persist`](chatlens_checkpoint::Persist) codec: `load_state(save_state(s))` must reproduce `s`,
///   and a fold restored mid-campaign must fold the remaining days to
///   the same final state as an uninterrupted fold.
pub trait DayFold {
    /// Stable name of this fold — the key its persisted state is filed
    /// under in the [`FoldLedger`] and the label of its metrics.
    fn name(&self) -> &'static str;

    /// Fold one completed study day into the state.
    fn fold_day(&mut self, slice: &DaySlice<'_>);

    /// Render the analysis' report fragment from folded state.
    fn finish(&self, pool: &Pool) -> String;

    /// Encode the folded state.
    fn save_state(&self, w: &mut Writer);

    /// Replace the state with a previously encoded one. Called on a
    /// freshly constructed fold during resume.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError>;
}

/// The folds a [`FoldDriver`] drives, in registration order. A single
/// fold is one; a struct of concrete folds is another, and lets its
/// owner read each fold's typed output back after the session.
pub trait FoldSet {
    /// The folds, in registration order.
    fn folds(&self) -> Vec<&dyn DayFold>;

    /// The folds, mutably, in registration order.
    fn folds_mut(&mut self) -> Vec<&mut dyn DayFold>;
}

/// A single fold is a set of one.
impl<F: DayFold> FoldSet for F {
    fn folds(&self) -> Vec<&dyn DayFold> {
        vec![self]
    }

    fn folds_mut(&mut self) -> Vec<&mut dyn DayFold> {
        vec![self]
    }
}

/// Every fold's persisted state plus the driver's cursors — the payload
/// format-v5 snapshots carry so folded runs resume without raw
/// history replays. Entries are `(name, encoded state)` in registration
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldLedger {
    /// Study days folded so far.
    pub days_folded: u32,
    /// Tweets consumed (the driver's tweet cursor).
    pub tweets_seen: u64,
    /// Control tweets consumed.
    pub control_seen: u64,
    /// Group records consumed.
    pub groups_seen: u64,
    /// Joined-group records consumed.
    pub joined_seen: u64,
    /// Per-fold encoded state, keyed by [`DayFold::name`], in
    /// registration order.
    pub entries: Vec<(String, Vec<u8>)>,
}

persist_struct!(FoldLedger {
    days_folded,
    tweets_seen,
    control_seen,
    groups_seen,
    joined_seen,
    entries
});

impl FoldLedger {
    /// Per-fold encoded state size in bytes, in registration order.
    pub fn state_sizes(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries
            .iter()
            .map(|(name, blob)| (name.as_str(), blob.len() as u64))
    }

    /// Total encoded fold-state bytes.
    pub fn total_state_bytes(&self) -> u64 {
        self.entries.iter().map(|(_, blob)| blob.len() as u64).sum()
    }
}

/// Drives a [`FoldSet`] through the campaign's day loop: slices each
/// completed day, feeds every fold in registration order, tracks
/// per-fold timing and state size in its own [`Metrics`] registry
/// (never the dataset's — the campaign report's counter digest is a
/// frozen byte contract), and converts to/from the [`FoldLedger`]
/// snapshots carry.
///
/// The set is the last field, so a `&mut FoldDriver<S>` over a concrete
/// set coerces to the `&mut FoldDriver` (`S = dyn FoldSet`) a session's
/// [`Attachments`](crate::Attachments) hold, and the caller keeps the
/// concrete type for [`FoldDriver::folds`].
pub struct FoldDriver<S: ?Sized + FoldSet = dyn FoldSet> {
    pool: Pool,
    days_folded: u32,
    tweets_seen: usize,
    control_seen: usize,
    groups_seen: usize,
    joined_seen: usize,
    metrics: Metrics,
    /// Each fold's daily and finishing stage timers, in registration
    /// order, made once so timing a fold allocates nothing.
    stages: Vec<(StageKey, StageKey)>,
    /// Last encoded state size per fold, in registration order.
    state_bytes: Vec<u64>,
    peak_state_bytes: u64,
    folds: S,
}

impl<S: FoldSet> FoldDriver<S> {
    /// A driver over `folds` with a worker pool of `threads` (used by
    /// `finish` fan-out; folding itself is sequential per day).
    pub fn new(folds: S, threads: usize) -> FoldDriver<S> {
        let state_bytes = vec![0; folds.folds().len()];
        let stages = folds
            .folds()
            .into_iter()
            .map(|fold| {
                (
                    keys::fold_stage(fold.name()),
                    keys::fold_finish_stage(fold.name()),
                )
            })
            .collect();
        FoldDriver {
            pool: Pool::new(threads),
            days_folded: 0,
            tweets_seen: 0,
            control_seen: 0,
            groups_seen: 0,
            joined_seen: 0,
            metrics: Metrics::new(),
            stages,
            state_bytes,
            peak_state_bytes: 0,
            folds,
        }
    }
}

impl<S: ?Sized + FoldSet> FoldDriver<S> {
    /// The driven folds, for reading their outputs after the session.
    pub fn folds(&self) -> &S {
        &self.folds
    }

    /// Study days folded so far.
    pub fn days_folded(&self) -> u32 {
        self.days_folded
    }

    /// The driver's own metrics registry: per-fold `stage.fold.<name>`
    /// timings plus the [`keys::FOLD_DAYS`] and
    /// [`keys::FOLD_STATE_PEAK_BYTES`] counters. Deliberately separate
    /// from [`Dataset::metrics`](crate::Dataset) so folded runs leave
    /// the frozen campaign-report bytes untouched.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Last encoded state size per fold, in registration order.
    pub fn state_sizes(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.folds
            .folds()
            .into_iter()
            .zip(&self.state_bytes)
            .map(|(fold, &bytes)| (fold.name(), bytes))
    }

    /// Peak total encoded fold-state bytes seen at any day boundary.
    pub fn peak_state_bytes(&self) -> u64 {
        self.peak_state_bytes
    }

    /// Fold one completed study day. Must be called with the collections
    /// exactly as they stand at the day boundary, once per day, in order.
    pub fn fold_day(&mut self, parts: &DayParts<'_>) {
        let day = self.days_folded;
        let prev = DayMark {
            day: day.wrapping_sub(1),
            tweets: self.tweets_seen as u64,
            control: self.control_seen as u64,
            groups: self.groups_seen as u64,
            joined: self.joined_seen as u64,
        };
        let slice = parts.slice(day, &prev);
        for (fold, (stage, _)) in self.folds.folds_mut().into_iter().zip(&self.stages) {
            self.metrics.time_stage(stage, || fold.fold_day(&slice));
        }
        self.metrics.incr(keys::FOLD_DAYS);
        self.days_folded += 1;
        self.tweets_seen = parts.tweets.len();
        self.control_seen = parts.control.len();
        self.groups_seen = parts.groups.len();
        self.joined_seen = parts.joined.len();

        let mut total = 0u64;
        for (i, fold) in self.folds.folds().into_iter().enumerate() {
            let mut w = Writer::new();
            fold.save_state(&mut w);
            let bytes = w.len() as u64;
            self.state_bytes[i] = bytes;
            total += bytes;
        }
        self.peak_state_bytes = self.peak_state_bytes.max(total);
    }

    /// Encode every fold's state into the snapshot ledger.
    pub fn ledger(&self) -> FoldLedger {
        FoldLedger {
            days_folded: self.days_folded,
            tweets_seen: self.tweets_seen as u64,
            control_seen: self.control_seen as u64,
            groups_seen: self.groups_seen as u64,
            joined_seen: self.joined_seen as u64,
            entries: self
                .folds
                .folds()
                .into_iter()
                .map(|fold| {
                    let mut w = Writer::new();
                    fold.save_state(&mut w);
                    (fold.name().to_string(), w.into_bytes())
                })
                .collect(),
        }
    }

    /// Restore every fold's state from a snapshot ledger. The ledger must
    /// carry exactly this driver's folds, by name, in registration order
    /// — an analysis added or removed since the snapshot was written is a
    /// [`CheckpointError::Malformed`], not a silent partial restore.
    pub fn restore(&mut self, ledger: &FoldLedger) -> Result<(), CheckpointError> {
        let mut folds = self.folds.folds_mut();
        if ledger.entries.len() != folds.len() {
            return Err(CheckpointError::Malformed(format!(
                "fold ledger carries {} analyses, this build registers {}",
                ledger.entries.len(),
                folds.len()
            )));
        }
        for (fold, (name, blob)) in folds.iter_mut().zip(&ledger.entries) {
            if fold.name() != name {
                return Err(CheckpointError::Malformed(format!(
                    "fold ledger entry {name:?} does not match registered fold {:?}",
                    fold.name()
                )));
            }
            let mut r = Reader::new(blob);
            fold.load_state(&mut r)?;
            if !r.is_empty() {
                return Err(CheckpointError::Malformed(format!(
                    "fold {name:?} state has trailing bytes"
                )));
            }
        }
        self.days_folded = ledger.days_folded;
        self.tweets_seen = ledger.tweets_seen as usize;
        self.control_seen = ledger.control_seen as usize;
        self.groups_seen = ledger.groups_seen as usize;
        self.joined_seen = ledger.joined_seen as usize;
        for (i, (_, blob)) in ledger.entries.iter().enumerate() {
            self.state_bytes[i] = blob.len() as u64;
        }
        self.peak_state_bytes = self.peak_state_bytes.max(ledger.total_state_bytes());
        Ok(())
    }

    /// Render every fold's report fragment as `(fold name, fragment)`,
    /// in registration order, and record the end-of-run fold metrics.
    /// Call once, after the final day has been folded.
    pub fn finish(&mut self) -> Vec<(&'static str, String)> {
        let fragments = self
            .folds
            .folds()
            .into_iter()
            .zip(&self.stages)
            .map(|(fold, (_, stage))| {
                let fragment = self.metrics.time_stage(stage, || fold.finish(&self.pool));
                (fold.name(), fragment)
            })
            .collect();
        self.metrics
            .add(keys::FOLD_STATE_PEAK_BYTES, self.peak_state_bytes);
        fragments
    }
}
