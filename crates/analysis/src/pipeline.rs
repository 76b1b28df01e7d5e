//! The analysis pipeline: every results-section module is one
//! [`DayFold`].
//!
//! A fold keeps compact per-day state over the campaign's day loop. Its
//! inherent `output()` returns the section's typed artifacts (the
//! figures, tables and comparisons `repro` prints), and
//! [`DayFold::finish`] renders the canonical report fragment from that
//! same output. A fold runs either live, attached to a campaign session
//! through a [`FoldDriver`](chatlens_core::FoldDriver), or over an
//! assembled [`Dataset`] through [`fold_dataset`]; `tests/fold_parity.rs`
//! locks the two byte-for-byte against golden fragments across thread
//! counts, fault/corruption profiles and kill/resume.
//!
//! [`StandardFolds`] holds every analysis fold by name, in canonical
//! order; [`standard_folds`] is the same set boxed, and
//! [`batch_fragments`] renders it over an assembled dataset.
//!
//! # Writing a custom fold
//!
//! A fold sees one borrowed [`DaySlice`](chatlens_core::DaySlice) per
//! completed study day and must be able to round-trip its state through
//! the checkpoint codec:
//!
//! ```
//! use chatlens_checkpoint::{CheckpointError, Persist, Reader, Writer};
//! use chatlens_core::{Attachments, Campaign, DayFold, DaySlice, FoldDriver};
//! use chatlens_simnet::par::Pool;
//!
//! /// Counts collected tweets per study day.
//! struct TweetVolume {
//!     per_day: Vec<u64>,
//! }
//!
//! impl DayFold for TweetVolume {
//!     fn name(&self) -> &'static str {
//!         "tweet_volume"
//!     }
//!     fn fold_day(&mut self, slice: &DaySlice<'_>) {
//!         self.per_day.push(slice.tweets_today().len() as u64);
//!     }
//!     fn finish(&self, _pool: &Pool) -> String {
//!         format!("tweets_per_day: {:?}\n", self.per_day)
//!     }
//!     fn save_state(&self, w: &mut Writer) {
//!         self.per_day.save(w);
//!     }
//!     fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
//!         self.per_day = Persist::load(r)?;
//!         Ok(())
//!     }
//! }
//!
//! let mut driver = FoldDriver::new(TweetVolume { per_day: Vec::new() }, 1);
//! let mut eco = chatlens_workload::Ecosystem::build(chatlens_workload::ScenarioConfig::tiny());
//! let attach = Attachments { folds: Some(&mut driver), ..Attachments::default() };
//! let ds = Campaign::new(&mut eco, Default::default(), attach)
//!     .and_then(Campaign::finish)
//!     .unwrap()
//!     .into_dataset();
//! let fragments = driver.finish();
//! assert_eq!(fragments[0].0, "tweet_volume");
//! assert!(fragments[0].1.starts_with("tweets_per_day: ["));
//! // The fold comes back typed, and its per-day series matches
//! // post-hoc slicing of the dataset.
//! let day0 = ds.day_slice(0).unwrap().tweets_today().len();
//! assert_eq!(driver.folds().per_day[0], day0 as u64);
//! ```

use crate::content::ContentFold;
use crate::discovery::DiscoveryFold;
use crate::lda::LdaConfig;
use crate::lifecycle::LifecycleFold;
use crate::membership::MembershipFold;
use crate::messages::MessagesFold;
use crate::pii::PiiFold;
use crate::stats::{Ecdf, StatsFold};
use crate::topics::TopicsFold;
use chatlens_core::{Dataset, DayFold, FoldSet};
use chatlens_simnet::hash::DigestWriter;
use chatlens_simnet::par::Pool;
use std::fmt::Write as _;

/// Every standard analysis fold, by name, in canonical registration
/// order — the order fragments are listed in and fold state is filed in
/// the snapshot ledger. Drive it with a
/// [`FoldDriver`](chatlens_core::FoldDriver) and read each fold's typed
/// output back through [`FoldDriver::folds`](chatlens_core::FoldDriver::folds).
#[derive(Default)]
pub struct StandardFolds {
    /// Figs 1 and 2.
    pub discovery: DiscoveryFold,
    /// Figs 3 and 4.
    pub content: ContentFold,
    /// Fig 7 and the §5 creator roll-ups.
    pub membership: MembershipFold,
    /// Figs 5 and 6.
    pub lifecycle: LifecycleFold,
    /// Figs 8 and 9.
    pub messages: MessagesFold,
    /// Tables 4 and 5.
    pub pii: PiiFold,
    /// Table 3's English corpora.
    pub topics: TopicsFold,
    /// Per-day collection volumes.
    pub stats: StatsFold,
}

impl StandardFolds {
    /// Every fold, empty.
    pub fn new() -> StandardFolds {
        StandardFolds::default()
    }
}

impl FoldSet for StandardFolds {
    fn folds(&self) -> Vec<&dyn DayFold> {
        vec![
            &self.discovery,
            &self.content,
            &self.membership,
            &self.lifecycle,
            &self.messages,
            &self.pii,
            &self.topics,
            &self.stats,
        ]
    }

    fn folds_mut(&mut self) -> Vec<&mut dyn DayFold> {
        vec![
            &mut self.discovery,
            &mut self.content,
            &mut self.membership,
            &mut self.lifecycle,
            &mut self.messages,
            &mut self.pii,
            &mut self.topics,
            &mut self.stats,
        ]
    }
}

/// [`StandardFolds`] as trait objects, in the same order, for callers
/// that drive the folds one by one.
pub fn standard_folds() -> Vec<Box<dyn DayFold>> {
    vec![
        Box::new(DiscoveryFold::new()),
        Box::new(ContentFold::new()),
        Box::new(MembershipFold::new()),
        Box::new(LifecycleFold::new()),
        Box::new(MessagesFold::new()),
        Box::new(PiiFold::new()),
        Box::new(TopicsFold::new()),
        Box::new(StatsFold::new()),
    ]
}

/// Fold every recorded day of an assembled dataset, in day order,
/// through [`Dataset::day_slice`] — the same slices a live session
/// hands its folds, so the folded state is the live run's — and hand
/// the folds back.
pub fn fold_dataset<S: FoldSet>(ds: &Dataset, mut folds: S) -> S {
    for day in 0..ds.marks.len() as u32 {
        let slice = ds.day_slice(day).expect("every recorded day has a mark");
        for fold in folds.folds_mut() {
            fold.fold_day(&slice);
        }
    }
    folds
}

/// Every standard analysis fragment of an assembled dataset, under the
/// names and in the order of [`StandardFolds`].
pub fn batch_fragments(ds: &Dataset, pool: &Pool) -> Vec<(&'static str, String)> {
    fold_dataset(ds, StandardFolds::new())
        .folds()
        .into_iter()
        .map(|fold| (fold.name(), fold.finish(pool)))
        .collect()
}

/// The LDA settings the topics fragment fits Table 3 with: small enough to
/// keep the report stage fast, fixed seed so the fitted model is a pure
/// function of the corpus.
pub fn report_lda_config() -> LdaConfig {
    LdaConfig {
        k: 6,
        iterations: 25,
        seed: 7,
        ..LdaConfig::default()
    }
}

/// Canonical one-line rendering of an ECDF: headline quantiles plus a
/// SHA-256 over the full `(x, F(x))` series, so two ECDFs render equal
/// bytes iff they hold the same sample multiset.
pub fn ecdf_stats(e: &Ecdf) -> String {
    let mut series = DigestWriter::new();
    write!(series, "{:?}", e.series()).unwrap();
    format!(
        "n={} min={:?} q10={:?} q25={:?} median={:?} q75={:?} q90={:?} q99={:?} max={:?} mean={:?} sha256={}",
        e.len(),
        e.min(),
        e.quantile(0.10),
        e.quantile(0.25),
        e.median(),
        e.quantile(0.75),
        e.quantile(0.90),
        e.quantile(0.99),
        e.max(),
        e.mean(),
        series.finish(),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The tiny-scale campaign every module's tests read.
    pub(crate) fn dataset() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| chatlens_core::run_study(chatlens_workload::ScenarioConfig::tiny()))
    }

    /// [`dataset`] folded through every standard analysis.
    pub(crate) fn folded() -> &'static StandardFolds {
        static FOLDS: OnceLock<StandardFolds> = OnceLock::new();
        FOLDS.get_or_init(|| fold_dataset(dataset(), StandardFolds::new()))
    }

    #[test]
    fn standard_folds_match_the_named_set() {
        let boxed = standard_folds();
        let set = StandardFolds::new();
        let names: Vec<&str> = set.folds().iter().map(|f| f.name()).collect();
        assert_eq!(names, boxed.iter().map(|f| f.name()).collect::<Vec<_>>());
        let fragments = batch_fragments(dataset(), &Pool::new(1));
        assert_eq!(names, fragments.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    }

    #[test]
    fn ecdf_stats_locks_the_sample_multiset() {
        let a = Ecdf::from_ints([1, 2, 2, 9]);
        let b = Ecdf::from_ints([9, 2, 1, 2]);
        let c = Ecdf::from_ints([1, 2, 3, 9]);
        assert_eq!(ecdf_stats(&a), ecdf_stats(&b), "order-insensitive");
        assert_ne!(ecdf_stats(&a), ecdf_stats(&c), "value-sensitive");
    }
}
