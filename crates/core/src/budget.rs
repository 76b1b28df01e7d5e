//! Hard memory budget with deterministic cold-partition spill.
//!
//! A campaign that outgrows memory must degrade gracefully, not die in
//! an untyped allocator abort. This module provides the three pieces:
//!
//! 1. [`SpillableLog`] — an append-only log whose cold *prefix* can be
//!    evicted to disk while every global index stays valid. The
//!    discovery tweet and control logs are stored in one of these.
//! 2. [`MemoryBudget`] — the accountant. It tracks the encoded-size
//!    resident bytes of the big stores (the world
//!    [`TweetStore`](chatlens_twitter::store) floor, the per-day
//!    collected partitions, the columnar timeline store, fold ledgers)
//!    and, at every day boundary, evicts the coldest eligible
//!    day-partitions until the budget holds. Eviction order is a pure
//!    function of campaign state — coldest (lowest) day first, and days
//!    are already tie-broken by construction since each day is one
//!    partition — never of wall-clock or allocator behavior.
//! 3. [`BudgetError`] — the typed refusal at the bottom of the
//!    degradation ladder: spill what is eligible, and if the budget
//!    still cannot hold, return an error instead of aborting.
//!
//! # Why evicted partitions are frozen (the eligibility rule)
//!
//! A day-partition `p` is *eligible* for eviction after completed day
//! `d` iff
//!
//! * `p + RESIDENCY_DAYS <= d`, and
//! * `p < day_of(w.from)` for every pending backfill window `w`.
//!
//! The discovery merge path (`Discovery::ingest` on a `tweet_index`
//! hit) mutates the `via_search` / `via_stream` flags of a previously
//! collected tweet, so a partition may only be spilled once no future
//! merge can target it. Search redelivers tweets posted within
//! `SEARCH_WINDOW` (7 days) of *now*; such a tweet's original
//! collection day is at least its post day, which is `> d - 7` for any
//! future day `> d`. A pending stream/sample backfill window
//! `(from, to)` redelivers tweets posted in `[from, to]`, whose
//! original collection day is `>= day_of(from)`. Under the rule above
//! neither can reach a spilled partition, so spilled data is immutable
//! — which is also why a resume can fault partitions back by checksum
//! and trust them byte-for-byte.
//!
//! # Spill envelope and torn-file handling
//!
//! Each evicted day becomes one snapshot file (`dayNNN.part`) in the
//! spill directory, encoded with the ordinary checkpoint envelope
//! (magic, format version, length, SHA-256 trailer) via
//! [`encode_snapshot`]. All spill I/O rides the [`Vfs`], so it composes
//! with `--disk-fault flaky|torn`: after every write the file is read
//! back and compared to the encoded bytes, and a partition is only
//! dropped from memory once the read-back verifies. Torn or damaged
//! files are detected, rewritten (bounded retries), and every incident
//! is appended to `spill.ledger`.

use crate::discovery::{CollectedTweet, Discovery};
use crate::fold::DayMark;
use chatlens_checkpoint::{
    decode_snapshot, encode_snapshot, load_from_file_with, persist_struct, save_to_file_with,
    CheckpointError, FaultVfs, Persist, RealVfs, Vfs, Writer,
};
use chatlens_simnet::fault::DiskFaultProfile;
use chatlens_simnet::hash::sha256;
use chatlens_simnet::metrics::{keys, Metrics};
use chatlens_simnet::time::SimTime;
use chatlens_twitter::Tweet;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Days a partition must age before it is eligible for eviction. One
/// more than the 7-day search lookback window, so no future search
/// redelivery can merge into a spilled partition (see the module doc).
pub const RESIDENCY_DAYS: u32 = 8;

/// Write/read-back attempts per spill before the partition is kept
/// resident. With the torn profile's 25% fault rate, five attempts
/// bound the persistent-failure probability below 0.1%.
const SPILL_ATTEMPTS: u32 = 5;

/// Ledger file recording every spill incident, kept next to the
/// partitions. Written through [`RealVfs`] even under fault injection —
/// like the recovery ledger, it is the evidence log *about* faults.
pub const SPILL_LEDGER_FILE: &str = "spill.ledger";

// ---------------------------------------------------------------------------
// SpillableLog
// ---------------------------------------------------------------------------

/// An append-only log whose cold prefix may be spilled to disk.
///
/// Indices handed out by the log are *global*: `len()` counts spilled
/// and resident items alike, so every historical index (the discovery
/// `tweet_index`, day-mark cursors, fold ledger cursors) stays valid
/// across an eviction. Only the resident tail is addressable;
/// [`get_mut`](Self::get_mut) returns `None` for spilled indices, and
/// the slice accessors panic if asked to cross the spill boundary —
/// under the eligibility rule above, neither ever happens.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillableLog<T> {
    /// Number of spilled items (the global index of `items[0]`).
    base: usize,
    /// Resident tail, in append order.
    items: Vec<T>,
}

impl<T> Default for SpillableLog<T> {
    fn default() -> Self {
        SpillableLog::new()
    }
}

impl<T> SpillableLog<T> {
    /// An empty, fully resident log.
    pub fn new() -> SpillableLog<T> {
        SpillableLog {
            base: 0,
            items: Vec::new(),
        }
    }

    /// A fully resident log over `items`.
    pub fn from_vec(items: Vec<T>) -> SpillableLog<T> {
        SpillableLog { base: 0, items }
    }

    /// Rebuild from a checkpoint: `base` spilled items plus the
    /// resident tail.
    pub fn from_parts(base: usize, items: Vec<T>) -> SpillableLog<T> {
        SpillableLog { base, items }
    }

    /// Append one item.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Total items ever appended (spilled + resident).
    pub fn len(&self) -> usize {
        self.base + self.items.len()
    }

    /// Whether nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spilled items — the global index where the resident
    /// tail begins.
    pub fn base(&self) -> usize {
        self.base
    }

    /// The resident tail (global indices `base()..len()`).
    pub fn resident(&self) -> &[T] {
        &self.items
    }

    /// Item at global index `i`, if resident.
    pub fn get(&self, i: usize) -> Option<&T> {
        i.checked_sub(self.base).and_then(|r| self.items.get(r))
    }

    /// Mutable item at global index `i`, if resident. `None` means the
    /// item was spilled — callers relying on the eviction eligibility
    /// rule treat that as an invariant violation.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        i.checked_sub(self.base).and_then(|r| self.items.get_mut(r))
    }

    /// Slice of global index range `r`.
    ///
    /// # Panics
    /// Panics if the range starts before the spill boundary.
    pub fn slice(&self, r: Range<usize>) -> &[T] {
        assert!(
            r.start >= self.base,
            "global range {}..{} reaches below the spill boundary {}",
            r.start,
            r.end,
            self.base
        );
        &self.items[r.start - self.base..r.end - self.base]
    }

    /// A borrowed, `Copy` view of the log (for [`DayParts`]).
    ///
    /// [`DayParts`]: crate::fold::DayParts
    pub fn view(&self) -> LogView<'_, T> {
        LogView {
            base: self.base,
            items: &self.items,
        }
    }

    /// Iterate the resident tail.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Drop every item below global index `upto` (they must have been
    /// durably spilled first). The prefix property — spilled items form
    /// one contiguous run from index 0 — is preserved by construction.
    pub fn spill_to(&mut self, upto: usize) {
        assert!(
            upto >= self.base && upto <= self.len(),
            "spill_to({upto}) outside [{}, {}]",
            self.base,
            self.len()
        );
        self.items.drain(..upto - self.base);
        self.base = upto;
    }

    /// The resident tail as one vector: the whole log unless a prefix
    /// was spilled.
    pub fn into_resident(self) -> Vec<T> {
        self.items
    }
}

impl<'a, T> IntoIterator for &'a SpillableLog<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A borrowed view of a [`SpillableLog`] — `Copy`, like the slices it
/// replaces in [`DayParts`](crate::fold::DayParts).
#[derive(Debug)]
pub struct LogView<'a, T> {
    base: usize,
    items: &'a [T],
}

// Manual impls: a view is always Copy (it holds a shared slice), no
// `T: Copy` bound — the derive would demand one.
impl<T> Clone for LogView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for LogView<'_, T> {}

impl<'a, T> LogView<'a, T> {
    /// A view over a fully resident slice (global indices start at 0).
    pub fn of_slice(items: &'a [T]) -> LogView<'a, T> {
        LogView { base: 0, items }
    }

    /// Total items (spilled + resident), mirroring
    /// [`SpillableLog::len`].
    pub fn len(&self) -> usize {
        self.base + self.items.len()
    }

    /// Whether nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spilled items.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Slice of global index range `r`.
    ///
    /// # Panics
    /// Panics if the range starts before the spill boundary.
    pub fn slice(&self, r: Range<usize>) -> &'a [T] {
        assert!(
            r.start >= self.base,
            "global range {}..{} reaches below the spill boundary {}",
            r.start,
            r.end,
            self.base
        );
        &self.items[r.start - self.base..r.end - self.base]
    }
}

// ---------------------------------------------------------------------------
// Policy, errors, persisted state
// ---------------------------------------------------------------------------

/// The budget ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLimit {
    /// Hard ceiling in bytes on accounted resident size.
    Bytes(u64),
    /// Minimum viable budget: evict every eligible partition every day.
    /// This is the tightest deterministic residency the subsystem can
    /// offer, used by the budget-sweep experiments and CI smoke.
    Min,
}

/// Where and how to spill.
#[derive(Debug, Clone)]
pub struct BudgetPolicy {
    /// The ceiling.
    pub limit: BudgetLimit,
    /// Directory for spill partitions and the spill ledger.
    pub dir: PathBuf,
    /// Disk-fault injection profile for spill I/O (composes with the
    /// checkpoint `--disk-fault` story; the ledger itself always rides
    /// the real filesystem).
    pub disk_fault: DiskFaultProfile,
}

impl BudgetPolicy {
    /// A calm-disk policy with the given limit.
    pub fn new(limit: BudgetLimit, dir: impl Into<PathBuf>) -> BudgetPolicy {
        BudgetPolicy {
            limit,
            dir: dir.into(),
            disk_fault: DiskFaultProfile::Calm,
        }
    }

    /// The virtual filesystem spill I/O runs through. Faulty profiles
    /// fork the deterministic `("checkpoint", "disk")` RNG stream keyed
    /// by the campaign seed, exactly like checkpoint I/O.
    pub fn vfs(&self, seed: u64) -> Box<dyn Vfs> {
        match self.disk_fault {
            DiskFaultProfile::Calm => Box::new(RealVfs),
            profile => Box::new(FaultVfs::new(seed, profile.rates())),
        }
    }
}

/// Typed refusal: the bottom rung of the degradation ladder. A budgeted
/// campaign never aborts on memory pressure — it spills what is
/// eligible and otherwise returns one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// The budget is below the irreducible accounting floor (the world
    /// tweet store), so no amount of spilling can satisfy it.
    TooSmall {
        /// Requested budget in bytes.
        budget: u64,
        /// Irreducible floor in bytes.
        floor: u64,
    },
    /// Every eligible partition is spilled and the resident set still
    /// exceeds the budget.
    Exceeded {
        /// Accounted resident bytes after maximal eviction.
        resident: u64,
        /// The budget in bytes.
        budget: u64,
        /// Number of completed study days at refusal.
        day: u32,
    },
    /// A partition could not be durably spilled within the retry bound
    /// (persistent disk faults), and dropping it unverified would risk
    /// the data.
    SpillFailed {
        /// The day-partition that would not persist.
        day: u32,
        /// Attempts made.
        attempts: u32,
    },
    /// A spill partition failed verification at fault-back or resume
    /// (checksum/count mismatch against the manifest).
    Damaged {
        /// The day-partition.
        day: u32,
        /// What went wrong.
        detail: String,
    },
    /// A resume's budget policy is incompatible with the budget state
    /// recorded in the snapshot.
    ResumeMismatch(String),
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::TooSmall { budget, floor } => write!(
                f,
                "memory budget of {budget} B is below the irreducible floor of {floor} B \
                 (the world tweet store cannot be spilled)"
            ),
            BudgetError::Exceeded {
                resident,
                budget,
                day,
            } => write!(
                f,
                "resident set of {resident} B exceeds the {budget} B budget after day {day} \
                 with every eligible partition already spilled"
            ),
            BudgetError::SpillFailed { day, attempts } => write!(
                f,
                "day {day} partition could not be durably spilled after {attempts} attempt(s)"
            ),
            BudgetError::Damaged { day, detail } => {
                write!(f, "day {day} spill partition damaged: {detail}")
            }
            BudgetError::ResumeMismatch(msg) => write!(f, "budget resume mismatch: {msg}"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Manifest entry for one spilled day-partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillPartition {
    /// Zero-based study day the partition covers.
    pub day: u32,
    /// Collected tweets in the partition.
    pub tweets: u64,
    /// Control tweets in the partition.
    pub control: u64,
    /// Size of the encoded partition file in bytes.
    pub encoded_bytes: u64,
    /// SHA-256 of the complete partition file.
    pub sha256: Vec<u8>,
}

persist_struct!(SpillPartition {
    day,
    tweets,
    control,
    encoded_bytes,
    sha256,
});

/// The budget accountant's persisted state (checkpoint format v6,
/// `CampaignState::budget`). Everything needed so a kill/resume under a
/// budget replays to byte-identical reports: the limit, the accounting
/// floor, the per-day encoded sizes (including spilled days), the spill
/// manifest, and the observability counters.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetState {
    /// Byte ceiling; `u64::MAX` encodes [`BudgetLimit::Min`].
    pub limit_bytes: u64,
    /// Whether the limit is the minimum-viable mode.
    pub min_mode: bool,
    /// Irreducible floor (world tweet store) in bytes.
    pub floor: u64,
    /// Encoded bytes of tweets collected on each completed day.
    pub day_tweet_bytes: Vec<u64>,
    /// Encoded bytes of control tweets collected on each completed day.
    pub day_control_bytes: Vec<u64>,
    /// Spilled day-partitions, ascending day (always a prefix `0..n`).
    pub manifest: Vec<SpillPartition>,
    /// Partitions evicted so far.
    pub evictions: u64,
    /// Partitions faulted back from disk so far.
    pub faults: u64,
    /// Total encoded bytes spilled.
    pub spilled_bytes: u64,
    /// Torn/damaged spill files detected (and recovered from).
    pub torn_detected: u64,
    /// Peak accounted resident bytes observed at any boundary.
    pub resident_peak: u64,
}

persist_struct!(BudgetState {
    limit_bytes,
    min_mode,
    floor,
    day_tweet_bytes,
    day_control_bytes,
    manifest,
    evictions,
    faults,
    spilled_bytes,
    torn_detected,
    resident_peak,
});

/// One spilled day-partition's payload: the day's append run of the
/// discovery tweet and control logs, wrapped in the standard snapshot
/// envelope on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillPartitionData {
    /// Zero-based study day.
    pub day: u32,
    /// Tweets first collected on this day (global append order).
    pub tweets: Vec<CollectedTweet>,
    /// Control tweets collected on this day (global append order).
    pub control: Vec<Tweet>,
}

persist_struct!(SpillPartitionData {
    day,
    tweets,
    control,
});

// ---------------------------------------------------------------------------
// Spill ledger
// ---------------------------------------------------------------------------

/// What happened to a spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillIncidentKind {
    /// `write_atomic` returned an error (no space, rename failure).
    WriteFailed,
    /// The write reported success but the read-back did not match the
    /// encoded bytes — a torn or short write landed (or nothing did).
    TornDetected,
    /// A read returned damaged bytes (bit rot) and was retried.
    ReadDamaged,
    /// A rewrite after a detected incident verified successfully.
    Rewritten,
    /// The partition could not be durably spilled within the retry
    /// bound and was kept resident.
    KeptResident,
}

impl Persist for SpillIncidentKind {
    fn save(&self, w: &mut Writer) {
        w.put_u8(match self {
            SpillIncidentKind::WriteFailed => 0,
            SpillIncidentKind::TornDetected => 1,
            SpillIncidentKind::ReadDamaged => 2,
            SpillIncidentKind::Rewritten => 3,
            SpillIncidentKind::KeptResident => 4,
        });
    }
    fn load(
        r: &mut chatlens_checkpoint::Reader<'_>,
    ) -> Result<Self, chatlens_checkpoint::CheckpointError> {
        Ok(match r.get_u8()? {
            0 => SpillIncidentKind::WriteFailed,
            1 => SpillIncidentKind::TornDetected,
            2 => SpillIncidentKind::ReadDamaged,
            3 => SpillIncidentKind::Rewritten,
            4 => SpillIncidentKind::KeptResident,
            n => {
                return Err(chatlens_checkpoint::CheckpointError::Malformed(format!(
                    "unknown spill incident kind {n}"
                )))
            }
        })
    }
}

impl fmt::Display for SpillIncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpillIncidentKind::WriteFailed => "write-failed",
            SpillIncidentKind::TornDetected => "torn-detected",
            SpillIncidentKind::ReadDamaged => "read-damaged",
            SpillIncidentKind::Rewritten => "rewritten",
            SpillIncidentKind::KeptResident => "kept-resident",
        })
    }
}

/// One entry in the spill ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillIncident {
    /// The day-partition involved.
    pub day: u32,
    /// Partition file name.
    pub file: String,
    /// What happened.
    pub kind: SpillIncidentKind,
    /// 1-based attempt number within the bounded retry loop.
    pub attempt: u32,
}

persist_struct!(SpillIncident {
    day,
    file,
    kind,
    attempt,
});

/// Load the spill ledger from a spill directory (empty if absent).
pub fn load_spill_ledger(dir: &Path) -> Vec<SpillIncident> {
    load_from_file_with(&mut RealVfs, &dir.join(SPILL_LEDGER_FILE)).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

/// Per-run budget statistics, surfaced by the CLI and the `mem` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetStats {
    /// The byte ceiling, `None` for [`BudgetLimit::Min`].
    pub limit: Option<u64>,
    /// Irreducible floor (world tweet store) in bytes.
    pub floor: u64,
    /// Accounted resident bytes at the final boundary.
    pub resident_final: u64,
    /// Peak accounted resident bytes at any boundary.
    pub resident_peak: u64,
    /// Total encoded bytes spilled.
    pub spilled_bytes: u64,
    /// Spilled day-partitions on disk.
    pub partitions: u64,
    /// Eviction operations performed.
    pub evictions: u64,
    /// Partitions faulted back from disk.
    pub faults: u64,
    /// Torn/damaged spill incidents detected.
    pub torn_detected: u64,
}

/// The memory-budget accountant: encoded-size accounting, deterministic
/// cold-partition eviction, verified spill I/O, transparent fault-back.
pub struct MemoryBudget {
    limit: BudgetLimit,
    dir: PathBuf,
    vfs: Box<dyn Vfs>,
    floor: u64,
    day_tweet_bytes: Vec<u64>,
    day_control_bytes: Vec<u64>,
    manifest: Vec<SpillPartition>,
    evictions: u64,
    faults: u64,
    spilled_bytes: u64,
    torn_detected: u64,
    resident_now: u64,
    resident_peak: u64,
    pending_incidents: Vec<SpillIncident>,
}

impl fmt::Debug for MemoryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryBudget")
            .field("limit", &self.limit)
            .field("dir", &self.dir)
            .field("floor", &self.floor)
            .field("spilled_days", &self.manifest.len())
            .field("resident_now", &self.resident_now)
            .finish_non_exhaustive()
    }
}

impl MemoryBudget {
    /// Attach a budget to a fresh campaign. `floor` is the irreducible
    /// accounted size (the world tweet store's
    /// [`encoded_bytes`](chatlens_twitter::store::TweetStore::encoded_bytes)).
    /// Fails fast with [`BudgetError::TooSmall`] if the ceiling is
    /// below the floor.
    pub fn attach(
        policy: &BudgetPolicy,
        seed: u64,
        floor: u64,
    ) -> Result<MemoryBudget, BudgetError> {
        if let BudgetLimit::Bytes(limit) = policy.limit {
            if limit < floor {
                return Err(BudgetError::TooSmall {
                    budget: limit,
                    floor,
                });
            }
        }
        Ok(MemoryBudget {
            limit: policy.limit,
            dir: policy.dir.clone(),
            vfs: policy.vfs(seed),
            floor,
            day_tweet_bytes: Vec::new(),
            day_control_bytes: Vec::new(),
            manifest: Vec::new(),
            evictions: 0,
            faults: 0,
            spilled_bytes: 0,
            torn_detected: 0,
            resident_now: floor,
            resident_peak: floor,
            pending_incidents: Vec::new(),
        })
    }

    /// Rebuild the accountant from a v6 snapshot. The policy's limit
    /// must match the snapshot's (a budgeted snapshot resumed under a
    /// different ceiling would diverge from the uninterrupted run).
    pub fn resume(
        state: &BudgetState,
        policy: &BudgetPolicy,
        seed: u64,
    ) -> Result<MemoryBudget, BudgetError> {
        let snapshot_limit = if state.min_mode {
            BudgetLimit::Min
        } else {
            BudgetLimit::Bytes(state.limit_bytes)
        };
        if policy.limit != snapshot_limit {
            return Err(BudgetError::ResumeMismatch(format!(
                "snapshot was taken under {:?}, resume requested {:?}",
                snapshot_limit, policy.limit
            )));
        }
        Ok(MemoryBudget {
            limit: policy.limit,
            dir: policy.dir.clone(),
            vfs: policy.vfs(seed),
            floor: state.floor,
            day_tweet_bytes: state.day_tweet_bytes.clone(),
            day_control_bytes: state.day_control_bytes.clone(),
            manifest: state.manifest.clone(),
            evictions: state.evictions,
            faults: state.faults,
            spilled_bytes: state.spilled_bytes,
            torn_detected: state.torn_detected,
            resident_now: state.floor,
            resident_peak: state.resident_peak,
            pending_incidents: Vec::new(),
        })
    }

    /// Capture the persisted state for a checkpoint.
    pub fn state(&self) -> BudgetState {
        let (limit_bytes, min_mode) = match self.limit {
            BudgetLimit::Bytes(b) => (b, false),
            BudgetLimit::Min => (u64::MAX, true),
        };
        BudgetState {
            limit_bytes,
            min_mode,
            floor: self.floor,
            day_tweet_bytes: self.day_tweet_bytes.clone(),
            day_control_bytes: self.day_control_bytes.clone(),
            manifest: self.manifest.clone(),
            evictions: self.evictions,
            faults: self.faults,
            spilled_bytes: self.spilled_bytes,
            torn_detected: self.torn_detected,
            resident_peak: self.resident_peak,
        }
    }

    /// The spill manifest (ascending day).
    pub fn manifest(&self) -> &[SpillPartition] {
        &self.manifest
    }

    /// Current statistics.
    pub fn stats(&self) -> BudgetStats {
        BudgetStats {
            limit: match self.limit {
                BudgetLimit::Bytes(b) => Some(b),
                BudgetLimit::Min => None,
            },
            floor: self.floor,
            resident_final: self.resident_now,
            resident_peak: self.resident_peak,
            spilled_bytes: self.spilled_bytes,
            partitions: self.manifest.len() as u64,
            evictions: self.evictions,
            faults: self.faults,
            torn_detected: self.torn_detected,
        }
    }

    /// The budget counters as a metrics registry (the `budget.*` keys).
    /// Kept in the accountant's own registry, never the dataset's: the
    /// campaign report's counter digest is a frozen byte contract and a
    /// budgeted run must reproduce an unbudgeted run's bytes exactly.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.add(keys::BUDGET_RESIDENT_BYTES, self.resident_now);
        m.add(keys::BUDGET_RESIDENT_PEAK_BYTES, self.resident_peak);
        m.add(keys::BUDGET_SPILLED_BYTES, self.spilled_bytes);
        m.add(keys::BUDGET_EVICTIONS, self.evictions);
        m.add(keys::BUDGET_FAULTS, self.faults);
        m.add(keys::BUDGET_TORN_DETECTED, self.torn_detected);
        m
    }

    fn partition_path(&self, day: u32) -> PathBuf {
        self.dir.join(format!("day{day:03}.part"))
    }

    fn ledger(&mut self, day: u32, kind: SpillIncidentKind, attempt: u32) {
        let file = format!("day{day:03}.part");
        if matches!(
            kind,
            SpillIncidentKind::TornDetected | SpillIncidentKind::ReadDamaged
        ) {
            self.torn_detected += 1;
        }
        self.pending_incidents.push(SpillIncident {
            day,
            file,
            kind,
            attempt,
        });
    }

    /// Flush buffered incidents to `spill.ledger` (append semantics:
    /// read, extend, rewrite — like the chain recovery ledger, always
    /// on the real filesystem).
    fn flush_ledger(&mut self) {
        if self.pending_incidents.is_empty() {
            return;
        }
        let mut entries = load_spill_ledger(&self.dir);
        entries.append(&mut self.pending_incidents);
        let path = self.dir.join(SPILL_LEDGER_FILE);
        if let Err(e) = save_to_file_with(&mut RealVfs, &path, &entries) {
            eprintln!("# spill ledger write failed: {e}");
        }
    }

    /// Accounted resident bytes right now: floor + resident day
    /// partitions + the boundary charges passed to the last
    /// [`enforce`](Self::enforce).
    pub fn resident(&self) -> u64 {
        self.resident_now
    }

    fn resident_partitions(&self) -> u64 {
        let spilled = self.manifest.len();
        self.day_tweet_bytes[spilled..].iter().sum::<u64>()
            + self.day_control_bytes[spilled..].iter().sum::<u64>()
    }

    /// Day-boundary enforcement, called after each completed study day
    /// (and therefore never on the request hot path):
    ///
    /// 1. charge the just-completed day's appends at encoded size;
    /// 2. evict eligible cold partitions — all of them under
    ///    [`BudgetLimit::Min`], until the ceiling holds under
    ///    [`BudgetLimit::Bytes`];
    /// 3. if the ceiling still does not hold, refuse with a typed
    ///    [`BudgetError`] (never abort).
    ///
    /// `window_start` dates the pending backfill windows.
    pub fn enforce(
        &mut self,
        completed_days: u32,
        marks: &[DayMark],
        discovery: &mut Discovery,
        window_start: SimTime,
        timeline_bytes: u64,
        fold_bytes: u64,
    ) -> Result<(), BudgetError> {
        debug_assert_eq!(marks.len(), completed_days as usize);
        // 1. Charge newly completed days (normally exactly one).
        while self.day_tweet_bytes.len() < completed_days as usize {
            let d = self.day_tweet_bytes.len();
            let (tw_lo, ct_lo) = if d == 0 {
                (0, 0)
            } else {
                (marks[d - 1].tweets as usize, marks[d - 1].control as usize)
            };
            let (tw_hi, ct_hi) = (marks[d].tweets as usize, marks[d].control as usize);
            let mut w = Writer::new();
            for ct in discovery.tweets.slice(tw_lo..tw_hi) {
                ct.save(&mut w);
            }
            self.day_tweet_bytes.push(w.len() as u64);
            let mut w = Writer::new();
            for tw in discovery.control.slice(ct_lo..ct_hi) {
                tw.save(&mut w);
            }
            self.day_control_bytes.push(w.len() as u64);
        }

        // 2. Evict cold partitions, coldest (lowest day) first. The
        // order is a pure function of campaign state: day indices,
        // mark cursors and pending-window days — never wall-clock,
        // never allocator behavior.
        let age_limit = completed_days.saturating_sub(RESIDENCY_DAYS);
        let eligible_end = match discovery.min_pending_window_day(window_start) {
            Some(d) => age_limit.min(d),
            None => age_limit,
        };
        let over = |resident: u64, limit: BudgetLimit| match limit {
            BudgetLimit::Bytes(b) => resident > b,
            BudgetLimit::Min => true,
        };
        let mut resident = self.floor + self.resident_partitions() + timeline_bytes + fold_bytes;
        let mut spill_stuck: Option<(u32, u32)> = None;
        while over(resident, self.limit) && (self.manifest.len() as u32) < eligible_end {
            let day = self.manifest.len() as u32;
            match self.spill_partition(day, marks, discovery) {
                Ok(()) => {
                    resident =
                        self.floor + self.resident_partitions() + timeline_bytes + fold_bytes;
                }
                Err(attempts) => {
                    // Keep the partition resident; the prefix property
                    // forbids skipping ahead to a warmer day.
                    self.ledger(day, SpillIncidentKind::KeptResident, attempts);
                    spill_stuck = Some((day, attempts));
                    break;
                }
            }
        }
        self.flush_ledger();
        self.resident_now = resident;
        self.resident_peak = self.resident_peak.max(resident);
        if let BudgetLimit::Bytes(b) = self.limit {
            if resident > b {
                if let Some((day, attempts)) = spill_stuck {
                    return Err(BudgetError::SpillFailed { day, attempts });
                }
                if (self.manifest.len() as u32) >= eligible_end {
                    return Err(BudgetError::Exceeded {
                        resident,
                        budget: b,
                        day: completed_days,
                    });
                }
            }
        }
        Ok(())
    }

    /// Spill one day-partition with verified, bounded-retry I/O. Only
    /// on a successful read-back verification are the items dropped
    /// from the resident log. Returns the attempt count on persistent
    /// failure.
    fn spill_partition(
        &mut self,
        day: u32,
        marks: &[DayMark],
        discovery: &mut Discovery,
    ) -> Result<(), u32> {
        let d = day as usize;
        let (tw_lo, ct_lo) = if d == 0 {
            (0, 0)
        } else {
            (marks[d - 1].tweets as usize, marks[d - 1].control as usize)
        };
        let (tw_hi, ct_hi) = (marks[d].tweets as usize, marks[d].control as usize);
        assert_eq!(
            tw_lo,
            discovery.tweets.base(),
            "spill must advance the contiguous cold prefix"
        );
        let data = SpillPartitionData {
            day,
            tweets: discovery.tweets.slice(tw_lo..tw_hi).to_vec(),
            control: discovery.control.slice(ct_lo..ct_hi).to_vec(),
        };
        let bytes = encode_snapshot(&data);
        let path = self.partition_path(day);
        let mut attempt = 0u32;
        while attempt < SPILL_ATTEMPTS {
            attempt += 1;
            if let Err(_e) = self.vfs.write_atomic(&path, &bytes) {
                self.ledger(day, SpillIncidentKind::WriteFailed, attempt);
                continue;
            }
            // Read back and verify before dropping anything from
            // memory. A read mismatch is either read-side bit rot (the
            // file is fine — retry the read) or a torn/short write
            // that landed (rewrite). Two reads disambiguate: bit rot
            // flips a bit in the returned buffer only.
            let mut verified = false;
            let mut torn = false;
            for _ in 0..2 {
                match self.vfs.read(&path) {
                    Ok(file) if file == bytes => {
                        verified = true;
                        break;
                    }
                    Ok(_) => {
                        torn = true;
                        self.ledger(day, SpillIncidentKind::ReadDamaged, attempt);
                    }
                    Err(_) => {
                        torn = true;
                        self.ledger(day, SpillIncidentKind::TornDetected, attempt);
                    }
                }
            }
            if verified {
                if attempt > 1 {
                    self.ledger(day, SpillIncidentKind::Rewritten, attempt);
                }
                discovery.tweets.spill_to(tw_hi);
                discovery.control.spill_to(ct_hi);
                self.manifest.push(SpillPartition {
                    day,
                    tweets: (tw_hi - tw_lo) as u64,
                    control: (ct_hi - ct_lo) as u64,
                    encoded_bytes: bytes.len() as u64,
                    sha256: sha256(&bytes).to_vec(),
                });
                self.evictions += 1;
                self.spilled_bytes += bytes.len() as u64;
                return Ok(());
            }
            if torn {
                self.ledger(day, SpillIncidentKind::TornDetected, attempt);
            }
        }
        Err(attempt)
    }

    /// Fault one spilled partition back from disk, verifying it
    /// against the manifest (checksum, counts). Damaged reads are
    /// retried (read-side bit rot leaves the file intact) and
    /// ledgered; a persistent mismatch is a typed error.
    pub fn read_partition(&mut self, day: u32) -> Result<SpillPartitionData, BudgetError> {
        let entry = self
            .manifest
            .iter()
            .find(|p| p.day == day)
            .cloned()
            .ok_or_else(|| BudgetError::Damaged {
                day,
                detail: "not in the spill manifest".into(),
            })?;
        let path = self.partition_path(day);
        let mut last: Option<String> = None;
        for attempt in 1..=SPILL_ATTEMPTS {
            let file = match self.vfs.read(&path) {
                Ok(f) => f,
                Err(e) => {
                    self.ledger(day, SpillIncidentKind::ReadDamaged, attempt);
                    last = Some(e.to_string());
                    continue;
                }
            };
            if sha256(&file).as_slice() != entry.sha256.as_slice() {
                self.ledger(day, SpillIncidentKind::ReadDamaged, attempt);
                last = Some("checksum mismatch".into());
                continue;
            }
            match decode_snapshot::<SpillPartitionData>(&file) {
                Ok(data) => {
                    if data.day != day
                        || data.tweets.len() as u64 != entry.tweets
                        || data.control.len() as u64 != entry.control
                    {
                        self.flush_ledger();
                        return Err(BudgetError::Damaged {
                            day,
                            detail: "manifest/count mismatch".into(),
                        });
                    }
                    self.faults += 1;
                    self.flush_ledger();
                    return Ok(data);
                }
                Err(e) => {
                    self.ledger(day, SpillIncidentKind::ReadDamaged, attempt);
                    last = Some(e.to_string());
                }
            }
        }
        self.flush_ledger();
        Err(BudgetError::Damaged {
            day,
            detail: last.unwrap_or_else(|| "unreadable".into()),
        })
    }

    /// Re-register the ids of spilled tweets and control tweets into
    /// the discovery dedup indexes after a resume. Each manifest
    /// partition is faulted exactly once, in day order, and the global
    /// append indices are reconstructed arithmetically.
    pub fn reindex_spilled(&mut self, discovery: &mut Discovery) -> Result<(), BudgetError> {
        let days: Vec<u32> = self.manifest.iter().map(|p| p.day).collect();
        let mut next_global = 0usize;
        for day in days {
            let data = self.read_partition(day)?;
            let ids = data
                .tweets
                .iter()
                .enumerate()
                .map(|(i, ct)| (ct.tweet.id.0, next_global + i))
                .collect::<Vec<_>>();
            next_global += data.tweets.len();
            let control_ids = data.control.iter().map(|t| t.id.0).collect::<Vec<_>>();
            discovery.index_spilled(ids, control_ids);
        }
        debug_assert_eq!(next_global, discovery.tweets.base());
        Ok(())
    }
}

/// Checkpoint-compatible error conversion for spill I/O plumbed
/// through checkpoint entry points.
impl From<CheckpointError> for BudgetError {
    fn from(e: CheckpointError) -> BudgetError {
        BudgetError::Damaged {
            day: u32::MAX,
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spillable_log_global_indexing() {
        let mut log = SpillableLog::from_vec(vec![10, 11, 12, 13, 14]);
        assert_eq!(log.len(), 5);
        assert_eq!(log.slice(1..3), &[11, 12]);
        log.spill_to(2);
        assert_eq!(log.len(), 5);
        assert_eq!(log.base(), 2);
        assert_eq!(log.get(1), None);
        assert_eq!(log.get(2), Some(&12));
        assert_eq!(log.get_mut(4), Some(&mut 14));
        assert_eq!(log.slice(2..5), &[12, 13, 14]);
        log.push(15);
        assert_eq!(log.len(), 6);
        assert_eq!(log.resident(), &[12, 13, 14, 15]);
        let v = log.view();
        assert_eq!(v.len(), 6);
        assert_eq!(v.slice(3..5), &[13, 14]);
    }

    #[test]
    #[should_panic(expected = "spill boundary")]
    fn spillable_log_slice_below_base_panics() {
        let mut log = SpillableLog::from_vec(vec![1, 2, 3]);
        log.spill_to(2);
        let _ = log.slice(0..3);
    }

    #[test]
    fn into_resident_keeps_only_the_unspilled_tail() {
        let mut log = SpillableLog::from_vec(vec![1, 2, 3]);
        log.spill_to(1);
        assert_eq!(log.into_resident(), vec![2, 3]);
    }

    #[test]
    fn budget_state_round_trips() {
        let state = BudgetState {
            limit_bytes: 1 << 20,
            min_mode: false,
            floor: 4096,
            day_tweet_bytes: vec![100, 200],
            day_control_bytes: vec![10, 20],
            manifest: vec![SpillPartition {
                day: 0,
                tweets: 3,
                control: 1,
                encoded_bytes: 111,
                sha256: vec![7; 32],
            }],
            evictions: 1,
            faults: 2,
            spilled_bytes: 111,
            torn_detected: 0,
            resident_peak: 5000,
        };
        let bytes = encode_snapshot(&state);
        let back: BudgetState = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn too_small_budget_is_typed() {
        let policy = BudgetPolicy::new(BudgetLimit::Bytes(10), "/tmp/never-used");
        let err = MemoryBudget::attach(&policy, 1, 1000).unwrap_err();
        assert_eq!(
            err,
            BudgetError::TooSmall {
                budget: 10,
                floor: 1000
            }
        );
    }

    #[test]
    fn incident_kind_round_trips() {
        for kind in [
            SpillIncidentKind::WriteFailed,
            SpillIncidentKind::TornDetected,
            SpillIncidentKind::ReadDamaged,
            SpillIncidentKind::Rewritten,
            SpillIncidentKind::KeptResident,
        ] {
            let mut w = Writer::new();
            kind.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = chatlens_checkpoint::Reader::new(&bytes);
            assert_eq!(SpillIncidentKind::load(&mut r).unwrap(), kind);
        }
    }
}
