//! Self-healing checkpoint chains: walk a per-day snapshot directory
//! backwards past damaged files to the newest valid state, and keep an
//! auditable ledger of everything that was skipped.
//!
//! A checkpointed campaign leaves a *chain* of `dayNNN.ckpt` files. Under
//! a healthy disk the newest one is always loadable; under the injected
//! (or real) fault taxonomy any link can be torn (only the `.tmp` sibling
//! landed), truncated, bit-rotten, or missing outright. Recovery policy:
//!
//! 1. [`recover_latest`] walks the chain from the newest day down,
//!    attempting each snapshot in turn. The first one that decodes wins;
//!    every rejected link becomes a typed [`RecoveryEntry`].
//! 2. The skips are appended to a persisted [`RecoveryLedger`]
//!    (`recovery.ledger`, itself a checksummed snapshot) so `repro
//!    checkpoint inspect` can show the damage history after the fact.
//! 3. The caller replays the lost days from the recovered state — the
//!    campaign is a pure function of `(seed, config)`, so the final
//!    report is byte-identical to a fault-free run.
//!
//! [`verify_chain`] and [`repair_chain`] are the operator surface behind
//! `repro checkpoint verify --all` / `repair`: verification classifies
//! every link without touching it; repair moves invalid links and orphan
//! `.tmp` files into a `quarantine/` subdirectory so the directory again
//! contains only loadable snapshots.
//!
//! The ledger is always written through [`RealVfs`]: the fault domain
//! must not be able to erase its own audit trail.

use crate::codec::Persist;
use crate::error::CheckpointError;
use crate::snapshot::{load_from_file_with, save_to_file_with};
use crate::vfs::{tmp_sibling, RealVfs, Vfs};
use crate::{persist_enum, persist_struct};
use std::path::Path;

/// File name of the persisted recovery ledger inside a checkpoint
/// directory.
pub const LEDGER_FILE: &str = "recovery.ledger";

/// Directory name invalid snapshots are moved into by [`repair_chain`].
pub const QUARANTINE_DIR: &str = "quarantine";

/// The canonical snapshot file name for a campaign day.
pub fn snapshot_file_name(day: u32) -> String {
    format!("day{day:03}.ckpt")
}

/// Parse a campaign day out of a `dayNNN.ckpt` file name.
fn parse_snapshot_day(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("day")?.strip_suffix(".ckpt")?;
    if digits.len() != 3 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Why a chain link was passed over during recovery — the ledger-facing
/// mirror of [`CheckpointError`], plus `Missing` for links that left only
/// a `.tmp` sibling (the torn-write signature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// No snapshot file at all — typically a torn write (only the `.tmp`
    /// sibling landed) or an `ENOSPC` save that never started.
    Missing,
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file was written by a different format generation.
    VersionMismatch,
    /// The checksum does not match — bit-rot or a mangled transfer.
    ChecksumMismatch,
    /// The file ends mid-structure — a short write.
    Truncated,
    /// The bytes decoded structurally but described an impossible value.
    Malformed,
    /// The filesystem refused the read.
    Io,
}

impl SkipReason {
    /// Every skip reason, in tag order.
    pub const ALL: [SkipReason; 7] = [
        SkipReason::Missing,
        SkipReason::BadMagic,
        SkipReason::VersionMismatch,
        SkipReason::ChecksumMismatch,
        SkipReason::Truncated,
        SkipReason::Malformed,
        SkipReason::Io,
    ];

    /// Stable label for ledgers and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SkipReason::Missing => "missing",
            SkipReason::BadMagic => "bad-magic",
            SkipReason::VersionMismatch => "version-mismatch",
            SkipReason::ChecksumMismatch => "checksum-mismatch",
            SkipReason::Truncated => "truncated",
            SkipReason::Malformed => "malformed",
            SkipReason::Io => "io",
        }
    }

    /// Classify a decode/read failure.
    pub fn of(err: &CheckpointError) -> SkipReason {
        match err {
            CheckpointError::BadMagic => SkipReason::BadMagic,
            CheckpointError::VersionMismatch { .. } => SkipReason::VersionMismatch,
            CheckpointError::ChecksumMismatch => SkipReason::ChecksumMismatch,
            CheckpointError::Truncated => SkipReason::Truncated,
            CheckpointError::Malformed(_) => SkipReason::Malformed,
            CheckpointError::Io(_) => SkipReason::Io,
        }
    }
}

impl Persist for SkipReason {
    fn save(&self, w: &mut crate::Writer) {
        let tag = SkipReason::ALL
            .iter()
            .position(|r| r == self)
            .expect("every variant is in ALL") as u8;
        w.put_u8(tag);
    }
    fn load(r: &mut crate::Reader<'_>) -> Result<Self, CheckpointError> {
        let tag = r.get_u8()?;
        SkipReason::ALL
            .get(tag as usize)
            .copied()
            .ok_or_else(|| CheckpointError::Malformed(format!("SkipReason tag {tag}")))
    }
}

/// What recovery (or repair) did about a damaged link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The link was passed over during a resume; the file (if any) was
    /// left where it was.
    Skipped,
    /// `repro checkpoint repair` moved the file into `quarantine/`.
    Quarantined,
}

impl RecoveryAction {
    /// Stable label for ledgers and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryAction::Skipped => "skipped",
            RecoveryAction::Quarantined => "quarantined",
        }
    }
}

persist_enum!(RecoveryAction {
    0 => Skipped,
    1 => Quarantined,
});

/// One damaged chain link: which day, which file, what was wrong, and
/// what was done about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEntry {
    /// Campaign day the snapshot covered.
    pub day: u32,
    /// File name (relative to the checkpoint directory).
    pub file: String,
    /// Why the snapshot was unusable.
    pub reason: SkipReason,
    /// What recovery did about it.
    pub action: RecoveryAction,
}

persist_struct!(RecoveryEntry {
    day,
    file,
    reason,
    action,
});

/// The persisted history of every snapshot recovery has skipped or
/// quarantined in a checkpoint directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryLedger {
    /// Entries in append order (deduplicated on append).
    pub entries: Vec<RecoveryEntry>,
}

persist_struct!(RecoveryLedger { entries });

/// Load the recovery ledger of a checkpoint directory. A missing or
/// unreadable ledger is an empty one: the ledger is an audit trail, and
/// its own corruption must never block a resume.
pub fn load_ledger(dir: &Path) -> RecoveryLedger {
    load_from_file_with(&mut RealVfs, &dir.join(LEDGER_FILE)).unwrap_or_default()
}

/// Append `entries` to the directory's recovery ledger, skipping exact
/// duplicates (recovering twice from the same damage must not double the
/// audit trail). Always writes through [`RealVfs`] — the fault domain
/// cannot erase its own evidence.
pub fn append_ledger(dir: &Path, entries: &[RecoveryEntry]) -> Result<(), CheckpointError> {
    if entries.is_empty() {
        return Ok(());
    }
    let mut ledger = load_ledger(dir);
    let mut grew = false;
    for e in entries {
        if !ledger.entries.contains(e) {
            ledger.entries.push(e.clone());
            grew = true;
        }
    }
    if grew {
        save_to_file_with(&mut RealVfs, &dir.join(LEDGER_FILE), &ledger)?;
    }
    Ok(())
}

/// The days with on-disk evidence of a snapshot attempt: either the
/// `dayNNN.ckpt` file itself or its orphaned `.tmp` sibling (the torn
/// write signature). Sorted ascending.
pub fn chain_days(vfs: &mut dyn Vfs, dir: &Path) -> Result<Vec<u32>, CheckpointError> {
    let mut days = Vec::new();
    for path in vfs.list_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let day =
            parse_snapshot_day(name).or_else(|| parse_snapshot_day(name.strip_suffix(".tmp")?));
        if let Some(day) = day {
            if !days.contains(&day) {
                days.push(day);
            }
        }
    }
    days.sort_unstable();
    Ok(days)
}

/// The result of walking a chain backwards: the newest valid state (or
/// `None` if every link was damaged — the caller starts fresh), the day
/// it covers, and every link skipped on the way down.
#[derive(Debug)]
pub struct Recovered<T> {
    /// Day of the recovered snapshot (0 when starting fresh).
    pub day: u32,
    /// The recovered state, or `None` when no valid snapshot survived.
    pub state: Option<T>,
    /// Links rejected on the way down, newest first.
    pub skipped: Vec<RecoveryEntry>,
}

/// Walk the chain in `dir` from the newest day (or `up_to`, if given)
/// downwards, returning the first snapshot that decodes. Every rejected
/// link — damaged file or torn-write `.tmp` orphan — becomes a
/// [`RecoveryEntry`] with action [`RecoveryAction::Skipped`]. The caller
/// is responsible for persisting the skips via [`append_ledger`] (kept
/// separate so a read-only `verify` can reuse this walk).
pub fn recover_latest<T: Persist>(
    vfs: &mut dyn Vfs,
    dir: &Path,
    up_to: Option<u32>,
) -> Result<Recovered<T>, CheckpointError> {
    let mut days = chain_days(vfs, dir)?;
    if let Some(limit) = up_to {
        days.retain(|&d| d <= limit);
    }
    let mut skipped = Vec::new();
    for &day in days.iter().rev() {
        let file = snapshot_file_name(day);
        let path = dir.join(&file);
        if !vfs.exists(&path) {
            skipped.push(RecoveryEntry {
                day,
                file,
                reason: SkipReason::Missing,
                action: RecoveryAction::Skipped,
            });
            continue;
        }
        match load_from_file_with::<T>(vfs, &path) {
            Ok(state) => {
                return Ok(Recovered {
                    day,
                    state: Some(state),
                    skipped,
                });
            }
            Err(err) => skipped.push(RecoveryEntry {
                day,
                file,
                reason: SkipReason::of(&err),
                action: RecoveryAction::Skipped,
            }),
        }
    }
    Ok(Recovered {
        day: 0,
        state: None,
        skipped,
    })
}

/// One link's verification outcome.
#[derive(Debug)]
pub struct ChainEntry {
    /// Campaign day the link covers.
    pub day: u32,
    /// File name (relative to the checkpoint directory).
    pub file: String,
    /// `Ok` if the snapshot decodes; the decode/read error otherwise.
    pub outcome: Result<(), CheckpointError>,
}

/// Verify every link of the chain in `dir`, newest last. Read-only: no
/// file is touched, no ledger entry is written.
pub fn verify_chain<T: Persist>(
    vfs: &mut dyn Vfs,
    dir: &Path,
) -> Result<Vec<ChainEntry>, CheckpointError> {
    let days = chain_days(vfs, dir)?;
    let mut out = Vec::with_capacity(days.len());
    for day in days {
        let file = snapshot_file_name(day);
        let path = dir.join(&file);
        let outcome = if !vfs.exists(&path) {
            Err(CheckpointError::Io(format!(
                "{}: missing (only the .tmp sibling landed — torn write)",
                path.display()
            )))
        } else {
            load_from_file_with::<T>(vfs, &path).map(|_| ())
        };
        out.push(ChainEntry { day, file, outcome });
    }
    Ok(out)
}

/// What [`repair_chain`] did.
#[derive(Debug)]
pub struct RepairReport {
    /// Invalid links and orphan `.tmp` files moved into `quarantine/`.
    pub quarantined: Vec<RecoveryEntry>,
    /// Valid snapshots left in place.
    pub kept: u32,
}

/// Quarantine every invalid link: damaged `dayNNN.ckpt` files and all
/// orphaned `.tmp` siblings move into `dir/quarantine/`, the moves are
/// recorded in the recovery ledger, and the remaining directory contains
/// only loadable snapshots.
pub fn repair_chain<T: Persist>(
    vfs: &mut dyn Vfs,
    dir: &Path,
) -> Result<RepairReport, CheckpointError> {
    let quarantine = dir.join(QUARANTINE_DIR);
    let mut report = RepairReport {
        quarantined: Vec::new(),
        kept: 0,
    };
    for day in chain_days(vfs, dir)? {
        let file = snapshot_file_name(day);
        let path = dir.join(&file);
        if vfs.exists(&path) {
            match load_from_file_with::<T>(vfs, &path) {
                Ok(_) => report.kept += 1,
                Err(err) => {
                    vfs.create_dir_all(&quarantine)?;
                    vfs.rename(&path, &quarantine.join(&file))?;
                    report.quarantined.push(RecoveryEntry {
                        day,
                        file: file.clone(),
                        reason: SkipReason::of(&err),
                        action: RecoveryAction::Quarantined,
                    });
                }
            }
        }
        // A .tmp orphan is quarantine-worthy whether or not the real file
        // was valid: it is dead weight from an interrupted save.
        let tmp = tmp_sibling(&path);
        if vfs.exists(&tmp) {
            vfs.create_dir_all(&quarantine)?;
            let tmp_name = format!("{file}.tmp");
            vfs.rename(&tmp, &quarantine.join(&tmp_name))?;
            if !vfs.exists(&path) {
                report.quarantined.push(RecoveryEntry {
                    day,
                    file: tmp_name,
                    reason: SkipReason::Missing,
                    action: RecoveryAction::Quarantined,
                });
            }
        }
    }
    append_ledger(dir, &report.quarantined)?;
    Ok(report)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests fabricate damaged files")]
mod tests {
    use super::*;
    use crate::snapshot::{encode_snapshot, save_to_file};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chatlens-chain-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_day(dir: &Path, day: u32, value: u64) {
        save_to_file(&dir.join(snapshot_file_name(day)), &value).unwrap();
    }

    #[test]
    fn skip_reason_persist_round_trips_every_variant() {
        for reason in SkipReason::ALL {
            let mut w = crate::Writer::new();
            reason.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = crate::Reader::new(&bytes);
            assert_eq!(SkipReason::load(&mut r).unwrap(), reason);
        }
    }

    #[test]
    fn recover_walks_past_damage_to_newest_valid() {
        let dir = scratch("walk");
        write_day(&dir, 1, 100);
        write_day(&dir, 2, 200);
        write_day(&dir, 3, 300);
        // Day 3: truncate. Day 2 stays valid.
        let p3 = dir.join(snapshot_file_name(3));
        let bytes = std::fs::read(&p3).unwrap();
        std::fs::write(&p3, &bytes[..bytes.len() / 2]).unwrap();
        let rec = recover_latest::<u64>(&mut RealVfs, &dir, None).unwrap();
        assert_eq!(rec.day, 2);
        assert_eq!(rec.state, Some(200));
        assert_eq!(rec.skipped.len(), 1);
        assert_eq!(rec.skipped[0].day, 3);
        assert_eq!(rec.skipped[0].reason, SkipReason::Truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tmp_orphan_counts_as_a_missing_link() {
        let dir = scratch("torn");
        write_day(&dir, 1, 100);
        // Day 2 tore: only the tmp sibling landed.
        let tmp = tmp_sibling(&dir.join(snapshot_file_name(2)));
        std::fs::write(&tmp, encode_snapshot(&200u64)).unwrap();
        let rec = recover_latest::<u64>(&mut RealVfs, &dir, None).unwrap();
        assert_eq!(rec.day, 1);
        assert_eq!(rec.state, Some(100));
        assert_eq!(rec.skipped.len(), 1);
        assert_eq!(rec.skipped[0].reason, SkipReason::Missing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whole_chain_damaged_means_fresh_start() {
        let dir = scratch("fresh");
        write_day(&dir, 1, 100);
        let p1 = dir.join(snapshot_file_name(1));
        std::fs::write(&p1, b"definitely not a snapshot").unwrap();
        let rec = recover_latest::<u64>(&mut RealVfs, &dir, None).unwrap();
        assert_eq!(rec.day, 0);
        assert!(rec.state.is_none());
        assert_eq!(rec.skipped[0].reason, SkipReason::BadMagic);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn up_to_limits_the_walk() {
        let dir = scratch("upto");
        write_day(&dir, 1, 100);
        write_day(&dir, 2, 200);
        write_day(&dir, 3, 300);
        let rec = recover_latest::<u64>(&mut RealVfs, &dir, Some(2)).unwrap();
        assert_eq!(rec.day, 2);
        assert_eq!(rec.state, Some(200));
        assert!(rec.skipped.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_appends_persist_and_dedup() {
        let dir = scratch("ledger");
        let entry = RecoveryEntry {
            day: 7,
            file: snapshot_file_name(7),
            reason: SkipReason::ChecksumMismatch,
            action: RecoveryAction::Skipped,
        };
        append_ledger(&dir, std::slice::from_ref(&entry)).unwrap();
        append_ledger(&dir, std::slice::from_ref(&entry)).unwrap();
        let ledger = load_ledger(&dir);
        assert_eq!(ledger.entries, vec![entry]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_classifies_every_link() {
        let dir = scratch("verify");
        write_day(&dir, 1, 100);
        write_day(&dir, 2, 200);
        let p2 = dir.join(snapshot_file_name(2));
        let mut bytes = std::fs::read(&p2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&p2, &bytes).unwrap();
        let entries = verify_chain::<u64>(&mut RealVfs, &dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].outcome.is_ok());
        assert_eq!(entries[1].outcome, Err(CheckpointError::ChecksumMismatch));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_quarantines_damage_and_orphans() {
        let dir = scratch("repair");
        write_day(&dir, 1, 100);
        write_day(&dir, 2, 200);
        let p2 = dir.join(snapshot_file_name(2));
        std::fs::write(&p2, b"junk").unwrap();
        let tmp3 = tmp_sibling(&dir.join(snapshot_file_name(3)));
        std::fs::write(&tmp3, b"half a snapshot").unwrap();
        let report = repair_chain::<u64>(&mut RealVfs, &dir).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.quarantined.len(), 2);
        assert!(!p2.exists());
        assert!(!tmp3.exists());
        assert!(dir
            .join(QUARANTINE_DIR)
            .join(snapshot_file_name(2))
            .exists());
        // The damage is in the persisted ledger, marked quarantined.
        let ledger = load_ledger(&dir);
        assert!(ledger
            .entries
            .iter()
            .all(|e| e.action == RecoveryAction::Quarantined));
        assert_eq!(ledger.entries.len(), 2);
        // The chain now verifies clean.
        let entries = verify_chain::<u64>(&mut RealVfs, &dir).unwrap();
        assert!(entries.iter().all(|e| e.outcome.is_ok()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
