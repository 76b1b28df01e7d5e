//! The virtual filesystem every checkpoint/report byte flows through.
//!
//! This module is the **only** place in the workspace allowed to call
//! `std::fs` (rule D13, enforced by the `clippy.toml` bans; the tests
//! that fabricate damaged files take their own exemption). Routing all
//! durable I/O through one trait buys two things:
//!
//! * **A real fsync contract.** [`RealVfs::write_atomic`] is
//!   write-tmp → fsync file → rename → fsync directory, so once it
//!   returns `Ok` the bytes survive power loss — not just process death.
//! * **A deterministic fault domain.** [`FaultVfs`] wraps the real thing
//!   and injects torn writes, short writes, bit-rot, `ENOSPC` and rename
//!   failures from a dedicated RNG stream ([`Stream::Disk`]), exactly
//!   the way `simnet::fault` injects network faults. A campaign run under
//!   `--disk-fault torn` damages its own checkpoint chain on a schedule
//!   that replays bit-identically — which is what lets the crash-storm
//!   suite prove chain recovery rebuilds the same report bytes.
//!
//! The fault order on a write is fixed (`no-space`, `torn-write`,
//! `short-write`, `rename-fail`) and each kind with a zero rate consumes
//! no RNG draws, so the `calm` profile is byte-identical to using
//! [`RealVfs`] directly.
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the Vfs is the one home of std::fs (rule D13)"
)]

use crate::error::CheckpointError;
use chatlens_simnet::fault::{DiskFaultKind, DiskFaultRates};
use chatlens_simnet::rng::{Rng, Stream};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The filesystem surface checkpoint and report code is allowed to use.
///
/// Implementations take `&mut self` because the faulty implementation
/// advances an RNG; callers thread one `Vfs` through a whole save/load
/// sequence so the injection schedule is a deterministic function of the
/// operation order.
pub trait Vfs {
    /// Read a whole file.
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError>;

    /// Write a whole file durably and atomically: the bytes land under a
    /// `.tmp` sibling first, are fsynced, renamed into place, and the
    /// parent directory is fsynced. `Ok` means the file survives a crash
    /// *and* a power cut — except under injected faults, where a torn
    /// write may lie (that is the point of the fault model).
    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError>;

    /// Create a directory and all missing ancestors.
    fn create_dir_all(&mut self, dir: &Path) -> Result<(), CheckpointError>;

    /// Rename `from` to `to` (same filesystem).
    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), CheckpointError>;

    /// Delete a file.
    fn remove_file(&mut self, path: &Path) -> Result<(), CheckpointError>;

    /// List the entries of a directory, sorted by path (deterministic
    /// regardless of readdir order).
    fn list_dir(&mut self, dir: &Path) -> Result<Vec<PathBuf>, CheckpointError>;

    /// Whether a path exists.
    fn exists(&mut self, path: &Path) -> bool;
}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{}: {e}", path.display()))
}

/// The `.tmp` sibling a [`Vfs::write_atomic`] stages its bytes under.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// The production filesystem: real `std::fs`, full fsync discipline.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl RealVfs {
    /// Fsync a directory so a rename inside it is durable. On non-Unix
    /// platforms directory handles cannot be fsynced; the rename itself
    /// is still atomic there.
    fn sync_dir(dir: &Path) -> Result<(), CheckpointError> {
        #[cfg(unix)]
        {
            let d = std::fs::File::open(dir).map_err(|e| io_err(dir, e))?;
            d.sync_all().map_err(|e| io_err(dir, e))?;
        }
        #[cfg(not(unix))]
        let _ = dir;
        Ok(())
    }

    /// Stage `bytes` under the `.tmp` sibling and fsync it, without the
    /// final rename. Shared by the real and faulty write paths.
    fn stage_tmp(path: &Path, bytes: &[u8]) -> Result<PathBuf, CheckpointError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
            }
        }
        let tmp = tmp_sibling(path);
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
        Ok(tmp)
    }
}

impl Vfs for RealVfs {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError> {
        std::fs::read(path).map_err(|e| io_err(path, e))
    }

    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        let tmp = RealVfs::stage_tmp(path, bytes)?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                RealVfs::sync_dir(parent)?;
            }
        }
        Ok(())
    }

    fn create_dir_all(&mut self, dir: &Path) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), CheckpointError> {
        std::fs::rename(from, to).map_err(|e| io_err(from, e))
    }

    fn remove_file(&mut self, path: &Path) -> Result<(), CheckpointError> {
        std::fs::remove_file(path).map_err(|e| io_err(path, e))
    }

    fn list_dir(&mut self, dir: &Path) -> Result<Vec<PathBuf>, CheckpointError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            out.push(entry.map_err(|e| io_err(dir, e))?.path());
        }
        out.sort();
        Ok(out)
    }

    fn exists(&mut self, path: &Path) -> bool {
        path.exists()
    }
}

/// A deterministic storm of storage faults over the real filesystem.
///
/// Every injected fault is recorded in [`FaultVfs::injected`] so tests
/// (and the crash-storm suite) can reconcile the damage against what the
/// recovery ledger later reports.
#[derive(Debug)]
pub struct FaultVfs {
    real: RealVfs,
    rng: Rng,
    rates: DiskFaultRates,
    injected: Vec<(DiskFaultKind, PathBuf)>,
}

impl FaultVfs {
    /// Build the fault domain from a campaign seed and an injection-rate
    /// schedule. The RNG is the [`Stream::Disk`] stream forked off the
    /// campaign seed, so the same `(seed, rates)` always damages the same
    /// operations.
    pub fn new(seed: u64, rates: DiskFaultRates) -> FaultVfs {
        FaultVfs {
            real: RealVfs,
            rng: Rng::new(seed).fork(Stream::Disk),
            rates,
            injected: Vec::new(),
        }
    }

    /// Every fault injected so far, in operation order.
    pub fn injected(&self) -> &[(DiskFaultKind, PathBuf)] {
        &self.injected
    }

    /// One conditional draw: a zero rate consumes nothing.
    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.chance(rate)
    }
}

impl Vfs for FaultVfs {
    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError> {
        let mut bytes = self.real.read(path)?;
        if !bytes.is_empty() && self.roll(self.rates.bit_rot) {
            let bit = self.rng.below(bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            self.injected.push((DiskFaultKind::BitRot, path.into()));
        }
        Ok(bytes)
    }

    fn write_atomic(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        if self.roll(self.rates.no_space) {
            self.injected.push((DiskFaultKind::NoSpace, path.into()));
            return Err(CheckpointError::Io(format!(
                "{}: injected ENOSPC (no space left on device)",
                path.display()
            )));
        }
        if self.roll(self.rates.torn_write) {
            // The crash-between-write-and-rename: the tmp sibling lands,
            // the destination never appears — and the caller is told the
            // save succeeded, because that is what a machine that loses
            // power after acking the write would have believed.
            RealVfs::stage_tmp(path, bytes)?;
            self.injected.push((DiskFaultKind::TornWrite, path.into()));
            return Ok(());
        }
        if self.roll(self.rates.short_write) {
            let cut = self.rng.below(bytes.len().max(1) as u64) as usize;
            self.real.write_atomic(path, &bytes[..cut])?;
            self.injected.push((DiskFaultKind::ShortWrite, path.into()));
            return Ok(());
        }
        if self.roll(self.rates.rename_fail) {
            RealVfs::stage_tmp(path, bytes)?;
            self.injected.push((DiskFaultKind::RenameFail, path.into()));
            return Err(CheckpointError::Io(format!(
                "{}: injected rename failure (tmp staged, destination untouched)",
                path.display()
            )));
        }
        self.real.write_atomic(path, bytes)
    }

    fn create_dir_all(&mut self, dir: &Path) -> Result<(), CheckpointError> {
        self.real.create_dir_all(dir)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), CheckpointError> {
        self.real.rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> Result<(), CheckpointError> {
        self.real.remove_file(path)
    }

    fn list_dir(&mut self, dir: &Path) -> Result<Vec<PathBuf>, CheckpointError> {
        self.real.list_dir(dir)
    }

    fn exists(&mut self, path: &Path) -> bool {
        self.real.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chatlens-vfs-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_vfs_round_trips_and_leaves_no_tmp() {
        let dir = scratch("real");
        let path = dir.join("nested").join("file.bin");
        let mut vfs = RealVfs;
        vfs.write_atomic(&path, b"hello disk").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello disk");
        assert!(!vfs.exists(&tmp_sibling(&path)));
        assert_eq!(vfs.list_dir(path.parent().unwrap()).unwrap(), vec![path]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn calm_fault_vfs_is_byte_identical_to_real_and_draws_nothing() {
        let dir = scratch("calm");
        let path = dir.join("file.bin");
        let mut vfs = FaultVfs::new(11, DiskFaultRates::none());
        let rng_before = format!("{:?}", vfs.rng);
        vfs.write_atomic(&path, b"payload").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"payload");
        assert_eq!(format!("{:?}", vfs.rng), rng_before, "calm must not draw");
        assert!(vfs.injected().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_stages_tmp_lies_ok_and_never_lands() {
        let dir = scratch("torn");
        let path = dir.join("file.bin");
        let mut vfs = FaultVfs::new(
            0,
            DiskFaultRates {
                torn_write: 1.0,
                ..DiskFaultRates::none()
            },
        );
        assert!(
            vfs.write_atomic(&path, b"doomed").is_ok(),
            "torn writes lie"
        );
        assert!(!vfs.exists(&path), "destination must never appear");
        assert!(
            vfs.exists(&tmp_sibling(&path)),
            "tmp sibling is the evidence"
        );
        assert_eq!(vfs.injected(), &[(DiskFaultKind::TornWrite, path)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_truncates_the_destination() {
        let dir = scratch("short");
        let path = dir.join("file.bin");
        let mut vfs = FaultVfs::new(
            3,
            DiskFaultRates {
                short_write: 1.0,
                ..DiskFaultRates::none()
            },
        );
        vfs.write_atomic(&path, b"0123456789").unwrap();
        let got = vfs.read(&path).unwrap();
        assert!(got.len() < 10, "short write must truncate");
        assert_eq!(got, b"0123456789"[..got.len()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_space_fails_before_any_mutation() {
        let dir = scratch("nospace");
        let path = dir.join("file.bin");
        let mut vfs = FaultVfs::new(
            0,
            DiskFaultRates {
                no_space: 1.0,
                ..DiskFaultRates::none()
            },
        );
        assert!(matches!(
            vfs.write_atomic(&path, b"x"),
            Err(CheckpointError::Io(_))
        ));
        assert!(!vfs.exists(&path));
        assert!(!vfs.exists(&tmp_sibling(&path)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rename_fail_stages_tmp_and_reports() {
        let dir = scratch("renamefail");
        let path = dir.join("file.bin");
        let mut vfs = FaultVfs::new(
            0,
            DiskFaultRates {
                rename_fail: 1.0,
                ..DiskFaultRates::none()
            },
        );
        assert!(matches!(
            vfs.write_atomic(&path, b"x"),
            Err(CheckpointError::Io(_))
        ));
        assert!(!vfs.exists(&path));
        assert!(vfs.exists(&tmp_sibling(&path)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit_deterministically() {
        let dir = scratch("bitrot");
        let path = dir.join("file.bin");
        RealVfs.write_atomic(&path, &[0u8; 64]).unwrap();
        let rates = DiskFaultRates {
            bit_rot: 1.0,
            ..DiskFaultRates::none()
        };
        let a = FaultVfs::new(9, rates).read(&path).unwrap();
        let b = FaultVfs::new(9, rates).read(&path).unwrap();
        assert_eq!(a, b, "same seed, same rot");
        let flipped: u32 = a.iter().map(|byte| byte.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_sequence_is_a_pure_function_of_seed_and_rates() {
        let dir = scratch("determinism");
        let rates = chatlens_simnet::fault::DiskFaultProfile::Torn.rates();
        let mut runs = Vec::new();
        for run in 0..2 {
            let sub = dir.join(format!("run{run}"));
            std::fs::create_dir_all(&sub).unwrap();
            let mut vfs = FaultVfs::new(77, rates);
            for i in 0..40 {
                let _ = vfs.write_atomic(&sub.join(format!("f{i:02}")), &[i; 16]);
            }
            let kinds: Vec<_> = vfs.injected().iter().map(|(k, _)| *k).collect();
            assert!(!kinds.is_empty(), "torn profile must injure something");
            runs.push(kinds);
        }
        assert_eq!(runs[0], runs[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
