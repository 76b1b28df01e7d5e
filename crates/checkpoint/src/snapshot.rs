//! The snapshot envelope (magic, version, checksum) and atomic file I/O.

use crate::codec::{Persist, Reader, Writer};
use crate::error::CheckpointError;
use crate::vfs::{RealVfs, Vfs};
use chatlens_simnet::hash::sha256;
use std::path::Path;

/// First eight bytes of every snapshot. Includes a `0x1A` (DOS EOF) byte,
/// PNG-style, so text-mode transfer damage fails loudly as [`BadMagic`]
/// instead of corrupting the payload.
///
/// [`BadMagic`]: CheckpointError::BadMagic
pub const MAGIC: [u8; 8] = *b"CLCKPT\x1a\x01";

/// The snapshot format generation this build reads and writes. Any change
/// to the encoded layout of the campaign state must bump this.
///
/// * v1 — initial format.
/// * v2 — correlated-failure resilience: client state grew the breaker
///   map, burst-chain phase/RNG and rate clock; traces carry breaker
///   transitions; discovery and monitor state carry the backfill queues
///   and the per-group gap ledger; the campaign config gained the fault
///   profile and per-service outage specs.
/// * v3 — Byzantine-payload hardening: client state grew the corruption
///   RNG position, the last clean body (cross-splice source) and the
///   corrupted-response counter; discovery, monitor and joiner state
///   carry their quarantine ledgers; the campaign config gained the
///   corruption profile.
/// * v4 — interned group ids and columnar timelines: discovery state
///   carries the group-key symbol table; monitor timelines, terminal set
///   and gap ledger are keyed by dense group slot (`u32`) instead of
///   dedup-key strings, and each timeline encodes as parallel day/status
///   columns instead of an observation-struct list.
/// * v5 — incremental analysis folds: multi-byte integers and length
///   prefixes became canonical LEB128 varints (zigzag for signed; `f64`
///   and the envelope header stay fixed-width), the campaign state
///   carries per-day collection cursor marks (`DayMark`) and an optional
///   fold ledger (`FoldLedger`) of per-analysis folded state, so resumed
///   incremental runs never replay raw history.
/// * v6 — memory budget and cold-partition spill: discovery state splits
///   the tweet/control logs into a spilled prefix count (`tweets_base`,
///   `control_base`) plus the resident tail, and the campaign state
///   carries an optional `BudgetState` (limit, accounting floor, per-day
///   encoded sizes, spill-partition manifest with per-file SHA-256, and
///   the budget counters) so a kill/resume under `--mem-budget` replays
///   to byte-identical reports. Spill partitions themselves reuse this
///   envelope (one snapshot file per evicted day).
/// * v7 — exact transport counters: each client's trace is its counters
///   alone (attempts, in-transit drops, attempts by status and by
///   endpoint, breaker openings, breaker fast fails); the ring of the last
///   4,096 request records and the breaker-transition list are gone.
pub const FORMAT_VERSION: u32 = 7;

/// Envelope overhead before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;
/// SHA-256 trailer length.
const CHECKSUM_LEN: usize = 32;

/// Encode `value` into a complete snapshot: header, payload, checksum.
pub fn encode_snapshot<T: Persist>(value: &T) -> Vec<u8> {
    encode_snapshot_with(|w| value.save(w))
}

/// Encode the payload `save` writes into a complete snapshot, all in one
/// buffer: the header goes first with a placeholder length, `save`
/// appends the payload after it, the length is patched in place, and the
/// checksum is appended. The bytes equal [`encode_snapshot`] of any value
/// whose [`Persist::save`] writes the same payload.
pub fn encode_snapshot_with(save: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&MAGIC);
    w.put_bytes(&FORMAT_VERSION.to_le_bytes());
    w.put_u64(0);
    save(&mut w);
    let mut out = w.into_bytes();
    let payload_len = (out.len() - HEADER_LEN) as u64;
    out[12..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let digest = sha256(&out);
    out.extend_from_slice(&digest);
    out
}

/// Read the format version out of a snapshot header without decoding the
/// payload (useful for diagnostics on version-skewed files). Only the
/// magic is validated.
pub fn snapshot_version(bytes: &[u8]) -> Result<u32, CheckpointError> {
    if bytes.len() < 8 {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < 12 {
        return Err(CheckpointError::Truncated);
    }
    Ok(u32::from_le_bytes(
        bytes[8..12].try_into().expect("4 bytes"),
    ))
}

/// Decode a complete snapshot produced by [`encode_snapshot`].
///
/// Checks run in diagnosability order: magic first (is this a checkpoint
/// at all?), then version (is it *our* generation? — checked before the
/// checksum so skewed files report skew, not corruption), then length and
/// checksum, and only then is the payload decoded. Never panics on bad
/// input.
pub fn decode_snapshot<T: Persist>(bytes: &[u8]) -> Result<T, CheckpointError> {
    let version = snapshot_version(bytes)?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated);
    }
    let payload_len = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
    let payload_len = usize::try_from(payload_len)
        .map_err(|_| CheckpointError::Malformed("payload length overflows usize".into()))?;
    let total = HEADER_LEN
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN))
        .ok_or_else(|| CheckpointError::Malformed("payload length overflows usize".into()))?;
    if bytes.len() < total {
        return Err(CheckpointError::Truncated);
    }
    if bytes.len() > total {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing byte(s) after the checksum",
            bytes.len() - total
        )));
    }
    let body = &bytes[..HEADER_LEN + payload_len];
    let recorded = &bytes[HEADER_LEN + payload_len..];
    if sha256(body) != *recorded {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let mut r = Reader::new(&bytes[HEADER_LEN..HEADER_LEN + payload_len]);
    let value = T::load(&mut r)?;
    if !r.is_empty() {
        return Err(CheckpointError::Malformed(format!(
            "{} undecoded byte(s) inside the payload",
            r.remaining()
        )));
    }
    Ok(value)
}

/// Write `value` as a snapshot file through `vfs`, durably and
/// atomically: the bytes are staged under a `.tmp` sibling, fsynced,
/// renamed into place, and the parent directory is fsynced (see
/// [`Vfs::write_atomic`]). A crash mid-write can never leave a torn file
/// at `path`, and once this returns `Ok` on the real filesystem the
/// snapshot survives power loss. The parent directory is created if
/// missing.
pub fn save_to_file_with<T: Persist>(
    vfs: &mut dyn Vfs,
    path: &Path,
    value: &T,
) -> Result<(), CheckpointError> {
    vfs.write_atomic(path, &encode_snapshot(value))
}

/// Read and decode a snapshot file through `vfs`.
pub fn load_from_file_with<T: Persist>(
    vfs: &mut dyn Vfs,
    path: &Path,
) -> Result<T, CheckpointError> {
    decode_snapshot(&vfs.read(path)?)
}

/// [`save_to_file_with`] on the production filesystem ([`RealVfs`]).
pub fn save_to_file<T: Persist>(path: &Path, value: &T) -> Result<(), CheckpointError> {
    save_to_file_with(&mut RealVfs, path, value)
}

/// [`load_from_file_with`] on the production filesystem ([`RealVfs`]).
pub fn load_from_file<T: Persist>(path: &Path) -> Result<T, CheckpointError> {
    load_from_file_with(&mut RealVfs, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let value = (42u64, String::from("state"), vec![1u32, 2, 3]);
        let bytes = encode_snapshot(&value);
        let back: (u64, String, Vec<u32>) = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, value);
        assert_eq!(snapshot_version(&bytes).unwrap(), FORMAT_VERSION);
    }

    #[test]
    fn one_buffer_encoding_equals_a_separate_payload() {
        let value = (42u64, String::from("state"), vec![1u32, 2, 3]);
        let mut payload = Writer::new();
        value.save(&mut payload);
        let payload = payload.into_bytes();
        let mut expected = MAGIC.to_vec();
        expected.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        expected.extend_from_slice(&payload);
        let digest = sha256(&expected);
        expected.extend_from_slice(&digest);
        assert_eq!(encode_snapshot(&value), expected);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode_snapshot(&(7u64, String::from("x")));
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x01;
            let res: Result<(u64, String), _> = decode_snapshot(&bad);
            assert!(res.is_err(), "flip at byte {byte} went unnoticed");
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = encode_snapshot(&vec![String::from("abc"); 4]);
        for len in 0..bytes.len() {
            let res: Result<Vec<String>, _> = decode_snapshot(&bytes[..len]);
            assert!(res.is_err(), "prefix of {len} bytes decoded");
        }
    }

    #[test]
    fn version_skew_reports_skew_not_corruption() {
        let mut bytes = encode_snapshot(&1u64);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_snapshot::<u64>(&bytes),
            Err(CheckpointError::VersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn foreign_bytes_are_bad_magic() {
        assert_eq!(
            decode_snapshot::<u64>(b"definitely not a snapshot"),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut bytes = encode_snapshot(&1u64);
        bytes.push(0);
        assert!(matches!(
            decode_snapshot::<u64>(&bytes),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let mut bytes = encode_snapshot(&(1u64, 2u64));
        let mid = HEADER_LEN + 3;
        bytes[mid] ^= 0xff;
        assert_eq!(
            decode_snapshot::<(u64, u64)>(&bytes),
            Err(CheckpointError::ChecksumMismatch)
        );
    }

    #[test]
    fn file_save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("chatlens-ckpt-test");
        let path = dir.join("nested").join("snap.ckpt");
        let value = (9u64, String::from("file"));
        save_to_file(&path, &value).unwrap();
        let back: (u64, String) = load_from_file(&path).unwrap();
        assert_eq!(back, value);
        // Atomic write leaves no temp file behind.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let res: Result<u64, _> = load_from_file(Path::new("/nonexistent/chatlens/snap.ckpt"));
        assert!(matches!(res, Err(CheckpointError::Io(_))));
    }
}
