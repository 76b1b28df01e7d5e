//! # chatlens-checkpoint — crash-safe campaign snapshots
//!
//! The collection campaign is a pure function of `(seed, config)`, but a
//! 38-day run interrupted on day 23 used to mean starting over. This crate
//! defines the snapshot format and machinery that make a campaign
//! *resumable*: everything the orchestrator mutates — RNG stream
//! positions, the virtual clock, the pending event queue, token-bucket
//! fill levels, the discovery/monitor/join ledgers, metrics — is captured
//! into a versioned, self-describing, checksummed byte format, and a
//! resumed run is **bit-identical** to an uninterrupted one (the
//! `tests/checkpoint.rs` suite kills a campaign at every day boundary and
//! proves it, at 1, 2 and 8 worker threads).
//!
//! ## Format
//!
//! A snapshot file is a fixed envelope around a [`Persist`]-encoded
//! payload:
//!
//! ```text
//! +---------------------+----------------+---------------------+---------+----------------+
//! | magic (8 bytes)     | version (u32)  | payload length (u64)| payload | SHA-256 (32 B) |
//! +---------------------+----------------+---------------------+---------+----------------+
//! ```
//!
//! * The magic ([`MAGIC`]) includes a `0x1A` byte so text-mode mangling is
//!   caught immediately, PNG-style.
//! * The version ([`FORMAT_VERSION`]) is checked *before* the checksum, so
//!   a snapshot from a different format generation fails with
//!   [`CheckpointError::VersionMismatch`] rather than a checksum error.
//! * The checksum covers everything before it; any bit flip yields
//!   [`CheckpointError::ChecksumMismatch`]. Corrupt or truncated input
//!   always produces an error — never a panic, never a partial load.
//!
//! ## Encoding
//!
//! [`Persist`] is a deliberately boring, hand-written binary codec:
//! little-endian fixed-width integers, `f64` via its IEEE-754 bit pattern
//! (exact round-trip — bucket fill levels and histogram sums must survive
//! to the bit), length-prefixed strings and sequences, index-tagged enums.
//! Hash containers (`FastSet`) are serialized sorted by the state-capture
//! layer rather than in iteration order, so the same logical state always
//! encodes to the same bytes — which is what lets the resume tests
//! compare snapshots with `==` on `Vec<u8>`.
//!
//! The decoder is bounds-checked end to end: every length prefix is
//! validated against the remaining input before any allocation, so a
//! hostile or damaged file cannot request absurd allocations.
//!
//! ## Who writes files
//!
//! Every `std::fs` call in the workspace lives in this crate's [`vfs`]
//! module (lint rule D13; each exception carries a justified
//! `lint:allow` pragma): snapshot and spill I/O flows through the
//! [`Vfs`] trait — [`RealVfs`] in production, [`FaultVfs`] under an
//! injected disk-fault profile.
//!
//! ## Durability
//!
//! [`save_to_file`] writes durably and atomically: the bytes are staged
//! under a `.tmp` sibling, fsynced, renamed into place, and the parent
//! directory is fsynced — so `Ok` means the snapshot survives power
//! loss, not just process death. When a disk does lose or damage a
//! snapshot anyway, the [`chain`] module walks the per-day checkpoint
//! chain backwards to the newest valid link, records every skip in a
//! persisted [`RecoveryLedger`], and lets the campaign replay the lost
//! days — the full recovery story is in ARCHITECTURE.md "Durability &
//! the fault VFS".

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod codec;
mod error;
mod impls;
mod snapshot;
pub mod vfs;

pub use chain::{
    recover_latest, repair_chain, verify_chain, ChainEntry, Recovered, RecoveryAction,
    RecoveryEntry, RecoveryLedger, RepairReport, SkipReason,
};
pub use codec::{Persist, Reader, Writer};
pub use error::CheckpointError;
pub use snapshot::{
    decode_snapshot, encode_snapshot, encode_snapshot_with, load_from_file, load_from_file_with,
    save_to_file, save_to_file_with, snapshot_version, FORMAT_VERSION, MAGIC,
};
pub use vfs::{FaultVfs, RealVfs, Vfs};
