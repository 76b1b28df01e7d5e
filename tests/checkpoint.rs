//! Crash-safety: the campaign can be killed at *any* day boundary and
//! resumed from its snapshot with a bit-identical outcome, at any worker
//! thread count; damaged snapshot files are rejected with a diagnostic,
//! never a panic or a silently wrong dataset.
//!
//! The exhaustive guarantee is built from two facts proved here:
//!
//! 1. For every study day `d`, loading snapshot `S_d`, stepping exactly
//!    one day, and re-encoding yields the *bytes* of `S_{d+1}` (after
//!    stripping the wall-clock timing counters, the only nondeterministic
//!    state). By induction, a run resumed at any boundary walks the same
//!    snapshot chain as the uninterrupted run.
//! 2. A full resume from representative boundaries (early / middle /
//!    last) produces a final [`Dataset`] equal to the uninterrupted
//!    run's, at 1, 2 and 8 threads.
#![expect(clippy::disallowed_methods, reason = "reads and damages snapshots")]

use std::path::PathBuf;

use chatlens::analysis::StandardFolds;
use chatlens::checkpoint::{encode_snapshot, load_from_file, CheckpointError, FORMAT_VERSION};
use chatlens::core::budget::{BudgetLimit, BudgetPolicy};
use chatlens::core::{
    resume_study, run_study_with, Attachments, Campaign, CampaignState, CheckpointPolicy,
    FoldDriver,
};
use chatlens::core::{resume_study_days, CampaignConfig};
use chatlens::platforms::{AccountId, PlatformKind};
use chatlens::simnet::fault::CorruptionProfile;
use chatlens::simnet::time::SimDuration;
use chatlens::simnet::transport::{Request, Service, Status};
use chatlens::{Dataset, Ecosystem, ScenarioConfig};

/// Small world: ~75 groups per platform, still exercising every stage
/// (discovery, monitoring, joins, messages) across the full 38 days.
fn scenario() -> ScenarioConfig {
    ScenarioConfig::at_scale(0.002)
}

/// Per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chatlens-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run the campaign once with a daily checkpoint policy, returning the
/// snapshot directory and the final dataset.
fn run_with_daily_snapshots(tag: &str, threads: usize) -> (PathBuf, Dataset) {
    let dir = scratch(tag);
    let policy = CheckpointPolicy::daily(dir.clone());
    let campaign = CampaignConfig {
        threads,
        ..CampaignConfig::default()
    };
    let attach = Attachments {
        checkpoint: Some(&policy),
        ..Attachments::default()
    };
    let ds = Campaign::new(&mut Ecosystem::build(scenario()), campaign, attach)
        .and_then(Campaign::finish)
        .expect("snapshots save")
        .into_dataset();
    (dir, ds)
}

/// Normalize a state for byte comparison: wall-clock stage timings are
/// the only nondeterministic content of a snapshot.
fn normalized_bytes(mut state: CampaignState) -> Vec<u8> {
    state.metrics.strip_wall_clock();
    encode_snapshot(&state)
}

#[test]
fn every_day_boundary_chains_to_the_next() {
    let (dir, _) = run_with_daily_snapshots("chain", 1);
    let days: Vec<PathBuf> = (1..=38)
        .map(|d| dir.join(format!("day{d:03}.ckpt")))
        .collect();
    for w in days.windows(2) {
        let here: CampaignState = load_from_file(&w[0]).expect("snapshot loads");
        let next: CampaignState = load_from_file(&w[1]).expect("snapshot loads");
        let day = here.day;
        let stepped = resume_study_days(&here, 1);
        assert_eq!(stepped.day, day + 1);
        assert_eq!(
            normalized_bytes(stepped),
            normalized_bytes(next),
            "snapshot resumed at day {day} and stepped one day must \
             re-encode to the bytes of the day-{} snapshot",
            day + 1
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Step a daily-checkpointed session through every study day and check
/// that each file it writes is, byte for byte, the snapshot of the state
/// the session holds at that boundary. Returns the days checked.
fn check_daily_saves(tag: &str, campaign: CampaignConfig, budgeted: bool) -> u32 {
    let dir = scratch(tag);
    let policy = CheckpointPolicy::daily(dir.join("chain"));
    let budget = BudgetPolicy::new(BudgetLimit::Min, dir.join("spill"));
    let mut driver = FoldDriver::new(StandardFolds::new(), 1);
    let attach = Attachments {
        checkpoint: Some(&policy),
        folds: budgeted.then_some(&mut driver),
        budget: budgeted.then_some(&budget),
    };
    let mut eco = Ecosystem::build(scenario());
    let mut session = Campaign::new(&mut eco, campaign, attach).expect("session starts");
    let mut day = 0;
    loop {
        let next = session.run_until(day + 1).expect("a day runs and saves");
        if next == day {
            break;
        }
        day = next;
        let written = std::fs::read(policy.snapshot_path(day)).expect("daily snapshot written");
        let state = session.state();
        assert_eq!(state.budget.is_some(), budgeted);
        assert_eq!(state.folds.is_some(), budgeted);
        assert!(
            written == encode_snapshot(&state),
            "{tag}: the day-{day} file differs from the snapshot of the session's state"
        );
    }
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    day
}

#[test]
fn every_daily_save_encodes_the_live_state() {
    let calm = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let hostile = CampaignConfig {
        corruption: CorruptionProfile::Hostile,
        ..calm
    };
    assert_eq!(check_daily_saves("perday-calm", calm, false), 38);
    assert_eq!(check_daily_saves("perday-hostile", hostile, false), 38);
    assert_eq!(check_daily_saves("perday-budget", calm, true), 38);
}

#[test]
fn resume_is_bit_identical_at_any_thread_count() {
    let mut uninterrupted = run_study_with(
        scenario(),
        CampaignConfig {
            threads: 1,
            ..CampaignConfig::default()
        },
    );
    uninterrupted.metrics.strip_wall_clock();
    let (dir, _) = run_with_daily_snapshots("threads", 1);
    // Kill points: just after the first boundary, mid-campaign, and at
    // the last boundary before the closing partial day.
    for kill_day in [1u32, 19, 38] {
        let path = dir.join(format!("day{kill_day:03}.ckpt"));
        for threads in [1usize, 2, 8] {
            let mut state: CampaignState = load_from_file(&path).expect("snapshot loads");
            state.campaign.threads = threads;
            let mut resumed = resume_study(&state);
            resumed.metrics.strip_wall_clock();
            assert_eq!(
                resumed, uninterrupted,
                "resume from day {kill_day} at {threads} thread(s) must equal \
                 the uninterrupted dataset"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rebuilt_world_serves_the_live_message_pages() {
    // A rebuild replays member allocation and log recipes only; every
    // joined group's message page it serves must be the live world's.
    let mut live = Ecosystem::build(scenario());
    let state = {
        let mut session =
            Campaign::new(&mut live, CampaignConfig::default(), Attachments::default())
                .expect("session starts");
        assert_eq!(session.run_until(20).expect("twenty days run"), 20);
        session.state()
    };
    let mut rebuilt = state.world();
    // One request a minute after the window: Telegram's flood bucket
    // refills between them in both worlds alike.
    let mut now = live.window.end_time();
    for kind in PlatformKind::ALL {
        let i = kind.index();
        let endpoint = match kind {
            PlatformKind::WhatsApp => "whatsapp/messages",
            PlatformKind::Telegram => "telegram/api/history",
            PlatformKind::Discord => "discord/api/messages",
        };
        let mut pages = 0;
        for account in 0..live.platforms[i].account_count() {
            let account = AccountId(account as u16);
            let joined = live.platforms[i]
                .account(account)
                .expect("account")
                .joined
                .clone();
            for (gid, _) in joined {
                let req = Request::new(endpoint)
                    .with("account", account.0.to_string())
                    .with("group", gid.0.to_string());
                now += SimDuration::secs(60);
                let want = live.platforms[i].handle(now, &req);
                let got = rebuilt.platforms[i].handle(now, &req);
                assert_eq!(want.status, Status::Ok, "{kind} group {}", gid.0);
                assert_eq!(got.status, want.status, "{kind} group {}", gid.0);
                assert_eq!(got.body, want.body, "{kind} group {}", gid.0);
                pages += 1;
            }
        }
        assert!(pages > 0, "{kind}: no group joined by day 20");
    }
}

#[test]
fn checkpointed_run_matches_plain_run() {
    let mut plain = run_study_with(scenario(), CampaignConfig::default());
    plain.metrics.strip_wall_clock();
    let (dir, mut checkpointed) = run_with_daily_snapshots("overhead", 1);
    checkpointed.metrics.strip_wall_clock();
    assert_eq!(
        checkpointed, plain,
        "saving snapshots must not perturb the campaign"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_snapshots_are_rejected_never_panic() {
    let (dir, _) = run_with_daily_snapshots("damage", 1);
    let path = dir.join("day002.ckpt");
    let good = std::fs::read(&path).expect("snapshot readable");

    // A single flipped bit anywhere before the checksum trips it.
    for &pos in &[0usize, 9, 13, good.len() / 2, good.len() - 40] {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        let err = load_after_writing(&dir, &bad);
        match pos {
            0 => assert!(matches!(err, CheckpointError::BadMagic)),
            9 => assert!(matches!(
                err,
                CheckpointError::VersionMismatch {
                    expected: FORMAT_VERSION,
                    ..
                }
            )),
            13 => assert!(
                // The length field disagrees with the file either way the
                // bit flips: too long reads as truncated, too short leaves
                // trailing bytes.
                !matches!(err, CheckpointError::Io(_)),
                "length-field flip gave {err}"
            ),
            _ => assert!(
                matches!(err, CheckpointError::ChecksumMismatch),
                "payload bit flip at {pos} gave {err}"
            ),
        }
        assert!(!err.to_string().is_empty());
    }

    // A snapshot of the previous format generation is refused by its
    // header, before its payload is read.
    let mut old = good.clone();
    old[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
    assert!(matches!(
        load_after_writing(&dir, &old),
        CheckpointError::VersionMismatch { found, expected: FORMAT_VERSION }
            if found == FORMAT_VERSION - 1
    ));

    // A well-formed snapshot whose monitor names a group slot far past the
    // discovered groups is refused before any table is sized to that slot.
    let mut state: CampaignState =
        load_from_file(&dir.join("day038.ckpt")).expect("final snapshot loads");
    state.monitor.gaps.push(1_000_000, 3);
    let err = load_after_writing(&dir, &encode_snapshot(&state));
    assert!(
        matches!(&err, CheckpointError::Malformed(msg) if msg.contains("gap slot 1000000")),
        "crafted gap slot gave {err}"
    );

    // Truncation at every byte length is an error, never a panic. (The
    // encoder/decoder pair gets the same treatment with random payloads
    // in the checkpoint crate's proptest suite; this covers a real
    // campaign snapshot end to end.)
    for len in 0..good.len() {
        let err = load_after_writing(&dir, &good[..len]);
        assert!(
            !matches!(err, CheckpointError::Io(_)),
            "truncation to {len} bytes must be a format error, got {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_header_byte_flip_is_a_typed_error() {
    let (dir, _) = run_with_daily_snapshots("headerflip", 1);
    let good = std::fs::read(dir.join("day003.ckpt")).expect("snapshot readable");

    // The 20-byte header is magic (8) + version (4) + payload length (8).
    // Flipping any single header byte must surface as the matching typed
    // error through `load_from_file` — never a panic, never `Io`.
    for pos in 0..20 {
        let mut bad = good.clone();
        bad[pos] ^= 0x01;
        let err = load_after_writing(&dir, &bad);
        match pos {
            0..=7 => assert!(
                matches!(err, CheckpointError::BadMagic),
                "magic flip at byte {pos} gave {err}"
            ),
            8..=11 => assert!(
                matches!(
                    err,
                    CheckpointError::VersionMismatch {
                        expected: FORMAT_VERSION,
                        ..
                    }
                ),
                "version flip at byte {pos} gave {err}"
            ),
            _ => assert!(
                !matches!(err, CheckpointError::Io(_)),
                "length flip at byte {pos} gave {err}"
            ),
        }
        assert!(!err.to_string().is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write `bytes` as a snapshot file and return the load error.
fn load_after_writing(dir: &std::path::Path, bytes: &[u8]) -> CheckpointError {
    let path = dir.join("tampered.ckpt");
    std::fs::write(&path, bytes).expect("scratch writable");
    match load_from_file::<CampaignState>(&path) {
        Ok(_) => panic!("damaged snapshot must not load"),
        Err(e) => e,
    }
}
