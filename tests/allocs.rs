//! Exact allocation counts and heap peak of one scale-0.002 campaign,
//! the allocation counts of its report and of the world rebuild of its
//! day-20 snapshot; and the allocation count and heap peak of the same
//! campaign saving a snapshot every day.
//!
//! Allocation counts are deterministic work counters: at one worker
//! thread the same code on the same inputs makes the same allocator
//! calls, run after run. This binary installs a counting global
//! allocator and pins the counts with `assert_eq!`, so a change that
//! adds or removes per-request or per-message allocations moves them,
//! and has to re-pin them and say why.
//!
//! The test is alone in its binary: no other test allocates while it
//! counts (a second test would run on a second thread). Its campaigns run with `threads: 1` set in the config, whatever
//! `CHATLENS_THREADS` says. The campaign count is pinned for the test
//! profile that `cargo test` (and `ci.sh`) builds and for `--release`
//! (`cargo test --release --test allocs`, which `ci.sh` also runs).
#![expect(clippy::disallowed_methods, reason = "clears scratch directories")]

use chatlens::core::study::{run_study_on, Attachments, Campaign, CheckpointPolicy};
use chatlens::{CampaignConfig, Ecosystem, ScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every `alloc`, `alloc_zeroed` and `realloc` call, tracks the
/// requested bytes live and their peak, and forwards each call to the
/// system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grow(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grow(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // Grow before the copy and shrink after it: the old and new
        // blocks may both be live while `System` moves the bytes.
        grow(new_size);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        shrink(layout.size());
        out
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its result with the allocator calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (out, ALLOCS.load(Relaxed) - before)
}

/// [`counted`], plus the peak of the bytes `f` held live on top of what
/// was live when it started.
fn counted_with_peak<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let (out, allocs) = counted(f);
    (out, allocs, PEAK.load(Relaxed) - base)
}

#[test]
fn campaign_and_report_allocations_are_pinned() {
    let mut eco = Ecosystem::build(ScenarioConfig::at_scale(0.002));
    let campaign = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let (ds, campaign_allocs, campaign_peak) =
        counted_with_peak(|| run_study_on(&mut eco, campaign));
    let (report, report_allocs) = counted(|| ds.campaign_report());
    assert!(report.contains("joined_sha256: "), "{report}");

    let mut eco = Ecosystem::build(ScenarioConfig::at_scale(0.002));
    let state = {
        let mut session = Campaign::new(&mut eco, campaign, Attachments::default())
            .unwrap_or_else(|err| panic!("session starts: {err}"));
        assert_eq!(session.run_until(20).expect("twenty days run"), 20);
        session.state()
    };
    let (world, world_allocs) = counted(|| state.world());
    assert_eq!(world.platforms.len(), eco.platforms.len());

    let (daily_allocs, daily_peak) = daily_checkpointed_campaign();

    assert_eq!(
        (
            campaign_allocs,
            campaign_peak,
            report_allocs,
            world_allocs,
            daily_allocs,
            daily_peak
        ),
        (
            CAMPAIGN_ALLOCS,
            CAMPAIGN_HEAP_PEAK,
            REPORT_ALLOCS,
            WORLD_ALLOCS,
            DAILY_CKPT_ALLOCS,
            DAILY_CKPT_HEAP_PEAK
        ),
        "allocation counts or heap peaks moved: re-pin them only for a change \
         that means to (a save that copies the campaign moves the last two)"
    );
}

/// Run the scale-0.002 campaign (threads 1) with a snapshot saved after
/// every day, and return its allocator calls and heap peak.
fn daily_checkpointed_campaign() -> (u64, u64) {
    // A relative directory of fixed length, removed first, so that the
    // file-system calls of the saves allocate the same every run.
    let dir = if cfg!(debug_assertions) {
        "target/allocs-daily-ckpt-test"
    } else {
        "target/allocs-daily-ckpt-rels"
    };
    let _ = std::fs::remove_dir_all(dir);
    let policy = CheckpointPolicy::daily(dir);
    let campaign = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let mut eco = Ecosystem::build(ScenarioConfig::at_scale(0.002));
    let attach = Attachments {
        checkpoint: Some(&policy),
        ..Attachments::default()
    };
    let (outcome, allocs, peak) =
        counted_with_peak(|| Campaign::new(&mut eco, campaign, attach).and_then(Campaign::finish));
    assert!(outcome.is_ok(), "daily saves succeed");
    drop(outcome);
    assert!(policy.snapshot_path(38).exists(), "every day is saved");
    let _ = std::fs::remove_dir_all(dir);
    (allocs, peak)
}

/// Allocator calls of `run_study_on` at scale 0.002. Builds with debug
/// assertions (the test profile) also audit the campaign's invariants
/// after every day, which allocates.
const CAMPAIGN_ALLOCS: u64 = if cfg!(debug_assertions) {
    384_480
} else {
    369_180
};
/// Peak requested bytes `run_study_on` holds live beyond the built world:
/// the joins' users and member tables, the collected messages and the
/// growing collections. The same in both profiles: the test profile's
/// per-day audit frees what it allocates below that peak.
const CAMPAIGN_HEAP_PEAK: u64 = 29_440_721;
/// Allocator calls of `Dataset::campaign_report` on that dataset.
const REPORT_ALLOCS: u64 = 6_260;
/// Allocator calls of `CampaignState::world` for the same campaign's
/// day-20 snapshot: the world build plus the replayed joins, which
/// allocate members and log recipes and generate no message.
const WORLD_ALLOCS: u64 = 25_054;
/// Allocator calls of the same campaign (threads 1) saving a snapshot
/// after every day through the real filesystem.
const DAILY_CKPT_ALLOCS: u64 = if cfg!(debug_assertions) {
    389_097
} else {
    373_797
};
/// Peak requested bytes that campaign holds live beyond the built world:
/// the growing collections plus one encoded snapshot at a time; a save
/// that clones the campaign's collections adds their size.
const DAILY_CKPT_HEAP_PEAK: u64 = 33_365_809;
