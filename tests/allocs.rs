//! Exact allocation counts of one scale-0.002 campaign, its report, and
//! the world rebuild of its day-20 snapshot.
//!
//! Allocation counts are deterministic work counters: at one worker
//! thread the same code on the same inputs makes the same allocator
//! calls, run after run. This binary installs a counting global
//! allocator and pins the counts with `assert_eq!`, so a change that
//! adds or removes per-request or per-message allocations moves them,
//! and has to re-pin them and say why.
//!
//! The test is alone in its binary: no other test allocates while it
//! counts. Its campaigns run with `threads: 1` set in the config, whatever
//! `CHATLENS_THREADS` says. The campaign count is pinned for the test
//! profile that `cargo test` (and `ci.sh`) builds and for `--release`
//! (`cargo test --release --test allocs`, which `ci.sh` also runs).

use chatlens::core::study::{run_study_on, Attachments, Campaign};
use chatlens::{CampaignConfig, Ecosystem, ScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every `alloc`, `alloc_zeroed` and `realloc` call, and forwards
/// each call to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps a counter, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
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

#[test]
fn campaign_and_report_allocations_are_pinned() {
    let mut eco = Ecosystem::build(ScenarioConfig::at_scale(0.002));
    let campaign = CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    };
    let (ds, campaign_allocs) = counted(|| run_study_on(&mut eco, campaign));
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

    assert_eq!(
        (campaign_allocs, report_allocs, world_allocs),
        (CAMPAIGN_ALLOCS, REPORT_ALLOCS, WORLD_ALLOCS),
        "allocation counts moved: re-pin them only for a change that means to"
    );
}

/// Allocator calls of `run_study_on` at scale 0.002. Builds with debug
/// assertions (the test profile) also audit the campaign's invariants
/// after every day, which allocates.
const CAMPAIGN_ALLOCS: u64 = if cfg!(debug_assertions) {
    395_437
} else {
    380_137
};
/// Allocator calls of `Dataset::campaign_report` on that dataset.
const REPORT_ALLOCS: u64 = 13_306;
/// Allocator calls of `CampaignState::world` for the same campaign's
/// day-20 snapshot: the world build plus the replayed joins, which
/// allocate members and log recipes and generate no message.
const WORLD_ALLOCS: u64 = 40_693;
