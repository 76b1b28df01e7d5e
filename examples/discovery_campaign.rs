//! Drive the discovery component by hand for the first three campaign
//! days to show why the paper merges the Search and Streaming APIs: the
//! two feeds disagree, and the union beats either alone.
//!
//! ```sh
//! cargo run --release --example discovery_campaign
//! ```

use chatlens::core::discovery::Discovery;
use chatlens::core::net::Net;
use chatlens::platforms::id::PlatformKind;
use chatlens::simnet::time::SimDuration;
use chatlens::workload::{Ecosystem, ScenarioConfig};

fn main() {
    let mut eco = Ecosystem::build(ScenarioConfig::at_scale(0.02));
    let start = eco.window.start_time();
    let mut net = Net::reliable(42, start);
    let mut disco = Discovery::new(start);

    println!("hour-by-hour discovery, first 3 days (scale 0.02):\n");
    for day in 0..3u64 {
        for hour in 0..24u64 {
            let now = start + SimDuration::days(day) + SimDuration::hours(hour);
            disco.run_search(&mut net, &mut eco, now);
            disco.drain_stream(&mut net, &mut eco, now);
        }
        let (mut both, mut search_only, mut stream_only) = (0u64, 0u64, 0u64);
        for t in &disco.tweets {
            match (t.via_search, t.via_stream) {
                (true, true) => both += 1,
                (true, false) => search_only += 1,
                (false, true) => stream_only += 1,
                (false, false) => unreachable!("tweet with no provenance"),
            }
        }
        println!(
            "after day {day}: {} tweets ({both} via both feeds, \
             {search_only} search-only, {stream_only} stream-only), {} groups",
            disco.tweets.len(),
            disco.group_count()
        );
    }

    println!("\ndiscovered groups per platform so far:");
    for kind in PlatformKind::ALL {
        println!("  {:<8} {}", kind.name(), disco.groups_of(kind).count());
    }
    println!(
        "\nURL extraction: {} URLs inspected, {} valid invites, {} rejected \
         (shorteners, non-invite discord.com pages, ...)",
        disco.stats.urls_seen, disco.stats.invites, disco.stats.rejected
    );
    println!(
        "day-0 note: the first search pulls the 7-day backlog, which is why \
         the paper's Fig 1c spikes on its first day — so does ours."
    );
}
