//! Quickstart: build a small world, run the full 38-day campaign, print
//! the dataset roll-up.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use chatlens::platforms::id::PlatformKind;
use chatlens::report::table::{fmt_count, Table};
use chatlens::{run_study, ScenarioConfig};

fn main() {
    // 2% of the paper's scale: ~7K groups, ~80K tweets, runs in seconds.
    let config = ScenarioConfig::at_scale(0.02);
    println!("building the ecosystem and running the campaign (scale 0.02)...");
    #[expect(clippy::disallowed_types, reason = "the example times itself")]
    let started = std::time::Instant::now();
    let dataset = run_study(config);
    println!("done in {:.1?}\n", started.elapsed());

    let mut table = Table::new("What the collector found").header([
        "Platform",
        "tweets",
        "group URLs",
        "joined",
        "messages",
    ]);
    for kind in PlatformKind::ALL {
        let s = dataset.summary(kind);
        table.row([
            kind.name().to_string(),
            fmt_count(s.tweets),
            fmt_count(s.group_urls),
            fmt_count(s.joined_groups),
            fmt_count(s.messages),
        ]);
    }
    println!("{}", table.render());

    println!(
        "control sample: {} tweets; PII: {} WhatsApp phone hashes, \
         {} Telegram profiles, {} Discord profiles",
        fmt_count(dataset.control.len() as u64),
        fmt_count(dataset.pii.wa_total_phones() as u64),
        fmt_count(dataset.pii.tg_users_observed.len() as u64),
        fmt_count(dataset.pii.dc_users_observed.len() as u64),
    );
    println!(
        "the Discord bot-join probe was {}",
        if dataset.bot_join_rejected {
            "rejected, as §3.3 reports"
        } else {
            "accepted (unexpected!)"
        }
    );
}
