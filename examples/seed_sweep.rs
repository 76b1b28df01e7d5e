//! Seed-robustness sweep: run the full campaign under several world seeds
//! in parallel (the `simnet::par` deterministic worker pool) and report
//! how stable each headline quantity is — the reproducibility check
//! behind EXPERIMENTS.md's "seed robustness" section.
//!
//! ```sh
//! cargo run --release --example seed_sweep [n_seeds] [scale] [threads]
//! ```

use chatlens::analysis::{fold_dataset, StandardFolds};
use chatlens::platforms::id::PlatformKind;
use chatlens::simnet::par::Pool;
use chatlens::{run_study, ScenarioConfig};

/// One run's headline quantities.
#[derive(Debug, Clone, Copy)]
struct Headline {
    seed: u64,
    discord_revoked: f64,
    telegram_retweets: f64,
    whatsapp_share_once: f64,
    group_urls: u64,
}

fn main() {
    let n_seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let scale: f64 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let threads: usize = std::env::args()
        .nth(3)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    println!("sweeping {n_seeds} seeds at scale {scale} on {threads} thread(s)...\n");

    // One campaign per chunk: the pool keeps results in seed order, so no
    // mutex + sort dance is needed — and the output is identical at any
    // thread count.
    let pool = Pool::new(threads);
    let seeds: Vec<u64> = (0..n_seeds).map(|i| 1000 + i * 7919).collect();
    let rows: Vec<Headline> = pool.par_map_chunked(1, &seeds, |&seed| {
        let mut config = ScenarioConfig::at_scale(scale);
        config.seed = seed;
        let ds = run_study(config);
        let folds = fold_dataset(&ds, StandardFolds::new());
        let (dc, tg) = (
            PlatformKind::Discord.index(),
            PlatformKind::Telegram.index(),
        );
        Headline {
            seed,
            discord_revoked: folds.lifecycle.output().revocation[dc].revoked_fraction,
            telegram_retweets: folds.content.output().features[tg].retweets,
            whatsapp_share_once: folds.discovery.output().share_once(PlatformKind::WhatsApp),
            group_urls: ds.totals().group_urls,
        }
    });

    println!("seed     DC revoked  TG retweets  WA share-once  group URLs");
    for h in &rows {
        println!(
            "{:<8} {:>9.3}  {:>10.3}  {:>12.3}  {:>10}",
            h.seed, h.discord_revoked, h.telegram_retweets, h.whatsapp_share_once, h.group_urls
        );
    }
    let spread = |f: fn(&Headline) -> f64| {
        let vals: Vec<f64> = rows.iter().map(f).collect();
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        max - min
    };
    println!(
        "\nspreads across seeds: DC revoked {:.3}, TG retweets {:.3}, WA share-once {:.3}",
        spread(|h| h.discord_revoked),
        spread(|h| h.telegram_retweets),
        spread(|h| h.whatsapp_share_once)
    );
    println!("every quantity above is a paper headline; small spreads mean the");
    println!("reproduction's shapes are properties of the model, not of a lucky seed.");
}
