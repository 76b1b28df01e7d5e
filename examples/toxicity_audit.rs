//! The paper's future-work experiment (§8): score the collected tweets
//! with a Perspective-API-style toxicity analyzer and compare prevalence
//! across platforms.
//!
//! ```sh
//! cargo run --release --example toxicity_audit
//! ```

use chatlens::perspective::{collect_english, score_tweets, EnglishTweets};
use chatlens::report::table::{fmt_count, fmt_pct, Table};
use chatlens::workload::Vocabulary;
use chatlens::{run_study, ScenarioConfig};

fn main() {
    println!("running the campaign at scale 0.05...");
    let dataset = run_study(ScenarioConfig::at_scale(0.05));
    let vocab = Vocabulary::build();

    println!("scoring every English sharing tweet through the analyzer API");
    println!("(rate-limited service; the client paces itself)...\n");
    let mut english = EnglishTweets::default();
    collect_english(&dataset.tweets, &mut english);
    let reports = score_tweets(&english, dataset.window.start_time(), &vocab, 50.0);

    let mut t = Table::new("Toxicity by platform (threshold 0.5)").header([
        "Platform",
        "tweets scored",
        "mean score",
        "p90",
        "share likely toxic",
    ]);
    for r in &reports {
        t.row([
            r.platform.name().to_string(),
            fmt_count(r.scored),
            format!("{:.3}", r.mean),
            format!("{:.3}", r.p90),
            fmt_pct(r.toxic_share),
        ]);
    }
    println!("{}", t.render());
    println!(
        "shape check: Telegram (sex-topic heavy, §4) > Discord (hentai \
         servers) > WhatsApp (crypto/money spam) — the ordering the paper \
         predicted its Perspective follow-up would find."
    );
}
