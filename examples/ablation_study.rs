//! Quality ablations for the design choices DESIGN.md calls out: what the
//! collected dataset *loses* when a design decision is changed.
//!
//! ```sh
//! cargo run --release --example ablation_study
//! ```

use chatlens::analysis::fold_dataset;
use chatlens::analysis::lifecycle::LifecycleFold;
use chatlens::analysis::topics::english_corpus;
use chatlens::analysis::{LdaConfig, LdaModel};
use chatlens::core::joiner::JoinStrategy;
use chatlens::platforms::id::PlatformKind;
use chatlens::report::table::{fmt_count, fmt_pct, Table};
use chatlens::workload::Vocabulary;
use chatlens::{run_study_with, CampaignConfig, ScenarioConfig};

const SCALE: f64 = 0.02;

fn scenario() -> ScenarioConfig {
    ScenarioConfig::at_scale(SCALE)
}

fn main() {
    ablate_discovery_feeds();
    ablate_monitor_cadence();
    ablate_join_strategy();
    ablate_lda_k();
}

/// §3.1 merges the Search and Streaming APIs because each is incomplete.
fn ablate_discovery_feeds() {
    let mut t = Table::new("Ablation 1: discovery feeds (why the paper merges both)").header([
        "Feed(s)",
        "tweets",
        "group URLs",
    ]);
    for (name, use_search, use_stream) in [
        ("search + stream", true, true),
        ("search only", true, false),
        ("stream only", false, true),
    ] {
        let ds = run_study_with(
            scenario(),
            CampaignConfig {
                use_search,
                use_stream,
                ..CampaignConfig::default()
            },
        );
        let tot = ds.totals();
        t.row([
            name.to_string(),
            fmt_count(tot.tweets),
            fmt_count(tot.group_urls),
        ]);
    }
    println!("{}", t.render());
}

/// §3.2 monitors daily; slower cadence misses short-lived URLs entirely
/// and blurs the lifetime distribution.
fn ablate_monitor_cadence() {
    let mut t = Table::new("Ablation 2: monitoring cadence (Fig 6 under-counting)").header([
        "Cadence",
        "Discord revoked",
        "dead on arrival",
        "median lifetime (days)",
    ]);
    for days in [1u32, 3, 7] {
        let ds = run_study_with(
            scenario(),
            CampaignConfig {
                monitor_interval_days: days,
                ..CampaignConfig::default()
            },
        );
        let lifecycle = fold_dataset(&ds, LifecycleFold::new()).output();
        let s = &lifecycle.revocation[PlatformKind::Discord.index()];
        t.row([
            format!("every {days}d"),
            fmt_pct(s.revoked_fraction),
            fmt_pct(s.dead_on_arrival_fraction),
            s.lifetime_days
                .median()
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
}

/// §3.3 joins uniformly; size-biased joining inflates per-group message
/// and member statistics.
fn ablate_join_strategy() {
    let mut t = Table::new("Ablation 3: join sampling (uniform vs size-biased)").header([
        "Strategy",
        "TG members in joined groups",
        "TG messages",
        "DC messages",
    ]);
    for (name, strategy) in [
        ("uniform (paper)", JoinStrategy::Uniform),
        ("size-biased", JoinStrategy::SizeBiased),
    ] {
        let ds = run_study_with(
            scenario(),
            CampaignConfig {
                join_strategy: strategy,
                ..CampaignConfig::default()
            },
        );
        let tg = ds.summary(PlatformKind::Telegram);
        let dc = ds.summary(PlatformKind::Discord);
        t.row([
            name.to_string(),
            fmt_count(tg.platform_users),
            fmt_count(tg.messages),
            fmt_count(dc.messages),
        ]);
    }
    println!("{}", t.render());
}

/// §4 footnote 1: the paper re-ran LDA with up to 50 topics and found no
/// politics topic; we sweep K and report perplexity.
fn ablate_lda_k() {
    let ds = run_study_with(scenario(), CampaignConfig::default());
    let vocab = Vocabulary::build();
    let docs = english_corpus(&ds, PlatformKind::Telegram, &vocab);
    let mut t = Table::new(format!(
        "Ablation 4: LDA topic count over {} Telegram English tweets",
        docs.len()
    ))
    .header(["K", "perplexity"]);
    for k in [2usize, 5, 10, 20, 50] {
        let model = LdaModel::fit(
            &docs,
            vocab.len(),
            LdaConfig {
                k,
                iterations: 40,
                seed: 11,
                ..LdaConfig::default()
            },
        );
        t.row([k.to_string(), format!("{:.1}", model.perplexity(&docs))]);
    }
    println!("{}", t.render());
    println!(
        "(K=10 sits near the elbow — larger K buys little, matching the \
         paper's choice of ten topics per platform.)"
    );
}
