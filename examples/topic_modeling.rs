//! Table 3 end-to-end: collect tweets, keep the English ones, remove
//! stopwords, fit LDA (collapsed Gibbs, from scratch) and label the
//! recovered topics against the paper's vocabulary.
//!
//! ```sh
//! cargo run --release --example topic_modeling [platform]
//! ```
//! `platform` is `whatsapp`, `telegram`, or `discord` (default).

use chatlens::analysis::fold_dataset;
use chatlens::analysis::topics::{analyze_corpus, share_by_label, TopicsFold};
use chatlens::analysis::LdaConfig;
use chatlens::platforms::id::PlatformKind;
use chatlens::report::table::fmt_pct;
use chatlens::workload::Vocabulary;
use chatlens::{run_study, ScenarioConfig};

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("whatsapp") => PlatformKind::WhatsApp,
        Some("telegram") => PlatformKind::Telegram,
        _ => PlatformKind::Discord,
    };
    println!("running the campaign at scale 0.02...");
    let dataset = run_study(ScenarioConfig::at_scale(0.02));
    let topics = fold_dataset(&dataset, TopicsFold::new());
    let vocab = Vocabulary::build();

    println!(
        "fitting 10-topic LDA over {}'s English tweets...\n",
        kind.name()
    );
    let analysis = analyze_corpus(
        kind,
        &topics.output()[kind.index()],
        &vocab,
        LdaConfig {
            k: 10,
            iterations: 60,
            seed: 1,
            ..LdaConfig::default()
        },
    );
    println!(
        "{} English tweets went into the model; recovered topics:\n",
        analysis.num_docs
    );
    let mut sorted = analysis.topics.clone();
    sorted.sort_by(|a, b| b.tweet_share.partial_cmp(&a.tweet_share).unwrap());
    for t in &sorted {
        println!(
            "  {:<30} {:>6}  match {:.2}",
            t.label,
            fmt_pct(t.tweet_share),
            t.match_score
        );
        println!("      terms: {}", t.top_terms.join(", "));
    }
    println!("\naggregated by label (cf. Table 3's repeated labels):");
    for (label, share) in share_by_label(&analysis) {
        println!("  {:<30} {}", label, fmt_pct(share));
    }
}
