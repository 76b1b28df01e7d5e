//! Tweet content features: Fig 3 (hashtags, mentions, retweets) and Fig 4
//! (languages).

use chatlens_checkpoint::{persist_struct, CheckpointError, Persist, Reader, Writer};
use chatlens_core::{Dataset, DayFold, DaySlice};
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::par::Pool;
use chatlens_twitter::{Lang, Tweet};
use std::fmt::Write as _;

/// Fig 3 rates for one tweet population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentFeatures {
    /// Number of tweets measured.
    pub n: u64,
    /// Share with >= 1 hashtag.
    pub with_hashtag: f64,
    /// Share with >= 2 hashtags.
    pub with_multi_hashtag: f64,
    /// Share with >= 1 mention.
    pub with_mention: f64,
    /// Share with >= 2 mentions.
    pub with_multi_mention: f64,
    /// Share that are retweets.
    pub retweets: f64,
}

/// Raw Fig 3 tallies, converted to rates by [`FeatureCounts::rates`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FeatureCounts {
    n: u64,
    h1: u64,
    h2: u64,
    m1: u64,
    m2: u64,
    rt: u64,
}

persist_struct!(FeatureCounts {
    n,
    h1,
    h2,
    m1,
    m2,
    rt
});

impl FeatureCounts {
    fn add(&mut self, t: &Tweet) {
        self.n += 1;
        if t.hashtags >= 1 {
            self.h1 += 1;
        }
        if t.hashtags >= 2 {
            self.h2 += 1;
        }
        if t.mentions >= 1 {
            self.m1 += 1;
        }
        if t.mentions >= 2 {
            self.m2 += 1;
        }
        if t.is_retweet() {
            self.rt += 1;
        }
    }

    fn rates(&self) -> ContentFeatures {
        let d = self.n.max(1) as f64;
        ContentFeatures {
            n: self.n,
            with_hashtag: self.h1 as f64 / d,
            with_multi_hashtag: self.h2 as f64 / d,
            with_mention: self.m1 as f64 / d,
            with_multi_mention: self.m2 as f64 / d,
            retweets: self.rt as f64 / d,
        }
    }
}

/// Everything the content fold yields: Figs 3 and 4 per platform
/// (indexed by [`PlatformKind::index`]) plus the control sample's Fig 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentOutput {
    /// Fig 3 rates over the tweets sharing each platform's group URLs.
    pub features: [ContentFeatures; 3],
    /// Fig 4: language shares over each platform's sharing tweets, in
    /// [`Lang::ALL`] order.
    pub languages: [Vec<(Lang, f64)>; 3],
    /// Fig 3 rates over the control sample.
    pub control: ContentFeatures,
}

impl ContentOutput {
    /// The share of one specific language on one platform.
    pub fn language_share(&self, kind: PlatformKind, lang: Lang) -> f64 {
        self.languages[kind.index()]
            .iter()
            .find(|(l, _)| *l == lang)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }
}

fn render_features(out: &mut String, label: &str, f: &ContentFeatures) {
    writeln!(
        out,
        "{label}.features: n={} hashtag={:?} multi_hashtag={:?} mention={:?} multi_mention={:?} retweets={:?}",
        f.n, f.with_hashtag, f.with_multi_hashtag, f.with_mention, f.with_multi_mention, f.retweets
    )
    .unwrap();
}

/// The content fragment of an assembled dataset (see
/// [`fold_dataset`](crate::pipeline::fold_dataset)).
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    crate::pipeline::fold_dataset(ds, ContentFold::new()).finish(pool)
}

/// One platform's folded content state: feature tallies plus language
/// counts in [`Lang::ALL`] order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PlatContent {
    feats: FeatureCounts,
    langs: Vec<u64>,
}

persist_struct!(PlatContent { feats, langs });

/// Figs 3 and 4: constant-size counters per platform (plus the control
/// sample), folded from each day's collected tweets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentFold {
    plats: [PlatContent; 3],
    control: FeatureCounts,
}

impl ContentFold {
    /// An empty fold.
    pub fn new() -> ContentFold {
        ContentFold::default()
    }

    /// The folded Figs 3 and 4.
    pub fn output(&self) -> ContentOutput {
        ContentOutput {
            features: self.plats.each_ref().map(|p| p.feats.rates()),
            languages: self.plats.each_ref().map(|p| {
                Lang::ALL
                    .into_iter()
                    .zip(p.langs.iter())
                    .map(|(l, &c)| (l, c as f64 / p.feats.n.max(1) as f64))
                    .collect()
            }),
            control: self.control.rates(),
        }
    }
}

impl DayFold for ContentFold {
    fn name(&self) -> &'static str {
        "content"
    }

    fn fold_day(&mut self, slice: &DaySlice<'_>) {
        for p in &mut self.plats {
            if p.langs.len() < Lang::ALL.len() {
                p.langs.resize(Lang::ALL.len(), 0);
            }
        }
        for ct in slice.tweets_today() {
            for (i, hit) in ct.platforms().into_iter().enumerate() {
                if hit {
                    self.plats[i].feats.add(&ct.tweet);
                    self.plats[i].langs[ct.tweet.lang.index()] += 1;
                }
            }
        }
        for t in slice.control_today() {
            self.control.add(t);
        }
    }

    fn finish(&self, _pool: &Pool) -> String {
        let o = self.output();
        let mut out = String::from("content v1\n");
        for kind in PlatformKind::ALL {
            let i = kind.index();
            render_features(&mut out, kind.name(), &o.features[i]);
            writeln!(out, "{}.languages: {:?}", kind.name(), o.languages[i]).unwrap();
        }
        render_features(&mut out, "control", &o.control);
        out
    }

    fn save_state(&self, w: &mut Writer) {
        self.plats.save(w);
        self.control.save(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.plats = Persist::load(r)?;
        self.control = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::folded;

    fn output() -> ContentOutput {
        folded().content.output()
    }

    #[test]
    fn fig3a_hashtags() {
        let [wa, tg, dc] = output().features;
        let ctl = output().control;
        assert!(
            (wa.with_hashtag - 0.13).abs() < 0.04,
            "WA {}",
            wa.with_hashtag
        );
        assert!(
            (tg.with_hashtag - 0.24).abs() < 0.04,
            "TG {}",
            tg.with_hashtag
        );
        assert!(
            (dc.with_hashtag - 0.14).abs() < 0.04,
            "DC {}",
            dc.with_hashtag
        );
        assert!(
            (ctl.with_hashtag - 0.13).abs() < 0.04,
            "CTL {}",
            ctl.with_hashtag
        );
        assert!(
            tg.with_hashtag > wa.with_hashtag,
            "Telegram uses most hashtags"
        );
    }

    #[test]
    fn fig3b_mentions() {
        let [wa, tg, dc] = output().features;
        let ctl = output().control;
        assert!(
            (wa.with_mention - 0.73).abs() < 0.05,
            "WA {}",
            wa.with_mention
        );
        assert!(
            (tg.with_mention - 0.84).abs() < 0.05,
            "TG {}",
            tg.with_mention
        );
        assert!(
            (dc.with_mention - 0.68).abs() < 0.05,
            "DC {}",
            dc.with_mention
        );
        assert!(
            (ctl.with_mention - 0.76).abs() < 0.05,
            "CTL {}",
            ctl.with_mention
        );
    }

    #[test]
    fn fig3c_retweets_ordering() {
        let [wa, tg, dc] = output().features;
        // Paper: 33% < 50% < 76%.
        assert!(
            wa.retweets < dc.retweets,
            "WA {} < DC {}",
            wa.retweets,
            dc.retweets
        );
        assert!(
            dc.retweets < tg.retweets,
            "DC {} < TG {}",
            dc.retweets,
            tg.retweets
        );
        assert!((tg.retweets - 0.76).abs() < 0.08, "TG {}", tg.retweets);
        assert!((wa.retweets - 0.33).abs() < 0.08, "WA {}", wa.retweets);
    }

    #[test]
    fn fig4_language_mix() {
        // The tiny fixture's heavy-tailed share counts make per-language
        // shares noisy (one viral group dominates a language), so the
        // tolerances here are loose; the repro harness at 0.1+ scale
        // reports the tight numbers.
        let o = output();
        let wa_en = o.language_share(PlatformKind::WhatsApp, Lang::En);
        let tg_en = o.language_share(PlatformKind::Telegram, Lang::En);
        let dc_en = o.language_share(PlatformKind::Discord, Lang::En);
        assert!((wa_en - 0.26).abs() < 0.12, "WA en {wa_en}");
        assert!((tg_en - 0.35).abs() < 0.12, "TG en {tg_en}");
        assert!((dc_en - 0.47).abs() < 0.12, "DC en {dc_en}");
        assert!(dc_en > wa_en, "Discord is the most English platform");
        let dc_ja = o.language_share(PlatformKind::Discord, Lang::Ja);
        assert!((dc_ja - 0.27).abs() < 0.12, "Discord Japanese {dc_ja}");
        assert!(
            dc_ja > o.language_share(PlatformKind::WhatsApp, Lang::Ja),
            "Japanese is a Discord phenomenon"
        );
        // Shares sum to one.
        let total: f64 = o.languages[PlatformKind::WhatsApp.index()]
            .iter()
            .map(|(_, s)| s)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_feature_rates_below_single() {
        for f in output().features {
            assert!(f.with_multi_hashtag <= f.with_hashtag);
            assert!(f.with_multi_mention <= f.with_mention);
            assert!(f.n > 0);
        }
    }
}
