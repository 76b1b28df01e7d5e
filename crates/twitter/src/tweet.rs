//! The tweet model.
//!
//! A simulated tweet carries exactly the attributes the paper's analyses
//! read: author and time (discovery dynamics, Fig 1–2), hashtag/mention
//! counts and retweet linkage (content features, Fig 3), language (Fig 4),
//! embedded URLs as **raw strings** the extraction pipeline must parse
//! (§3.1), and tokenized text for LDA (Table 3).

use chatlens_simnet::digits::{decimal_len, extend_u64};
use chatlens_simnet::time::SimTime;
use std::fmt;

/// Tweet identifier. Ids are assigned in chronological order by the store,
/// so `since_id`-style incremental queries work like on real Twitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TweetId(pub u64);

/// Twitter account identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TwitterUserId(pub u32);

/// Tweet language, as reported by Twitter's `lang` field (Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lang {
    /// English.
    En,
    /// Spanish.
    Es,
    /// Portuguese.
    Pt,
    /// Arabic.
    Ar,
    /// Turkish.
    Tr,
    /// Japanese.
    Ja,
    /// Indonesian.
    In,
    /// Hindi.
    Hi,
    /// French.
    Fr,
    /// German.
    De,
    /// Russian.
    Ru,
    /// Thai.
    Th,
    /// Korean.
    Ko,
    /// Undetermined (Twitter's `und`).
    Und,
    /// Any other language.
    Other,
}

impl Lang {
    /// All languages, in a fixed order.
    pub const ALL: [Lang; 15] = [
        Lang::En,
        Lang::Es,
        Lang::Pt,
        Lang::Ar,
        Lang::Tr,
        Lang::Ja,
        Lang::In,
        Lang::Hi,
        Lang::Fr,
        Lang::De,
        Lang::Ru,
        Lang::Th,
        Lang::Ko,
        Lang::Und,
        Lang::Other,
    ];

    /// BCP-47-ish code as Twitter reports it.
    pub fn code(self) -> &'static str {
        match self {
            Lang::En => "en",
            Lang::Es => "es",
            Lang::Pt => "pt",
            Lang::Ar => "ar",
            Lang::Tr => "tr",
            Lang::Ja => "ja",
            Lang::In => "in",
            Lang::Hi => "hi",
            Lang::Fr => "fr",
            Lang::De => "de",
            Lang::Ru => "ru",
            Lang::Th => "th",
            Lang::Ko => "ko",
            Lang::Und => "und",
            Lang::Other => "other",
        }
    }

    /// Parse a code produced by [`Lang::code`].
    pub fn from_code(code: &str) -> Option<Lang> {
        Lang::ALL.into_iter().find(|l| l.code() == code)
    }

    /// Stable index into [`Lang::ALL`].
    pub fn index(self) -> usize {
        Lang::ALL
            .iter()
            .position(|&l| l == self)
            .expect("lang present in ALL")
    }
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One tweet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tweet {
    /// Chronologically-assigned id.
    pub id: TweetId,
    /// Author account.
    pub author: TwitterUserId,
    /// Posting instant.
    pub at: SimTime,
    /// Language tag.
    pub lang: Lang,
    /// Number of hashtags in the tweet.
    pub hashtags: u8,
    /// Number of @-mentions in the tweet.
    pub mentions: u8,
    /// For retweets, the original tweet (content is mirrored from it).
    pub retweet_of: Option<TweetId>,
    /// Embedded URLs, verbatim. The collector's extractor parses these;
    /// most are invite URLs, some are unrelated links it must ignore.
    pub urls: Vec<String>,
    /// Tokenized text (vocabulary ids from the workload's lexicon); used by
    /// the LDA pipeline. Empty for tweets outside the topic-modeled set.
    pub tokens: Vec<u16>,
    /// Whether this tweet belongs to the 1% control sample rather than the
    /// pattern-matched collection.
    pub is_control: bool,
}

impl Tweet {
    /// Whether the tweet is a retweet.
    pub fn is_retweet(&self) -> bool {
        self.retweet_of.is_some()
    }

    /// Encode to the wire-field value used by the `twitter/*` endpoints:
    /// `<id>|<author>|<secs>|<lang>|<hashtags>|<mentions>|<rt|->|<url,url>|<tok tok>`.
    pub fn encode(&self) -> String {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        String::from_utf8(out).expect("digits, ASCII separators and UTF-8 urls")
    }

    /// Append [`Tweet::encode`]'s bytes to `out`, with no intermediate
    /// string: integers go through the shared digit table, and the feeds,
    /// snapshots and report digest write millions of tweets per campaign.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [self.id.0, u64::from(self.author.0), self.at.as_secs()] {
            extend_u64(out, v);
            out.push(b'|');
        }
        out.extend_from_slice(self.lang.code().as_bytes());
        out.push(b'|');
        extend_u64(out, u64::from(self.hashtags));
        out.push(b'|');
        extend_u64(out, u64::from(self.mentions));
        out.push(b'|');
        match self.retweet_of {
            Some(TweetId(id)) => extend_u64(out, id),
            None => out.push(b'-'),
        }
        out.push(b'|');
        for (i, u) in self.urls.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(u.as_bytes());
        }
        out.push(b'|');
        for (i, &t) in self.tokens.iter().enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            extend_u64(out, u64::from(t));
        }
    }

    /// Exact length in bytes of [`Tweet::encode`]'s output, computed
    /// without encoding.
    pub fn encoded_len(&self) -> usize {
        let rt = self.retweet_of.map_or(1, |TweetId(id)| decimal_len(id));
        let urls: usize =
            self.urls.iter().map(String::len).sum::<usize>() + self.urls.len().saturating_sub(1);
        let tokens: usize = self
            .tokens
            .iter()
            .map(|&t| decimal_len(u64::from(t)))
            .sum::<usize>()
            + self.tokens.len().saturating_sub(1);
        // Eight `|` separators between the nine fields.
        decimal_len(self.id.0)
            + decimal_len(u64::from(self.author.0))
            + decimal_len(self.at.as_secs())
            + self.lang.code().len()
            + decimal_len(u64::from(self.hashtags))
            + decimal_len(u64::from(self.mentions))
            + rt
            + urls
            + tokens
            + 8
    }

    /// Decode a value produced by [`Tweet::encode`]. `is_control` is not on
    /// the wire (the endpoint implies it) and defaults to `false`.
    pub fn decode(s: &str) -> Option<Tweet> {
        let mut parts = s.split('|');
        let id = TweetId(parts.next()?.parse().ok()?);
        let author = TwitterUserId(parts.next()?.parse().ok()?);
        let at = SimTime::from_secs(parts.next()?.parse().ok()?);
        let lang = Lang::from_code(parts.next()?)?;
        let hashtags = parts.next()?.parse().ok()?;
        let mentions = parts.next()?.parse().ok()?;
        let rt = parts.next()?;
        let retweet_of = if rt == "-" {
            None
        } else {
            Some(TweetId(rt.parse().ok()?))
        };
        let urls_raw = parts.next()?;
        let urls = if urls_raw.is_empty() {
            Vec::new()
        } else {
            urls_raw.split(',').map(str::to_string).collect()
        };
        let toks_raw = parts.next()?;
        let tokens = if toks_raw.is_empty() {
            Vec::new()
        } else {
            let mut v = Vec::new();
            for t in toks_raw.split(' ') {
                v.push(t.parse().ok()?);
            }
            v
        };
        if parts.next().is_some() {
            return None;
        }
        Some(Tweet {
            id,
            author,
            at,
            lang,
            hashtags,
            mentions,
            retweet_of,
            urls,
            tokens,
            is_control: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tweet {
        Tweet {
            id: TweetId(42),
            author: TwitterUserId(7),
            at: SimTime::from_secs(1_586_300_000),
            lang: Lang::Pt,
            hashtags: 2,
            mentions: 1,
            retweet_of: Some(TweetId(40)),
            urls: vec![
                "https://chat.whatsapp.com/AAAAAAAAAAAAAAAAAAAAAA".into(),
                "https://example.com/x".into(),
            ],
            tokens: vec![1, 5, 9],
            is_control: false,
        }
    }

    /// The `write!`-based encoder that [`Tweet::encode_into`] replaced,
    /// kept as the reference for its bytes.
    fn reference_encode(t: &Tweet) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{}|{}|{}|{}|{}|{}|",
            t.id.0,
            t.author.0,
            t.at.as_secs(),
            t.lang.code(),
            t.hashtags,
            t.mentions,
        );
        match t.retweet_of {
            Some(TweetId(id)) => {
                let _ = write!(out, "{id}");
            }
            None => out.push('-'),
        }
        out.push('|');
        for (i, u) in t.urls.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(u);
        }
        out.push('|');
        for (i, tok) in t.tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{tok}");
        }
        out
    }

    /// Check every codec property on `t`: the in-place encoding equals the
    /// reference, appends exactly `encoded_len` bytes after what `out`
    /// already holds, and decodes back to `t`.
    fn check_codec(t: &Tweet) {
        let expected = reference_encode(t);
        let mut out = b"prefix".to_vec();
        t.encode_into(&mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], expected.as_bytes());
        assert_eq!(t.encoded_len(), expected.len());
        assert_eq!(t.encode(), expected);
        assert_eq!(Tweet::decode(&expected).as_ref(), Some(t));
    }

    proptest::proptest! {
        #[test]
        fn encode_into_matches_the_reference_encoder(
            id in proptest::prelude::any::<u64>(),
            id_shift in 0u32..64,
            author in proptest::prelude::any::<u32>(),
            secs in proptest::prelude::any::<u64>(),
            lang_idx in 0usize..15,
            hashtags in proptest::prelude::any::<u8>(),
            mentions in proptest::prelude::any::<u8>(),
            rt in proptest::option::of(proptest::prelude::any::<u64>()),
            urls in proptest::collection::vec("[a-zA-Z0-9:/._?=-]{1,48}", 0..4),
            tokens in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..400),
        ) {
            // The shift spreads ids over every decimal length, not just
            // the 20-digit values a uniform u64 almost always has.
            check_codec(&Tweet {
                id: TweetId(id >> id_shift),
                author: TwitterUserId(author),
                at: SimTime::from_secs(secs),
                lang: Lang::ALL[lang_idx],
                hashtags,
                mentions,
                retweet_of: rt.map(TweetId),
                urls,
                tokens,
                is_control: false,
            });
        }
    }

    #[test]
    fn codec_edges_match_the_reference_encoder() {
        let mut t = sample();
        check_codec(&t);
        t.id = TweetId(u64::MAX);
        t.author = TwitterUserId(u32::MAX);
        t.at = SimTime::from_secs(u64::MAX);
        t.hashtags = u8::MAX;
        t.mentions = 0;
        t.retweet_of = Some(TweetId(u64::MAX));
        t.lang = Lang::Other;
        check_codec(&t);
        t.urls.clear();
        t.tokens.clear();
        t.retweet_of = None;
        check_codec(&t);
        t.tokens = (0..=u16::MAX).step_by(7).collect();
        check_codec(&t);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        assert_eq!(Tweet::decode(&t.encode()), Some(t));
    }

    #[test]
    fn roundtrip_empty_urls_and_tokens() {
        let mut t = sample();
        t.urls.clear();
        t.tokens.clear();
        t.retweet_of = None;
        assert_eq!(Tweet::decode(&t.encode()), Some(t));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Tweet::decode(""), None);
        assert_eq!(Tweet::decode("1|2|3"), None);
        assert_eq!(Tweet::decode("x|2|3|en|0|0|-||"), None);
        assert_eq!(Tweet::decode("1|2|3|xx|0|0|-||"), None, "bad lang");
        let t = sample();
        assert_eq!(Tweet::decode(&format!("{}|extra", t.encode())), None);
    }

    #[test]
    fn lang_code_roundtrip() {
        for l in Lang::ALL {
            assert_eq!(Lang::from_code(l.code()), Some(l));
        }
        assert_eq!(Lang::from_code("zz"), None);
    }

    #[test]
    fn lang_index_is_stable() {
        for (i, l) in Lang::ALL.into_iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn retweet_flag() {
        let mut t = sample();
        assert!(t.is_retweet());
        t.retweet_of = None;
        assert!(!t.is_retweet());
    }
}
