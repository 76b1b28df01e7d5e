//! Topic vocabularies (Table 3) and the global token vocabulary.
//!
//! The paper runs LDA over the English tweets that share each platform's
//! group URLs and reports ten topics per platform with hand-assigned
//! labels. Here the causality is inverted: every group is *assigned* one of
//! its platform's topics (weighted by the tweet share Table 3 reports), and
//! the tweets sharing it draw their words from that topic's term
//! distribution plus a common filler pool. The analysis crate's LDA must
//! then *recover* the topics — same pipeline, synthetic corpus.

use chatlens_platforms::PlatformKind;
use chatlens_simnet::dist::Categorical;
use chatlens_simnet::fastmap::FastMap;
use chatlens_simnet::rng::Rng;

/// One LDA-recoverable topic: label, tweet-share weight (Table 3's %), and
/// its characteristic terms (most-probable first).
#[derive(Debug, Clone)]
pub struct Topic {
    /// Hand-assigned label from Table 3.
    pub label: &'static str,
    /// Percentage of the platform's English tweets on this topic.
    pub weight: f64,
    /// Characteristic terms, most probable first.
    pub terms: &'static [&'static str],
}

/// The ten WhatsApp topics of Table 3.
pub fn whatsapp_topics() -> Vec<Topic> {
    vec![
        Topic {
            label: "Forex training",
            weight: 6.0,
            terms: &[
                "learn",
                "free",
                "forex",
                "training",
                "join",
                "trading",
                "text",
                "mini",
                "class",
                "animation",
            ],
        },
        Topic {
            label: "Earn money from home",
            weight: 8.0,
            terms: &[
                "home", "earn", "don", "just", "money", "using", "can", "start", "stay", "google",
            ],
        },
        Topic {
            label: "Instagram Followers Boosting",
            weight: 9.0,
            terms: &[
                "join",
                "followers",
                "instagram",
                "gain",
                "want",
                "money",
                "online",
                "group",
                "learn",
                "make",
            ],
        },
        Topic {
            label: "Cryptocurrencies",
            weight: 7.0,
            terms: &[
                "bitcoin", "ethereum", "crypto", "currency", "ads", "year", "like", "line",
                "people", "new",
            ],
        },
        Topic {
            label: "Earn money from home",
            weight: 13.0,
            terms: &[
                "make", "can", "money", "know", "daily", "home", "earn", "forex", "cash", "market",
            ],
        },
        Topic {
            label: "Cryptocurrencies",
            weight: 5.0,
            terms: &[
                "learn",
                "cryptocurrency",
                "make",
                "join",
                "days",
                "period",
                "another",
                "want",
                "day",
                "accumulate",
            ],
        },
        Topic {
            label: "WhatsApp group advertisement",
            weight: 30.0,
            terms: &[
                "join", "group", "whatsapp", "link", "follow", "click", "please", "chat", "open",
                "twitter",
            ],
        },
        Topic {
            label: "Making money",
            weight: 9.0,
            terms: &[
                "get", "never", "time", "actually", "income", "chat", "best", "taking", "account",
                "full",
            ],
        },
        Topic {
            label: "Nigeria-Related",
            weight: 6.0,
            terms: &[
                "will",
                "new",
                "retweet",
                "capital",
                "people",
                "now",
                "interested",
                "writing",
                "nigerian",
                "online",
            ],
        },
        Topic {
            label: "Cryptocurrencies",
            weight: 6.0,
            terms: &[
                "business", "ethereum", "free", "smart", "skills", "eth", "million", "join",
                "training", "webinar",
            ],
        },
    ]
}

/// The ten Telegram topics of Table 3.
pub fn telegram_topics() -> Vec<Topic> {
    vec![
        Topic {
            label: "Cryptocurrencies",
            weight: 9.0,
            terms: &[
                "bitcoin", "join", "sats", "get", "winners", "sex", "hours", "chat", "nice", "come",
            ],
        },
        Topic {
            label: "Cryptocurrencies",
            weight: 9.0,
            terms: &[
                "usdt",
                "giveaways",
                "oin",
                "winners",
                "ollow",
                "enter",
                "btc",
                "trc",
                "trx",
                "hours",
            ],
        },
        Topic {
            label: "Social Network Activity",
            weight: 11.0,
            terms: &[
                "follow", "like", "retweet", "giveaway", "tag", "join", "win", "twitter",
                "friends", "friend",
            ],
        },
        Topic {
            label: "Ask Me Anything/Quiz",
            weight: 8.0,
            terms: &[
                "ama", "may", "will", "utc", "quiz", "someone", "wallet", "don", "ust", "today",
            ],
        },
        Topic {
            label: "Advertising Telegram groups",
            weight: 14.0,
            terms: &[
                "free", "join", "just", "telegram", "money", "day", "channel", "don", "can", "baby",
            ],
        },
        Topic {
            label: "Sex",
            weight: 13.0,
            terms: &[
                "new",
                "worth",
                "user",
                "brand",
                "xpro",
                "performer",
                "smartphones",
                "girls",
                "boobs",
                "price",
            ],
        },
        Topic {
            label: "Giveaways",
            weight: 7.0,
            terms: &[
                "giving", "away", "will", "tmn", "link", "honor", "full", "butt", "video", "get",
            ],
        },
        Topic {
            label: "Sex",
            weight: 10.0,
            terms: &[
                "fuck", "want", "girl", "click", "show", "trading", "pussy", "powerful", "can",
                "cum",
            ],
        },
        Topic {
            label: "Advertising Telegram groups",
            weight: 11.0,
            terms: &[
                "telegram",
                "join",
                "group",
                "channel",
                "now",
                "below",
                "link",
                "get",
                "available",
                "opened",
            ],
        },
        Topic {
            label: "Referral Marketing",
            weight: 8.0,
            terms: &[
                "airdrop", "open", "https", "tokens", "wink", "referral", "token", "earn", "new",
                "good",
            ],
        },
    ]
}

/// The ten Discord topics of Table 3.
pub fn discord_topics() -> Vec<Topic> {
    vec![
        Topic {
            label: "Gaming",
            weight: 7.0,
            terms: &[
                "patreon",
                "free",
                "get",
                "today",
                "mystery",
                "public",
                "gaming",
                "gamedev",
                "indiegames",
                "alongside",
            ],
        },
        Topic {
            label: "Organizing online events",
            weight: 7.0,
            terms: &[
                "will", "may", "hosting", "week", "one", "time", "tonight", "don", "night", "last",
            ],
        },
        Topic {
            label: "Gaming",
            weight: 5.0,
            terms: &[
                "like", "oin", "alpha", "deal", "daily", "art", "lots", "battle", "raffle",
                "nintendo",
            ],
        },
        Topic {
            label: "Advertising Discord groups",
            weight: 33.0,
            terms: &[
                "discord", "join", "server", "link", "can", "visit", "want", "just", "new", "hey",
            ],
        },
        Topic {
            label: "Pokemon",
            weight: 7.0,
            terms: &[
                "united",
                "states",
                "venonat",
                "bite",
                "quick",
                "bug",
                "full",
                "fortnite",
                "pikacku",
                "confusion",
            ],
        },
        Topic {
            label: "Advertising Discord groups",
            weight: 10.0,
            terms: &[
                "giveaway", "follow", "retweet", "friends", "tag", "join", "discord", "enter",
                "fast", "winners",
            ],
        },
        Topic {
            label: "Tournaments",
            weight: 9.0,
            terms: &[
                "good",
                "live",
                "launching",
                "now",
                "tournament",
                "open",
                "next",
                "will",
                "free",
                "prize",
            ],
        },
        Topic {
            label: "Giveaways",
            weight: 8.0,
            terms: &[
                "giving",
                "est",
                "away",
                "awp",
                "will",
                "saturday",
                "friday",
                "coins",
                "many",
                "competition",
            ],
        },
        Topic {
            label: "Advertising Discord groups",
            weight: 4.0,
            terms: &[
                "discord", "join", "make", "sure", "ends", "chat", "token", "https", "music",
                "server",
            ],
        },
        Topic {
            label: "Hentai",
            weight: 9.0,
            terms: &[
                "join", "discord", "server", "come", "hentai", "now", "new", "paradise", "tenshi",
                "official",
            ],
        },
    ]
}

/// Topics for one platform.
pub fn topics_for(kind: PlatformKind) -> Vec<Topic> {
    match kind {
        PlatformKind::WhatsApp => whatsapp_topics(),
        PlatformKind::Telegram => telegram_topics(),
        PlatformKind::Discord => discord_topics(),
    }
}

/// Non-English topic sets. §4's closing remark: repeating the LDA analysis
/// in Spanish and Portuguese surfaces topics absent from English — the
/// COVID-19 pandemic (Spanish, WhatsApp and Telegram) and politics
/// (Spanish on Telegram, Portuguese on WhatsApp). The paper omits the
/// tables for space; these vocabularies reconstruct that analysis.
pub fn topics_for_lang(kind: PlatformKind, lang: chatlens_twitter::Lang) -> Option<Vec<Topic>> {
    use chatlens_twitter::Lang;
    match (kind, lang) {
        (PlatformKind::WhatsApp, Lang::Es) => Some(vec![
            Topic {
                label: "COVID-19",
                weight: 22.0,
                terms: &[
                    "covid",
                    "cuarentena",
                    "pandemia",
                    "salud",
                    "vacuna",
                    "virus",
                    "casos",
                    "medicos",
                ],
            },
            Topic {
                label: "Advertising WhatsApp groups (es)",
                weight: 34.0,
                terms: &[
                    "grupo",
                    "unete",
                    "enlace",
                    "amigos",
                    "entra",
                    "nuevo",
                    "chicos",
                    "bienvenidos",
                ],
            },
            Topic {
                label: "Jobs & money (es)",
                weight: 24.0,
                terms: &[
                    "dinero", "trabajo", "empleo", "casa", "ganar", "gratis", "negocio", "ingresos",
                ],
            },
            Topic {
                label: "Cryptocurrencies (es)",
                weight: 20.0,
                terms: &[
                    "bitcoin",
                    "cripto",
                    "inversion",
                    "ganancias",
                    "mercado",
                    "senales",
                    "euros",
                    "moneda",
                ],
            },
        ]),
        (PlatformKind::Telegram, Lang::Es) => Some(vec![
            Topic {
                label: "COVID-19",
                weight: 24.0,
                terms: &[
                    "covid",
                    "cuarentena",
                    "pandemia",
                    "salud",
                    "vacuna",
                    "virus",
                    "noticias",
                    "casos",
                ],
            },
            Topic {
                label: "Politics (es)",
                weight: 26.0,
                terms: &[
                    "politica",
                    "gobierno",
                    "elecciones",
                    "presidente",
                    "votar",
                    "partido",
                    "izquierda",
                    "derecha",
                ],
            },
            Topic {
                label: "Advertising Telegram channels (es)",
                weight: 30.0,
                terms: &[
                    "canal",
                    "unete",
                    "enlace",
                    "telegram",
                    "gratis",
                    "entra",
                    "nuevo",
                    "contenido",
                ],
            },
            Topic {
                label: "Cryptocurrencies (es)",
                weight: 20.0,
                terms: &[
                    "bitcoin",
                    "cripto",
                    "inversion",
                    "ganancias",
                    "senales",
                    "mercado",
                    "moneda",
                    "airdrop",
                ],
            },
        ]),
        (PlatformKind::WhatsApp, Lang::Pt) => Some(vec![
            Topic {
                label: "Politics (pt)",
                weight: 28.0,
                terms: &[
                    "politica",
                    "eleicoes",
                    "governo",
                    "presidente",
                    "voto",
                    "partido",
                    "brasil",
                    "congresso",
                ],
            },
            Topic {
                label: "Advertising WhatsApp groups (pt)",
                weight: 36.0,
                terms: &[
                    "grupo", "entre", "link", "amigos", "venha", "novo", "galera", "zap",
                ],
            },
            Topic {
                label: "Jobs & money (pt)",
                weight: 20.0,
                terms: &[
                    "dinheiro", "trabalho", "emprego", "casa", "ganhar", "gratis", "renda", "vagas",
                ],
            },
            Topic {
                label: "Football (pt)",
                weight: 16.0,
                terms: &[
                    "futebol",
                    "time",
                    "jogo",
                    "campeonato",
                    "gol",
                    "torcida",
                    "clube",
                    "copa",
                ],
            },
        ]),
        _ => None,
    }
}

/// English filler words mixed into every tweet; the analysis pipeline's
/// stopword list removes most of them, exactly as the paper removes stop
/// words before LDA (§4).
pub const FILLER: &[&str] = &[
    "the", "to", "a", "of", "and", "in", "for", "is", "on", "with", "this", "that", "you", "we",
    "are", "it", "be", "at", "my", "our",
];

/// Small per-language lexicons for non-English tweets (not topic-modeled —
/// the paper's LDA runs on English tweets only — but needed so the corpus
/// has realistic language variety for Fig 4).
pub fn lexicon_for(lang: chatlens_twitter::Lang) -> &'static [&'static str] {
    use chatlens_twitter::Lang;
    match lang {
        Lang::Es => &[
            "grupo", "unete", "enlace", "gratis", "dinero", "amigos", "nuevo", "canal", "entra",
            "hola", "juegos", "ahora",
        ],
        Lang::Pt => &[
            "grupo", "entre", "link", "gratis", "dinheiro", "amigos", "novo", "canal", "venha",
            "ola", "jogos", "agora",
        ],
        Lang::Ar => &[
            "مجموعة",
            "انضم",
            "رابط",
            "مجانا",
            "قناة",
            "جديد",
            "الان",
            "اصدقاء",
            "تعال",
            "مرحبا",
        ],
        Lang::Tr => &[
            "grup",
            "katil",
            "baglanti",
            "ucretsiz",
            "kanal",
            "yeni",
            "simdi",
            "arkadaslar",
            "gel",
            "merhaba",
        ],
        Lang::Ja => &[
            "サーバー",
            "参加",
            "リンク",
            "無料",
            "新しい",
            "今",
            "友達",
            "ゲーム",
            "こんにちは",
            "募集",
        ],
        Lang::In => &[
            "grup", "gabung", "tautan", "gratis", "saluran", "baru", "sekarang", "teman", "ayo",
            "halo",
        ],
        Lang::Hi => &[
            "समूह",
            "जुड़ें",
            "लिंक",
            "मुफ्त",
            "चैनल",
            "नया",
            "अभी",
            "दोस्त",
            "आओ",
            "नमस्ते",
        ],
        Lang::Fr => &[
            "groupe",
            "rejoindre",
            "lien",
            "gratuit",
            "canal",
            "nouveau",
            "maintenant",
            "amis",
            "viens",
            "salut",
        ],
        Lang::De => &[
            "gruppe",
            "beitreten",
            "link",
            "kostenlos",
            "kanal",
            "neu",
            "jetzt",
            "freunde",
            "komm",
            "hallo",
        ],
        Lang::Ru => &[
            "группа",
            "вступай",
            "ссылка",
            "бесплатно",
            "канал",
            "новый",
            "сейчас",
            "друзья",
            "заходи",
            "привет",
        ],
        Lang::Th => &[
            "กลุ่ม",
            "เข้าร่วม",
            "ลิงก์",
            "ฟรี",
            "ช่อง",
            "ใหม่",
            "ตอนนี้",
            "เพื่อน",
            "มา",
            "สวัสดี",
        ],
        Lang::Ko => &[
            "그룹",
            "참여",
            "링크",
            "무료",
            "채널",
            "새로운",
            "지금",
            "친구",
            "와",
            "안녕",
        ],
        _ => &[
            "link", "join", "new", "now", "chat", "hello", "free", "group", "come", "friends",
        ],
    }
}

/// The global token vocabulary: every topic term, filler word, and lexicon
/// word gets a stable `u16` id. Tweets carry token ids; the analysis crate
/// maps them back to strings for topic labeling.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    words: Vec<String>,
    index: FastMap<String, u16>,
}

impl Vocabulary {
    /// Build the full vocabulary (deterministic order).
    pub fn build() -> Vocabulary {
        let mut v = Vocabulary {
            words: Vec::new(),
            index: FastMap::default(),
        };
        for kind in PlatformKind::ALL {
            for topic in topics_for(kind) {
                for term in topic.terms {
                    v.intern(term);
                }
            }
            for lang in chatlens_twitter::Lang::ALL {
                for topic in topics_for_lang(kind, lang).unwrap_or_default() {
                    for term in topic.terms {
                        v.intern(term);
                    }
                }
            }
        }
        for w in FILLER {
            v.intern(w);
        }
        for lang in chatlens_twitter::Lang::ALL {
            for w in lexicon_for(lang) {
                v.intern(w);
            }
        }
        v
    }

    fn intern(&mut self, word: &str) -> u16 {
        if let Some(&id) = self.index.get(word) {
            return id;
        }
        let id = u16::try_from(self.words.len()).expect("vocabulary fits in u16");
        self.words.push(word.to_string());
        self.index.insert(word.to_string(), id);
        id
    }

    /// Token id of `word`, if in the vocabulary.
    pub fn id(&self, word: &str) -> Option<u16> {
        self.index.get(word).copied()
    }

    /// Word behind a token id.
    pub fn word(&self, id: u16) -> &str {
        &self.words[usize::from(id)]
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// All words in id order.
    pub fn words(&self) -> impl Iterator<Item = &str> {
        self.words.iter().map(String::as_str)
    }
}

/// Samples tweet token vectors for a given topic: a geometric-ish rank
/// distribution over the topic's terms mixed with uniform filler.
#[derive(Debug, Clone)]
pub struct TopicSampler {
    term_ids: Vec<u16>,
    term_dist: Categorical,
    filler_ids: Vec<u16>,
    /// Probability each emitted token is a topic term (vs filler).
    pub p_topic_token: f64,
}

impl TopicSampler {
    /// Build a sampler for `topic` against `vocab`.
    pub fn new(topic: &Topic, vocab: &Vocabulary) -> TopicSampler {
        let term_ids: Vec<u16> = topic
            .terms
            .iter()
            .map(|t| vocab.id(t).expect("topic term interned"))
            .collect();
        // Rank-weighted: first terms are the most probable, matching how
        // LDA's top-terms lists are ordered.
        let weights: Vec<f64> = (0..term_ids.len())
            .map(|r| 1.0 / (1.0 + r as f64).powf(0.7))
            .collect();
        let filler_ids: Vec<u16> = FILLER
            .iter()
            .map(|w| vocab.id(w).expect("filler interned"))
            .collect();
        TopicSampler {
            term_ids,
            term_dist: Categorical::new(&weights),
            filler_ids,
            p_topic_token: 0.7,
        }
    }

    /// Sample a tweet's token vector (8–16 tokens).
    pub fn sample_tokens(&self, rng: &mut Rng) -> Vec<u16> {
        let len = rng.range(8, 16) as usize;
        (0..len)
            .map(|_| {
                if rng.chance(self.p_topic_token) {
                    self.term_ids[self.term_dist.sample(rng)]
                } else {
                    self.filler_ids[rng.index(self.filler_ids.len())]
                }
            })
            .collect()
    }
}

/// Sample non-English tweet tokens from a language lexicon.
pub fn sample_lexicon_tokens(
    lang: chatlens_twitter::Lang,
    vocab: &Vocabulary,
    rng: &mut Rng,
) -> Vec<u16> {
    let lex = lexicon_for(lang);
    let len = rng.range(6, 12) as usize;
    (0..len)
        .map(|_| {
            let w = lex[rng.index(lex.len())];
            vocab.id(w).expect("lexicon word interned")
        })
        .collect()
}

/// A per-platform categorical over its topics, weighted by Table 3's
/// tweet shares.
pub fn topic_categorical(kind: PlatformKind) -> Categorical {
    let weights: Vec<f64> = topics_for(kind).iter().map(|t| t.weight).collect();
    Categorical::new(&weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_twitter::Lang;

    #[test]
    fn ten_topics_per_platform_with_table3_weights() {
        for kind in PlatformKind::ALL {
            let topics = topics_for(kind);
            assert_eq!(topics.len(), 10, "{kind}");
            let total: f64 = topics.iter().map(|t| t.weight).sum();
            assert!((99.0..=101.0).contains(&total), "{kind} weights {total}");
            for t in &topics {
                assert_eq!(t.terms.len(), 10, "{kind}/{}", t.label);
            }
        }
    }

    #[test]
    fn table3_signature_terms_present() {
        let wa = whatsapp_topics();
        assert!(wa.iter().any(|t| t.terms.contains(&"forex")));
        assert!(wa.iter().any(|t| t.terms.contains(&"whatsapp")));
        let tg = telegram_topics();
        assert!(tg.iter().any(|t| t.terms.contains(&"airdrop")));
        assert!(tg.iter().any(|t| t.terms.contains(&"telegram")));
        let dc = discord_topics();
        assert!(dc.iter().any(|t| t.terms.contains(&"hentai")));
        assert!(dc.iter().any(|t| t.terms.contains(&"discord")));
    }

    #[test]
    fn vocabulary_roundtrip() {
        let v = Vocabulary::build();
        assert!(v.len() > 200, "vocab size {}", v.len());
        assert!(!v.is_empty());
        for (i, w) in v.words().enumerate() {
            assert_eq!(v.id(w), Some(i as u16), "word {w}");
        }
        assert_eq!(v.id("no-such-word"), None);
        assert_eq!(v.word(v.id("bitcoin").unwrap()), "bitcoin");
    }

    #[test]
    fn vocabulary_build_is_deterministic() {
        let a = Vocabulary::build();
        let b = Vocabulary::build();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.words().zip(b.words()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn topic_sampler_emits_topic_terms() {
        let v = Vocabulary::build();
        let topics = whatsapp_topics();
        let sampler = TopicSampler::new(&topics[0], &v); // Forex training
        let mut rng = Rng::new(1);
        let mut forex_seen = 0;
        for _ in 0..200 {
            let toks = sampler.sample_tokens(&mut rng);
            assert!((8..=16).contains(&toks.len()));
            if toks.iter().any(|&t| v.word(t) == "forex") {
                forex_seen += 1;
            }
        }
        assert!(forex_seen > 50, "forex appeared in {forex_seen}/200 tweets");
    }

    #[test]
    fn first_terms_more_frequent_than_last() {
        let v = Vocabulary::build();
        let topics = discord_topics();
        let sampler = TopicSampler::new(&topics[9], &v); // Hentai
        let mut rng = Rng::new(2);
        let (mut first, mut last) = (0u32, 0u32);
        for _ in 0..2000 {
            for &t in &sampler.sample_tokens(&mut rng) {
                if v.word(t) == "join" {
                    first += 1;
                }
                if v.word(t) == "official" {
                    last += 1;
                }
            }
        }
        assert!(first > last, "rank weighting broken: {first} vs {last}");
    }

    #[test]
    fn lexicon_sampling_all_langs() {
        let v = Vocabulary::build();
        let mut rng = Rng::new(3);
        for lang in Lang::ALL {
            let toks = sample_lexicon_tokens(lang, &v, &mut rng);
            assert!((6..=12).contains(&toks.len()), "{lang}");
        }
    }

    #[test]
    fn topic_categorical_prefers_heavy_topics() {
        // Discord topic 3 ("Advertising Discord groups", 33%) must dominate.
        let cat = topic_categorical(PlatformKind::Discord);
        let mut rng = Rng::new(4);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[cat.sample(&mut rng)] += 1;
        }
        let max_idx = (0..10).max_by_key(|&i| counts[i]).unwrap();
        assert_eq!(max_idx, 3);
        let share = f64::from(counts[3]) / 20_000.0;
        assert!((share - 0.33).abs() < 0.02, "share {share}");
    }
}
