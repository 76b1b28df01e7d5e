//! The toxicity model: per-token weights and a logistic document score.

use chatlens_simnet::fastmap::FastMap;
use chatlens_workload::Vocabulary;

/// Strongly toxic terms (drawn from the corpus vocabularies the paper's
/// Table 3 surfaces on Telegram's sex topics and Discord's hentai topic)
/// with their log-odds contributions.
const STRONG: &[(&str, f64)] = &[
    ("fuck", 3.6),
    ("pussy", 3.8),
    ("cum", 3.4),
    ("boobs", 3.2),
    ("butt", 1.8),
    ("hentai", 2.6),
    ("sex", 2.4),
];

/// Mildly suggestive terms that raise the score without dominating it.
const MILD: &[(&str, f64)] = &[
    ("girls", 1.2),
    ("girl", 1.1),
    ("xpro", 1.3),
    ("performer", 1.0),
    ("baby", 0.4),
    ("paradise", 0.3),
    ("tenshi", 0.3),
];

/// Per-token toxicity weights over a vocabulary, scoring documents with a
/// logistic model — a deterministic stand-in for Perspective's `TOXICITY`
/// probability.
#[derive(Debug, Clone)]
pub struct ToxicityLexicon {
    weights: FastMap<u16, f64>,
    /// Model intercept: an empty/benign document scores near this
    /// logit's sigmoid (default −4.0 → ~0.018).
    pub intercept: f64,
}

impl ToxicityLexicon {
    /// Build the lexicon against `vocab` (terms missing from the
    /// vocabulary are skipped).
    pub fn build(vocab: &Vocabulary) -> ToxicityLexicon {
        let mut weights = FastMap::default();
        for &(term, w) in STRONG.iter().chain(MILD) {
            if let Some(id) = vocab.id(term) {
                weights.insert(id, w);
            }
        }
        ToxicityLexicon {
            weights,
            intercept: -3.5,
        }
    }

    /// Weight of one token (0 for benign tokens).
    pub fn weight(&self, token: u16) -> f64 {
        self.weights.get(&token).copied().unwrap_or(0.0)
    }

    /// Number of weighted (non-benign) tokens.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the lexicon carries no weights.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Score a document of token ids: `sigmoid(intercept + Σ weights)`,
    /// in `[0, 1]`.
    pub fn score(&self, tokens: &[u16]) -> f64 {
        let logit: f64 = self.intercept + tokens.iter().map(|&t| self.weight(t)).sum::<f64>();
        1.0 / (1.0 + (-logit).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexicon() -> (Vocabulary, ToxicityLexicon) {
        let v = Vocabulary::build();
        let l = ToxicityLexicon::build(&v);
        (v, l)
    }

    #[test]
    fn builds_against_vocabulary() {
        let (_, l) = lexicon();
        assert!(l.len() >= 10, "lexicon size {}", l.len());
        assert!(!l.is_empty());
    }

    #[test]
    fn benign_documents_score_low() {
        let (v, l) = lexicon();
        let doc: Vec<u16> = ["join", "group", "link", "free", "crypto"]
            .iter()
            .filter_map(|w| v.id(w))
            .collect();
        let s = l.score(&doc);
        assert!(s < 0.05, "benign score {s}");
        assert!(l.score(&[]) < 0.05, "empty doc");
    }

    #[test]
    fn toxic_documents_score_high() {
        let (v, l) = lexicon();
        let doc: Vec<u16> = ["fuck", "pussy", "girl", "cum"]
            .iter()
            .filter_map(|w| v.id(w))
            .collect();
        assert_eq!(doc.len(), 4, "all terms in vocabulary");
        let s = l.score(&doc);
        assert!(s > 0.95, "toxic score {s}");
    }

    #[test]
    fn scores_are_probabilities_and_monotone() {
        let (v, l) = lexicon();
        let hentai = v.id("hentai").unwrap();
        let mut prev = l.score(&[]);
        for n in 1..6 {
            let doc = vec![hentai; n];
            let s = l.score(&doc);
            assert!((0.0..=1.0).contains(&s));
            assert!(s > prev, "more toxic tokens, higher score");
            prev = s;
        }
    }

    #[test]
    fn mild_terms_alone_stay_under_half() {
        let (v, l) = lexicon();
        let doc: Vec<u16> = ["girls", "baby"].iter().filter_map(|w| v.id(w)).collect();
        assert!(l.score(&doc) < 0.5);
    }
}
