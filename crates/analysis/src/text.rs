//! Tokenization and stopword removal (§4's preprocessing: "extract all
//! the English tweets, remove stop words").
//!
//! Collected tweets carry token ids against the workload vocabulary, so
//! the fast path filters ids directly ([`StopwordFilter`]); a plain-string
//! tokenizer ([`tokenize`]) is provided for library users bringing their
//! own text.

use chatlens_simnet::fastmap::FastSet;
use chatlens_workload::Vocabulary;

/// The English stopword list used before LDA. Deliberately includes every
/// filler word the workload mixes into tweets, plus the usual suspects.
pub const STOPWORDS: &[&str] = &[
    "the", "to", "a", "of", "and", "in", "for", "is", "on", "with", "this", "that", "you", "we",
    "are", "it", "be", "at", "my", "our", "i", "me", "your", "from", "by", "as", "or", "an", "if",
    "so", "was", "were", "has", "have", "had", "not", "no", "yes", "do", "does", "did", "but",
    "they", "them", "their", "he", "she", "his", "her", "its", "am",
];

/// Lowercase and split a raw string into alphanumeric word tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// Remove stopwords from a token list (string form).
pub fn remove_stopwords(tokens: &[String]) -> Vec<String> {
    let set: FastSet<&str> = STOPWORDS.iter().copied().collect();
    tokens
        .iter()
        .filter(|t| !set.contains(t.as_str()))
        .cloned()
        .collect()
}

/// Precomputed id-level stopword filter against a vocabulary.
#[derive(Debug, Clone)]
pub struct StopwordFilter {
    stop_ids: FastSet<u16>,
}

impl StopwordFilter {
    /// Build the filter for `vocab`.
    pub fn new(vocab: &Vocabulary) -> StopwordFilter {
        let stop_ids = STOPWORDS.iter().filter_map(|w| vocab.id(w)).collect();
        StopwordFilter { stop_ids }
    }

    /// Whether a token id is a stopword.
    pub fn is_stop(&self, id: u16) -> bool {
        self.stop_ids.contains(&id)
    }

    /// Filter a token id list.
    pub fn filter(&self, tokens: &[u16]) -> Vec<u16> {
        tokens
            .iter()
            .copied()
            .filter(|t| !self.is_stop(*t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_and_lowercases() {
        let toks = tokenize("Join NOW: free-crypto signals!! 100%");
        assert_eq!(
            toks,
            vec!["join", "now", "free", "crypto", "signals", "100"]
        );
    }

    #[test]
    fn tokenize_empty_and_punctuation() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ???").is_empty());
    }

    #[test]
    fn remove_stopwords_strings() {
        let toks = tokenize("join the group and earn money");
        let kept = remove_stopwords(&toks);
        assert_eq!(kept, vec!["join", "group", "earn", "money"]);
    }

    #[test]
    fn id_filter_matches_string_filter() {
        let vocab = Vocabulary::build();
        let filter = StopwordFilter::new(&vocab);
        // "the" and "to" are filler words interned in the vocabulary.
        let the = vocab.id("the").unwrap();
        let to = vocab.id("to").unwrap();
        let bitcoin = vocab.id("bitcoin").unwrap();
        assert!(filter.is_stop(the));
        assert!(filter.is_stop(to));
        assert!(!filter.is_stop(bitcoin));
        assert_eq!(filter.filter(&[the, bitcoin, to]), vec![bitcoin]);
    }

    #[test]
    fn every_workload_filler_is_a_stopword() {
        // If the workload mixes a filler word LDA can't remove, topics get
        // polluted; pin the invariant.
        for w in chatlens_workload::topics::FILLER {
            assert!(STOPWORDS.contains(w), "filler {w:?} missing from stopwords");
        }
    }
}
