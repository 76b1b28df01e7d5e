//! Latent Dirichlet Allocation via collapsed Gibbs sampling, from scratch.
//!
//! The paper (§4) runs LDA with ten topics per platform over the English
//! tweets sharing that platform's group URLs. This implementation is the
//! standard collapsed Gibbs sampler (Griffiths & Steyvers 2004): each token
//! carries a topic assignment `z`; one sweep resamples every `z` from
//!
//! ```text
//! p(z = k | rest) ∝ (n_dk + α) · (n_kw + β) / (n_k + V·β)
//! ```
//!
//! Deterministic under the config seed — the analysis pipeline's outputs
//! are as reproducible as the simulation's.
//!
//! ## Parallel sweeps
//!
//! Sweeps run as *approximate distributed* LDA (Newman et al. 2009):
//! documents are split into fixed chunks of [`GIBBS_CHUNK_DOCS`], each
//! chunk samples against a frozen start-of-sweep snapshot of the global
//! word–topic counts (its own updates applied locally, exactly), and the
//! per-chunk count deltas are re-merged in chunk order after every sweep.
//! Chunk boundaries and the per-`(sweep, chunk)` RNG forks depend only on
//! the corpus and `cfg.seed` — never on `cfg.threads` — so the fitted
//! model is bit-identical at any thread count. A corpus that fits in one
//! chunk degenerates to the exact serial collapsed Gibbs sampler.

use chatlens_simnet::par::Pool;
use chatlens_simnet::rng::{Rng, Stream};

/// Documents per Gibbs chunk. A pure constant: chunk boundaries must be a
/// function of the corpus alone so thread count can't affect results.
pub const GIBBS_CHUNK_DOCS: usize = 256;

/// Sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct LdaConfig {
    /// Number of topics (the paper uses 10 per platform).
    pub k: usize,
    /// Document–topic smoothing (symmetric Dirichlet α).
    pub alpha: f64,
    /// Topic–word smoothing (symmetric Dirichlet β).
    pub beta: f64,
    /// Gibbs sweeps over the whole corpus.
    pub iterations: usize,
    /// Seed for the sampler's own randomness.
    pub seed: u64,
    /// Worker threads for chunked sweeps (1 = inline). Never affects the
    /// fitted model, only wall-clock time.
    pub threads: usize,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            k: 10,
            alpha: 0.1,
            beta: 0.01,
            iterations: 60,
            seed: 42,
            threads: 1,
        }
    }
}

/// A fitted model.
pub struct LdaModel {
    k: usize,
    vocab_size: usize,
    /// `n_kw[k * V + w]`: tokens of word `w` assigned to topic `k`.
    n_kw: Vec<u32>,
    /// `n_k[k]`: tokens assigned to topic `k`.
    n_k: Vec<u32>,
    /// `n_dk[d * K + k]`: tokens of doc `d` assigned to topic `k`.
    n_dk: Vec<u32>,
    /// Document lengths.
    doc_len: Vec<u32>,
    total_tokens: u64,
    beta: f64,
    alpha: f64,
}

impl LdaModel {
    /// Fit a model to `docs` (token-id documents over a vocabulary of
    /// `vocab_size` words). Empty documents are allowed and simply carry
    /// no assignments.
    ///
    /// Sweeps are chunked (see the module docs): `cfg.threads` controls
    /// only scheduling, never the result.
    ///
    /// # Panics
    /// Panics if `cfg.k == 0`, `vocab_size == 0`, or any token id is out
    /// of range.
    pub fn fit(docs: &[Vec<u16>], vocab_size: usize, cfg: LdaConfig) -> LdaModel {
        assert!(cfg.k > 0, "need at least one topic");
        assert!(vocab_size > 0, "empty vocabulary");
        assert!(cfg.k <= 256, "u8 topic assignments cap K at 256");
        let k = cfg.k;
        let v = vocab_size;
        for doc in docs {
            for &w in doc {
                let w = usize::from(w);
                assert!(w < v, "token id {w} out of vocabulary ({v})");
            }
        }
        let total: usize = docs.iter().map(Vec::len).sum();
        let pool = Pool::new(cfg.threads);

        // Chunk-local sampler state: assignments and doc–topic counts for
        // a fixed range of documents. Boundaries depend only on the
        // corpus, so every thread count sees identical chunks.
        struct DocChunk {
            /// Global index of the chunk's first document.
            d0: usize,
            /// Chunk-local offsets of each doc's tokens into `z`.
            offsets: Vec<usize>,
            /// Topic assignment per token in the chunk.
            z: Vec<u8>,
            /// `n_dk[local_d * K + k]` for the chunk's documents.
            n_dk: Vec<u32>,
        }

        let mut chunks: Vec<DocChunk> = docs
            .chunks(GIBBS_CHUNK_DOCS)
            .enumerate()
            .map(|(c, chunk_docs)| {
                let mut offsets = Vec::with_capacity(chunk_docs.len());
                let mut tokens = 0usize;
                for doc in chunk_docs {
                    offsets.push(tokens);
                    tokens += doc.len();
                }
                DocChunk {
                    d0: c * GIBBS_CHUNK_DOCS,
                    offsets,
                    z: vec![0u8; tokens],
                    n_dk: vec![0u32; chunk_docs.len() * k],
                }
            })
            .collect();

        // Random initialization: per-chunk forks of the config seed keep
        // assignment streams independent of execution order.
        let mut n_kw = vec![0u32; k * v];
        let mut n_k = vec![0u32; k];
        let init_counts = pool.par_chunks_mut(1, &mut chunks, |c, slice| {
            let chunk = &mut slice[0];
            let mut rng = Rng::new(cfg.seed).fork(Stream::LdaInit { chunk: c });
            let mut kw = vec![0u32; k * v];
            let mut nk = vec![0u32; k];
            let chunk_docs = &docs[chunk.d0..chunk.d0 + chunk.offsets.len()];
            let mut pos = 0usize;
            for (dl, doc) in chunk_docs.iter().enumerate() {
                for &w in doc {
                    let w = usize::from(w);
                    let topic = rng.index(k);
                    chunk.z[pos] = topic as u8;
                    kw[topic * v + w] += 1;
                    nk[topic] += 1;
                    chunk.n_dk[dl * k + topic] += 1;
                    pos += 1;
                }
            }
            (kw, nk)
        });
        for (kw, nk) in init_counts {
            for (global, local) in n_kw.iter_mut().zip(&kw) {
                *global += local;
            }
            for (global, local) in n_k.iter_mut().zip(&nk) {
                *global += local;
            }
        }

        // Gibbs sweeps: each chunk samples against the start-of-sweep
        // snapshot (plus its own in-chunk updates, which stay exact), then
        // the per-chunk deltas are reduced back in chunk order.
        let vbeta = v as f64 * cfg.beta;
        for sweep in 0..cfg.iterations {
            let kw_snap = n_kw.clone();
            let nk_snap = n_k.clone();
            let locals = pool.par_chunks_mut(1, &mut chunks, |c, slice| {
                let chunk = &mut slice[0];
                let mut rng = Rng::new(cfg.seed).fork(Stream::LdaSweep { sweep, chunk: c });
                let mut kw = kw_snap.clone();
                let mut nk = nk_snap.clone();
                let mut probs = vec![0.0f64; k];
                let chunk_docs = &docs[chunk.d0..chunk.d0 + chunk.offsets.len()];
                for (dl, doc) in chunk_docs.iter().enumerate() {
                    let base = chunk.offsets[dl];
                    for (j, &w) in doc.iter().enumerate() {
                        let w = usize::from(w);
                        let old = usize::from(chunk.z[base + j]);
                        kw[old * v + w] -= 1;
                        nk[old] -= 1;
                        chunk.n_dk[dl * k + old] -= 1;
                        let mut acc = 0.0;
                        for (t, p) in probs.iter_mut().enumerate() {
                            let term = (f64::from(chunk.n_dk[dl * k + t]) + cfg.alpha)
                                * (f64::from(kw[t * v + w]) + cfg.beta)
                                / (f64::from(nk[t]) + vbeta);
                            acc += term;
                            *p = acc;
                        }
                        let u = rng.f64() * acc;
                        // `probs` is a non-decreasing prefix sum, so the
                        // count of cumulative weights below `u` is the
                        // binary search's index, without its branches.
                        let new = probs.iter().filter(|&&cum| cum < u).count().min(k - 1);
                        chunk.z[base + j] = new as u8;
                        kw[new * v + w] += 1;
                        nk[new] += 1;
                        chunk.n_dk[dl * k + new] += 1;
                    }
                }
                (kw, nk)
            });
            let mut acc_kw: Vec<i64> = kw_snap.iter().map(|&x| i64::from(x)).collect();
            let mut acc_k: Vec<i64> = nk_snap.iter().map(|&x| i64::from(x)).collect();
            for (kw_local, nk_local) in locals {
                for (acc, (&local, &snap)) in acc_kw.iter_mut().zip(kw_local.iter().zip(&kw_snap)) {
                    *acc += i64::from(local) - i64::from(snap);
                }
                for (acc, (&local, &snap)) in acc_k.iter_mut().zip(nk_local.iter().zip(&nk_snap)) {
                    *acc += i64::from(local) - i64::from(snap);
                }
            }
            for (global, acc) in n_kw.iter_mut().zip(&acc_kw) {
                *global = u32::try_from(*acc).expect("token counts stay non-negative");
            }
            for (global, acc) in n_k.iter_mut().zip(&acc_k) {
                *global = u32::try_from(*acc).expect("token counts stay non-negative");
            }
        }

        // Reassemble the global doc–topic matrix in chunk (= document)
        // order.
        let mut n_dk = Vec::with_capacity(docs.len() * k);
        for chunk in &chunks {
            n_dk.extend_from_slice(&chunk.n_dk);
        }
        let doc_len: Vec<u32> = docs.iter().map(|d| d.len() as u32).collect();
        LdaModel {
            k,
            vocab_size: v,
            n_kw,
            n_k,
            n_dk,
            doc_len,
            total_tokens: total as u64,
            beta: cfg.beta,
            alpha: cfg.alpha,
        }
    }

    /// Number of topics.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Total tokens in the corpus.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// The `n` most probable words of `topic`, as `(word id, P(w|k))`.
    pub fn top_words(&self, topic: usize, n: usize) -> Vec<(u16, f64)> {
        let v = self.vocab_size;
        let denom = f64::from(self.n_k[topic]) + v as f64 * self.beta;
        let mut scored: Vec<(u16, f64)> = (0..v)
            .map(|w| {
                (
                    w as u16,
                    (f64::from(self.n_kw[topic * v + w]) + self.beta) / denom,
                )
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probs"));
        scored.truncate(n);
        scored
    }

    /// Fraction of corpus tokens assigned to each topic (the "percentage
    /// of tweets that match each topic" column of Table 3, token-weighted).
    pub fn topic_token_shares(&self) -> Vec<f64> {
        let total = self.total_tokens.max(1) as f64;
        self.n_k.iter().map(|&c| f64::from(c) / total).collect()
    }

    /// Fraction of documents whose dominant topic is each topic.
    pub fn topic_doc_shares(&self) -> Vec<f64> {
        let mut counts = vec![0u64; self.k];
        let mut assigned = 0u64;
        for d in 0..self.doc_len.len() {
            if let Some(t) = self.dominant_topic(d) {
                counts[t] += 1;
                assigned += 1;
            }
        }
        counts
            .into_iter()
            .map(|c| c as f64 / assigned.max(1) as f64)
            .collect()
    }

    /// The topic with the most assignments in document `d` (`None` for an
    /// empty document).
    pub fn dominant_topic(&self, d: usize) -> Option<usize> {
        if self.doc_len[d] == 0 {
            return None;
        }
        (0..self.k).max_by_key(|&t| self.n_dk[d * self.k + t])
    }

    /// Per-word perplexity of the training corpus under the fitted
    /// point estimates — lower is better; used by the K-sweep ablation.
    pub fn perplexity(&self, docs: &[Vec<u16>]) -> f64 {
        let v = self.vocab_size as f64;
        let mut log_lik = 0.0f64;
        let mut tokens = 0u64;
        for (d, doc) in docs.iter().enumerate() {
            let dl = f64::from(self.doc_len[d]) + self.k as f64 * self.alpha;
            for &w in doc {
                let w = usize::from(w);
                let mut p = 0.0;
                for t in 0..self.k {
                    let theta = (f64::from(self.n_dk[d * self.k + t]) + self.alpha) / dl;
                    let phi = (f64::from(self.n_kw[t * self.vocab_size + w]) + self.beta)
                        / (f64::from(self.n_k[t]) + v * self.beta);
                    p += theta * phi;
                }
                log_lik += p.max(1e-300).ln();
                tokens += 1;
            }
        }
        (-log_lik / tokens.max(1) as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cleanly separated word communities: words 0–4 vs words 5–9.
    fn synthetic_corpus(docs_per_topic: usize, rng: &mut Rng) -> Vec<Vec<u16>> {
        let mut docs = Vec::new();
        for topic in 0..2u16 {
            for _ in 0..docs_per_topic {
                let doc: Vec<u16> = (0..20).map(|_| topic * 5 + rng.below(5) as u16).collect();
                docs.push(doc);
            }
        }
        docs
    }

    #[test]
    fn recovers_planted_topics() {
        let mut rng = Rng::new(1);
        let docs = synthetic_corpus(100, &mut rng);
        let model = LdaModel::fit(
            &docs,
            10,
            LdaConfig {
                k: 2,
                iterations: 80,
                ..LdaConfig::default()
            },
        );
        // Each topic's top-5 words must be one of the planted communities.
        for t in 0..2 {
            let top: Vec<u16> = model.top_words(t, 5).into_iter().map(|(w, _)| w).collect();
            let low = top.iter().filter(|&&w| w < 5).count();
            assert!(low == 0 || low == 5, "topic {t} mixed communities: {top:?}");
        }
        // And the two topics must be different communities.
        let t0: Vec<u16> = model.top_words(0, 5).into_iter().map(|(w, _)| w).collect();
        let t1: Vec<u16> = model.top_words(1, 5).into_iter().map(|(w, _)| w).collect();
        assert_ne!(t0[0] < 5, t1[0] < 5, "topics collapsed together");
    }

    #[test]
    fn dominant_topic_separates_documents() {
        let mut rng = Rng::new(2);
        let docs = synthetic_corpus(50, &mut rng);
        let model = LdaModel::fit(
            &docs,
            10,
            LdaConfig {
                k: 2,
                iterations: 80,
                ..LdaConfig::default()
            },
        );
        // Docs 0..50 share one dominant topic, docs 50..100 the other.
        let first = model.dominant_topic(0).unwrap();
        let agree_first = (0..50)
            .filter(|&d| model.dominant_topic(d) == Some(first))
            .count();
        let agree_second = (50..100)
            .filter(|&d| model.dominant_topic(d) == Some(1 - first))
            .count();
        assert!(agree_first > 45, "first block: {agree_first}/50");
        assert!(agree_second > 45, "second block: {agree_second}/50");
    }

    #[test]
    fn shares_sum_to_one() {
        let mut rng = Rng::new(3);
        let docs = synthetic_corpus(30, &mut rng);
        let model = LdaModel::fit(
            &docs,
            10,
            LdaConfig {
                k: 3,
                ..LdaConfig::default()
            },
        );
        let token_shares: f64 = model.topic_token_shares().iter().sum();
        assert!((token_shares - 1.0).abs() < 1e-9);
        let doc_shares: f64 = model.topic_doc_shares().iter().sum();
        assert!((doc_shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng = Rng::new(4);
        let docs = synthetic_corpus(40, &mut rng);
        let cfg = LdaConfig {
            k: 2,
            iterations: 30,
            ..LdaConfig::default()
        };
        let a = LdaModel::fit(&docs, 10, cfg);
        let b = LdaModel::fit(&docs, 10, cfg);
        assert_eq!(a.n_kw, b.n_kw);
        assert_eq!(a.topic_token_shares(), b.topic_token_shares());
    }

    #[test]
    fn thread_count_never_changes_the_model() {
        // 600 docs span three Gibbs chunks, so the parallel snapshot/merge
        // path genuinely executes; the fitted counts must be bit-identical
        // at every thread count.
        let mut rng = Rng::new(6);
        let docs = synthetic_corpus(300, &mut rng);
        assert!(docs.len() > 2 * GIBBS_CHUNK_DOCS);
        let cfg = LdaConfig {
            k: 2,
            iterations: 15,
            ..LdaConfig::default()
        };
        let base = LdaModel::fit(&docs, 10, LdaConfig { threads: 1, ..cfg });
        for threads in [2, 8] {
            let m = LdaModel::fit(&docs, 10, LdaConfig { threads, ..cfg });
            assert_eq!(m.n_kw, base.n_kw, "{threads} threads: n_kw diverged");
            assert_eq!(m.n_k, base.n_k, "{threads} threads: n_k diverged");
            assert_eq!(m.n_dk, base.n_dk, "{threads} threads: n_dk diverged");
        }
    }

    #[test]
    fn chunked_sweeps_still_recover_topics_on_large_corpora() {
        // Multi-chunk corpora use stale-count (approximate) sweeps; the
        // planted structure must still be recovered.
        let mut rng = Rng::new(7);
        let docs = synthetic_corpus(200, &mut rng); // 400 docs, 2 chunks
        let model = LdaModel::fit(
            &docs,
            10,
            LdaConfig {
                k: 2,
                iterations: 60,
                ..LdaConfig::default()
            },
        );
        let t0: Vec<u16> = model.top_words(0, 5).into_iter().map(|(w, _)| w).collect();
        let t1: Vec<u16> = model.top_words(1, 5).into_iter().map(|(w, _)| w).collect();
        assert_ne!(t0[0] < 5, t1[0] < 5, "topics collapsed together");
    }

    #[test]
    fn perplexity_improves_with_right_k() {
        let mut rng = Rng::new(5);
        let docs = synthetic_corpus(60, &mut rng);
        let p1 = LdaModel::fit(
            &docs,
            10,
            LdaConfig {
                k: 1,
                iterations: 40,
                ..LdaConfig::default()
            },
        )
        .perplexity(&docs);
        let p2 = LdaModel::fit(
            &docs,
            10,
            LdaConfig {
                k: 2,
                iterations: 40,
                ..LdaConfig::default()
            },
        )
        .perplexity(&docs);
        assert!(
            p2 < p1,
            "two planted topics should beat one: k1={p1:.2} k2={p2:.2}"
        );
        // The planted vocabulary has 5 words/topic; perplexity near 5 is
        // optimal for the right model.
        assert!(p2 < 7.0, "k=2 perplexity {p2:.2}");
    }

    #[test]
    fn empty_documents_are_tolerated() {
        let docs = vec![vec![], vec![1u16, 2, 3], vec![]];
        let model = LdaModel::fit(
            &docs,
            5,
            LdaConfig {
                k: 2,
                iterations: 10,
                ..LdaConfig::default()
            },
        );
        assert_eq!(model.dominant_topic(0), None);
        assert!(model.dominant_topic(1).is_some());
        assert_eq!(model.total_tokens(), 3);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_out_of_range_tokens() {
        let docs = vec![vec![9u16]];
        let _ = LdaModel::fit(&docs, 5, LdaConfig::default());
    }
}
