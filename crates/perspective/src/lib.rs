//! # chatlens-perspective — toxicity scoring (the paper's future work)
//!
//! §8 of the paper: *"we aim to … assess the prevalence of toxic content
//! shared within such groups (i.e., by leveraging Google's Perspective
//! API)"*. This crate implements that planned experiment against the
//! simulated ecosystem:
//!
//! * [`lexicon`] — a deterministic toxicity model: per-token weights over
//!   the workload vocabulary (the sex/hentai vocabularies of Table 3 are
//!   the high-toxicity mass), combined into a logistic per-document score
//!   in `[0, 1]` like Perspective's `TOXICITY` probability.
//! * [`service`] — the scoring API as a transport [`Service`]: one
//!   request per document, QPS-limited exactly like the real API's free
//!   tier, so a client that doesn't pace itself gets 429s.
//! * [`client`] — a paced scoring client plus [`client::score_tweets`],
//!   which pushes every collected English tweet through the API and
//!   aggregates per-platform toxicity reports.
//!
//! The result reproduces what the authors hypothesised they would find:
//! Telegram's tweet stream (23% sex topics) scores far above WhatsApp's,
//! with Discord in between (hentai servers, 9%).
//!
//! [`Service`]: chatlens_simnet::transport::Service

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod lexicon;
pub mod service;

pub use client::{collect_english, score_tweets, EnglishTweets, ToxicityReport};
pub use lexicon::ToxicityLexicon;
pub use service::PerspectiveService;
