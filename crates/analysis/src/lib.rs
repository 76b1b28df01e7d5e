//! # chatlens-analysis — the paper's analyses, one module per section
//!
//! Everything here consumes what the collection campaign saw (never the
//! simulator's ground truth — the analyses must work from what the
//! instrument saw, like the paper's did). Each results-section module is
//! one [`DayFold`] with a typed `output()`:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`discovery`] | Fig 1 (URLs/day: all, unique, new), Fig 2 (tweets per URL) |
//! | [`content`] | Fig 3 (hashtags/mentions/retweets), Fig 4 (languages) |
//! | [`lda`] + [`topics`] | Table 3 (LDA topics over English tweets) |
//! | [`lifecycle`] | Fig 5 (staleness), Fig 6 (lifetime & revocation) |
//! | [`membership`] | Fig 7 (sizes, online share, growth), §5 creators |
//! | [`messages`] | Fig 8 (message types), Fig 9 (volumes) |
//! | [`pii`] | Table 4 (exposure), Table 5 (Discord linked accounts) |
//!
//! Supporting machinery: [`text`] (tokenization and stopword removal),
//! [`lda`] (collapsed-Gibbs Latent Dirichlet Allocation, from scratch),
//! and [`stats`] (ECDFs, quantiles, concentration shares).
//!
//! A fold runs live inside a campaign session or over an assembled
//! [`Dataset`] ([`pipeline::fold_dataset`]); [`pipeline`] registers the
//! full fold set, and `tests/fold_parity.rs` locks the two ways of
//! running it byte-for-byte against golden fragments.
//!
//! [`Dataset`]: chatlens_core::Dataset
//! [`DayFold`]: chatlens_core::DayFold

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod content;
pub mod discovery;
pub mod lda;
pub mod lifecycle;
pub mod membership;
pub mod messages;
pub mod pii;
pub mod pipeline;
pub mod stats;
pub mod text;
pub mod topics;

pub use lda::{LdaConfig, LdaModel};
pub use pipeline::{batch_fragments, fold_dataset, standard_folds, StandardFolds};
pub use stats::Ecdf;
