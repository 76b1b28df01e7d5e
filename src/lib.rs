//! # chatlens — reproducing *Demystifying the Messaging Platforms'
//! Ecosystem Through the Lens of Twitter* (IMC 2020)
//!
//! This crate ties the workspace together and re-exports the pieces a
//! downstream user needs:
//!
//! ```
//! use chatlens::{run_study, ScenarioConfig};
//!
//! // A ~1%-scale world: build the ecosystem, run the 38-day campaign.
//! let dataset = run_study(ScenarioConfig::tiny());
//! assert!(dataset.groups.len() > 1_000);
//! ```
//!
//! The layer cake, bottom-up:
//!
//! * [`simnet`] — deterministic simulation substrate (virtual time,
//!   seeded RNG + distributions, discrete-event engine, simulated
//!   transport with faults/rate limits/backoff, SHA-256, tracing).
//! * [`platforms`] — WhatsApp / Telegram / Discord simulators with each
//!   platform's real quirks (§2 of the paper).
//! * [`twitter`] — the tweet store plus Search / Streaming / 1%-sample
//!   APIs with realistic incompleteness (§3.1).
//! * [`workload`] — generative models calibrated to the paper's published
//!   distributions; [`workload::Ecosystem`] builds the whole world.
//! * [`checkpoint`] — versioned, checksummed campaign snapshots for
//!   crash-safe long runs with bit-identical resume.
//! * [`core`] — the paper's measurement pipeline: discovery, daily
//!   monitoring, join-budgeted collection, PII accounting (§3).
//! * [`analysis`] — one module per results section: Figs 1–9,
//!   Tables 3–5 (§4–§6), including a from-scratch LDA.
//! * [`report`] — tables, CDF summaries, CSV, paper-vs-measured records.
//!
//! The `repro` binary regenerates **every table and figure** of the paper
//! and prints paper-vs-measured comparisons; see EXPERIMENTS.md for the
//! recorded results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::let_underscore_must_use)]

pub use chatlens_analysis as analysis;
pub use chatlens_checkpoint as checkpoint;
pub use chatlens_core as core;
pub use chatlens_perspective as perspective;
pub use chatlens_platforms as platforms;
pub use chatlens_report as report;
pub use chatlens_simnet as simnet;
pub use chatlens_twitter as twitter;
pub use chatlens_workload as workload;

pub use chatlens_core::{run_study, run_study_with, CampaignConfig, Dataset};
pub use chatlens_workload::{Ecosystem, ScenarioConfig};
