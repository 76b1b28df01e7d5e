//! # chatlens-simnet — deterministic simulation substrate
//!
//! This crate is the foundation every other `chatlens` crate builds on. It
//! provides the pieces a 38-day measurement campaign needs in order to run
//! in milliseconds, bit-reproducibly, on a laptop:
//!
//! * [`time`] — a virtual clock ([`time::SimTime`]) and a proleptic-Gregorian
//!   calendar so "every day from April 8 through May 15, 2020" (§3.2 of the
//!   paper) is expressible exactly.
//! * [`rng`] — a deterministic random-number generator (SplitMix64-seeded
//!   Xoshiro256\*\*) with cheap forking so independent subsystems draw from
//!   independent streams.
//! * [`dist`] — the distribution toolbox used by the workload models:
//!   uniform, Bernoulli, categorical (Vose alias method), Zipf, log-normal,
//!   exponential, Poisson, Pareto, geometric.
//! * [`event`] / [`engine`] — a discrete-event scheduler in the smoltcp
//!   spirit: event-driven, no threads, deterministic tie-breaking.
//! * [`transport`] — a simulated request/response network with latency,
//!   status codes and pluggable endpoints; the collector crates speak to the
//!   simulated platforms through it exactly as an HTTP client would.
//! * [`fault`] — fault injection (drop/error probability), token-bucket rate
//!   limiting and exponential backoff with full jitter.
//! * [`trace`] — exact per-client transport counters (attempts by status
//!   and endpoint, in-transit drops, breaker openings and fast fails).
//! * [`hash`] — a from-scratch FIPS 180-4 SHA-256 used to one-way-hash phone
//!   numbers, mirroring the paper's ethics protocol (§3.4), and to digest
//!   reports and snapshots; it runs on the x86 SHA extensions when the CPU
//!   has them (the crate's only `unsafe`), on portable scalar rounds
//!   otherwise.
//! * [`metrics`] — lightweight counters, fixed-bucket histograms and
//!   per-stage wall-clock timings.
//! * [`par`] — a deterministic scoped worker pool (`par_map` and
//!   friends) whose outputs are bit-identical at any thread count.
//!
//! Nothing in this crate knows about Twitter or messaging platforms; it is a
//! general deterministic-simulation kit.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod fault;
pub mod hash;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod time;
pub mod trace;
pub mod transport;

pub use engine::Engine;
pub use par::Pool;
pub use rng::Rng;
pub use time::{Date, SimDuration, SimTime};
