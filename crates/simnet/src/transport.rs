//! Simulated request/response transport.
//!
//! The collector crates talk to the simulated platforms the way the paper's
//! tooling talked to the real ones: by issuing requests to named endpoints
//! and parsing textual responses (a scraped landing page, an API reply).
//! This module provides the plumbing:
//!
//! * [`Request`] / [`Response`] — endpoint path, string parameters, status
//!   code, textual body.
//! * [`Service`] — the handler trait a simulated platform implements.
//! * [`Router`] — dispatches the requests under an endpoint prefix to a service.
//! * [`Client`] — the caller side: token-bucket rate limiting, fault
//!   injection, retry with exponential backoff, and exact traffic counters.
//!
//! Latency is *sampled and accounted* (reported on each response) rather
//! than woven into the event queue: the campaign operates at hour/day
//! granularity, so per-request latencies only need to be realistic in
//! aggregate, not to reorder events.

use crate::fault::{
    Backoff, CorruptionSchedule, FaultInjector, FaultSchedule, OutageMode, TokenBucket,
    TokenBucketState,
};
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceCounters;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Response status, modelled on the HTTP codes the paper's scrapers saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200 — successful response with a meaningful body.
    Ok,
    /// 404 — the resource never existed (malformed id, dead vanity URL).
    NotFound,
    /// 410 — the resource existed but was revoked/expired; the body carries
    /// the revocation notice, exactly like a dead invite's landing page.
    Gone,
    /// 429 — rate limited; retry after the embedded number of seconds
    /// (Telegram's FLOOD_WAIT, Twitter's rate-limit window).
    RateLimited(u32),
    /// 403 — authenticated but not allowed (e.g. a bot asked to self-join a
    /// Discord guild).
    Forbidden,
    /// 5xx — transient server error.
    ServerError,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Ok => write!(f, "200 OK"),
            Status::NotFound => write!(f, "404 Not Found"),
            Status::Gone => write!(f, "410 Gone"),
            Status::RateLimited(s) => write!(f, "429 Rate Limited (retry after {s}s)"),
            Status::Forbidden => write!(f, "403 Forbidden"),
            Status::ServerError => write!(f, "500 Server Error"),
        }
    }
}

/// A request to a named endpoint with string parameters.
///
/// Built on the campaign hot path millions of times per run, so the
/// representation is allocation-shy: endpoint and parameter keys are
/// almost always `'static` literals and borrow them (`Cow`), and the
/// parameter list is a small sorted vector rather than a tree — same
/// deterministic key order, no per-node allocation.
#[derive(Debug, Clone)]
pub struct Request {
    /// Endpoint path, e.g. `"whatsapp/landing"` or `"twitter/search"`.
    pub endpoint: Cow<'static, str>,
    /// Key/value parameters, sorted by key (deterministic tracing); at
    /// most one entry per key.
    pub params: Vec<(Cow<'static, str>, String)>,
}

impl Request {
    /// A request with no parameters.
    pub fn new(endpoint: impl Into<Cow<'static, str>>) -> Request {
        Request {
            endpoint: endpoint.into(),
            params: Vec::new(),
        }
    }

    /// Builder-style parameter attachment. Re-attaching a key replaces
    /// its value, like the map this vector used to be.
    pub fn with(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<String>) -> Request {
        let key = key.into();
        let value = value.into();
        match self
            .params
            .binary_search_by(|(k, _)| k.as_ref().cmp(key.as_ref()))
        {
            Ok(i) => self.params[i].1 = value,
            Err(i) => self.params.insert(i, (key, value)),
        }
        self
    }

    /// Fetch a parameter by key.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .map(|i| self.params[i].1.as_str())
    }
}

/// A response: status, textual body, and the sampled service latency.
#[derive(Debug, Clone)]
pub struct Response {
    /// Outcome status.
    pub status: Status,
    /// Serialized body (scraped page, API reply). Empty on errors unless the
    /// error page itself carries content (e.g. a revocation notice).
    pub body: String,
    /// Simulated service latency for this exchange.
    pub latency: SimDuration,
}

impl Response {
    /// A 200 response with `body` (latency filled in by the router).
    pub fn ok(body: impl Into<String>) -> Response {
        Response {
            status: Status::Ok,
            body: body.into(),
            latency: SimDuration::ZERO,
        }
    }

    /// An error-ish response with `status` and an optional notice body.
    pub fn status(status: Status, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            latency: SimDuration::ZERO,
        }
    }
}

/// A simulated server-side handler (a platform frontend or API).
pub trait Service {
    /// Handle `req` at virtual time `now`.
    fn handle(&mut self, now: SimTime, req: &Request) -> Response;
}

impl<F> Service for F
where
    F: FnMut(SimTime, &Request) -> Response,
{
    fn handle(&mut self, now: SimTime, req: &Request) -> Response {
        self(now, req)
    }
}

/// Routes the endpoints under one prefix (a whole `/`-separated segment
/// path) to a service; any other endpoint yields 404. Built per call on
/// the campaign hot path, so it borrows both and allocates nothing.
pub struct Router<'a> {
    prefix: &'a str,
    service: &'a mut dyn Service,
}

impl<'a> Router<'a> {
    /// A router sending endpoints under `prefix` to `service`.
    pub fn new(prefix: &'a str, service: &'a mut dyn Service) -> Self {
        Router { prefix, service }
    }

    /// Dispatch a request; endpoints outside the prefix yield 404.
    pub fn dispatch(&mut self, now: SimTime, req: &Request) -> Response {
        let under = req
            .endpoint
            .strip_prefix(self.prefix)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'));
        if under {
            self.service.handle(now, req)
        } else {
            Response::status(Status::NotFound, "no such endpoint")
        }
    }
}

/// Client-side transport error after retries are exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The fault injector dropped every attempt (network unreachable).
    Dropped {
        /// Number of attempts made before giving up.
        attempts: u32,
    },
    /// The final attempt returned a non-retryable or persistent status.
    Failed {
        /// Status of the final attempt.
        status: Status,
        /// Number of attempts made.
        attempts: u32,
    },
    /// The local rate limiter refused to release a token within the
    /// client's patience window.
    RateBudgetExhausted,
    /// The circuit breaker for this endpoint prefix is open: the call was
    /// rejected locally without touching the wire.
    BreakerOpen {
        /// Virtual time at which the breaker will admit a half-open probe.
        until: SimTime,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Dropped { attempts } => {
                write!(f, "request dropped after {attempts} attempts")
            }
            TransportError::Failed { status, attempts } => {
                write!(f, "request failed with {status} after {attempts} attempts")
            }
            TransportError::RateBudgetExhausted => write!(f, "local rate budget exhausted"),
            TransportError::BreakerOpen { until } => {
                write!(f, "circuit breaker open until t={until}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Configuration for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Maximum attempts per logical request (1 = no retries).
    pub max_attempts: u32,
    /// Base delay for exponential backoff between retries.
    pub backoff_base: SimDuration,
    /// Upper bound on a single backoff delay.
    pub backoff_max: SimDuration,
    /// Sustained request rate allowed by the local token bucket, per second.
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// Mean simulated latency per exchange, in milliseconds (sampled
    /// exponentially; accounted, not scheduled).
    pub mean_latency_ms: f64,
    /// Consecutive *call-level* failures on one endpoint prefix before the
    /// circuit breaker opens. `0` disables the breaker entirely.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects calls before admitting a single
    /// half-open probe.
    pub breaker_cooldown: SimDuration,
    /// Per-call deadline budget: once a call's accumulated virtual waiting
    /// would push past this horizon, the client stops retrying and reports
    /// the failure instead of burning more rate budget.
    pub deadline: SimDuration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 4,
            backoff_base: SimDuration::secs(1),
            backoff_max: SimDuration::secs(60),
            rate_per_sec: 10.0,
            burst: 20.0,
            mean_latency_ms: 120.0,
            breaker_threshold: 0,
            breaker_cooldown: SimDuration::secs(600),
            deadline: SimDuration::secs(3_600),
        }
    }
}

/// Per-endpoint-prefix circuit breaker state: closed (counting consecutive
/// failed calls) → open (failing fast until a deterministic cooldown
/// elapses) → a single half-open probe that either re-closes or re-opens
/// the breaker. Between calls the state is always `Closed` or `Open`;
/// `HalfOpen` exists only while the probe call is in flight, but is
/// persisted for totality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; `consecutive_failures` exhausted-retry calls in a row
    /// have been observed (reset on any success).
    Closed {
        /// Consecutive failed calls so far.
        consecutive_failures: u32,
    },
    /// Calls are rejected locally until `until`.
    Open {
        /// When the next call is admitted as a half-open probe.
        until: SimTime,
    },
    /// The cooldown elapsed and the probe call is in flight.
    HalfOpen,
}

/// The mutable state of a [`Client`], exported by [`Client::state`] and
/// restored with [`Client::restore_state`]. Everything a resumed campaign
/// needs to continue the client's RNG/rate streams bit-identically and its
/// counters exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientState {
    /// Token-bucket fill level and refill cursor.
    pub bucket: TokenBucketState,
    /// RNG stream position (latency sampling, fault rolls, backoff jitter).
    pub rng: [u64; 4],
    /// Accumulated virtual wait time.
    pub waited: SimDuration,
    /// Exact traffic counters.
    pub trace: TraceCounters,
    /// Monotone clock fed to the token bucket (never regresses even when a
    /// retried call's virtual time overtakes the next call's start).
    pub rate_clock: SimTime,
    /// Dedicated RNG stream for Gilbert–Elliott phase transitions.
    pub burst_rng: [u64; 4],
    /// Whether the burst chain is currently in the bad state.
    pub burst_bad: bool,
    /// Circuit-breaker state per endpoint prefix.
    pub breakers: BTreeMap<String, BreakerState>,
    /// Dedicated RNG stream for payload-corruption rolls.
    pub corrupt_rng: [u64; 4],
    /// The previous *clean* successful body (cross-splice source). Only
    /// tracked while a corruption schedule is active.
    pub last_ok_body: Option<String>,
    /// Number of successful responses whose body was corrupted in flight.
    pub corrupted: u64,
}

/// The caller side of the transport: rate limiting, fault injection,
/// retries with backoff, and traffic counters. One `Client` per logical
/// account or API credential, mirroring how the paper's collectors held one
/// credential per platform.
pub struct Client {
    config: ClientConfig,
    bucket: TokenBucket,
    plan: FaultSchedule,
    rng: Rng,
    /// Dedicated stream for Gilbert–Elliott phase rolls, forked from the
    /// main RNG only when a burst layer is configured so a calm schedule
    /// consumes no extra draws per attempt.
    burst_rng: Rng,
    burst_bad: bool,
    breakers: BTreeMap<String, BreakerState>,
    rate_clock: SimTime,
    /// Payload-corruption model applied to successful bodies only.
    corruption: CorruptionSchedule,
    /// Dedicated stream for corruption rolls, forked from the main RNG only
    /// when a corruption schedule is active so a calm configuration
    /// consumes no extra draws.
    corrupt_rng: Rng,
    /// Previous clean successful body, the cross-splice source. Tracked
    /// only while corruption is active.
    last_ok_body: Option<String>,
    corrupted: u64,
    trace: TraceCounters,
    /// Virtual time spent waiting (backoff + rate limiting), accumulated so
    /// the campaign can account for collection slowness.
    pub waited: SimDuration,
}

impl Client {
    /// Build a client. `rng` drives latency sampling, fault injection and
    /// backoff jitter; `faults` configures i.i.d. drop/error probabilities.
    pub fn new(config: ClientConfig, faults: FaultInjector, rng: Rng, start: SimTime) -> Self {
        Client::with_schedule(config, FaultSchedule::from(faults), rng, start)
    }

    /// Build a client against a full [`FaultSchedule`] (i.i.d. base, burst
    /// layer, scheduled outages). A schedule with no burst layer and no
    /// outages behaves bit-for-bit like [`Client::new`].
    pub fn with_schedule(
        config: ClientConfig,
        plan: FaultSchedule,
        mut rng: Rng,
        start: SimTime,
    ) -> Self {
        let bucket = TokenBucket::new(config.burst, config.rate_per_sec, start);
        let burst_rng = if plan.burst.is_some() {
            rng.fork("burst")
        } else {
            Rng::new(0)
        };
        Client {
            config,
            bucket,
            plan,
            rng,
            burst_rng,
            burst_bad: false,
            breakers: BTreeMap::new(),
            rate_clock: start,
            corruption: CorruptionSchedule::none(),
            corrupt_rng: Rng::new(0),
            last_ok_body: None,
            corrupted: 0,
            trace: TraceCounters::default(),
            waited: SimDuration::ZERO,
        }
    }

    /// Layer a payload-corruption schedule onto this client. An inactive
    /// schedule is a no-op (no RNG fork, no draws), keeping calm
    /// configurations bit-identical to clients built without this call.
    pub fn with_corruption(mut self, corruption: CorruptionSchedule) -> Client {
        if corruption.is_active() {
            self.corrupt_rng = self.rng.fork("corruption");
        }
        self.corruption = corruption;
        self
    }

    /// Number of successful responses whose body the corruption schedule
    /// mangled in flight.
    pub fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// A client with default config, no faults, seeded from `seed`.
    pub fn plain(seed: u64, start: SimTime) -> Client {
        Client::new(
            ClientConfig::default(),
            FaultInjector::none(),
            Rng::new(seed),
            start,
        )
    }

    /// The client's traffic counters.
    pub fn trace(&self) -> &TraceCounters {
        &self.trace
    }

    /// Export the client's mutable state for a checkpoint: token-bucket
    /// fill, RNG position, accumulated wait, and traffic counters. The
    /// configuration and fault model are *not* included — they are
    /// re-derived deterministically by the caller on restore.
    pub fn state(&self) -> ClientState {
        ClientState {
            bucket: self.bucket.state(),
            rng: self.rng.state(),
            waited: self.waited,
            trace: self.trace.clone(),
            rate_clock: self.rate_clock,
            burst_rng: self.burst_rng.state(),
            burst_bad: self.burst_bad,
            breakers: self.breakers.clone(),
            corrupt_rng: self.corrupt_rng.state(),
            last_ok_body: self.last_ok_body.clone(),
            corrupted: self.corrupted,
        }
    }

    /// Overwrite the client's mutable state from an exported
    /// [`ClientState`] (the restore half of checkpointing). The client must
    /// have been rebuilt with the same configuration and fault schedule it
    /// was created with.
    pub fn restore_state(&mut self, s: ClientState) {
        self.bucket = TokenBucket::from_state(s.bucket);
        self.rng = Rng::from_state(s.rng);
        self.waited = s.waited;
        self.trace = s.trace;
        self.rate_clock = s.rate_clock;
        self.burst_rng = Rng::from_state(s.burst_rng);
        self.burst_bad = s.burst_bad;
        self.breakers = s.breakers;
        self.corrupt_rng = Rng::from_state(s.corrupt_rng);
        self.last_ok_body = s.last_ok_body;
        self.corrupted = s.corrupted;
    }

    /// Current circuit-breaker state for an endpoint prefix, if the
    /// breaker has ever counted anything there.
    pub fn breaker(&self, prefix: &str) -> Option<BreakerState> {
        self.breakers.get(prefix).copied()
    }

    /// Issue `req` against `router` at virtual time `now`, with retries.
    ///
    /// On success returns the response. The client's `waited` counter
    /// accumulates all simulated waiting (rate limiting and backoff) that
    /// actually precedes a retry — a wait that would never be served
    /// (because the attempt budget or the deadline is exhausted) is not
    /// charged.
    ///
    /// The per-prefix circuit breaker is consulted first: an open breaker
    /// rejects the call locally ([`TransportError::BreakerOpen`]) without
    /// touching the wire, the rate bucket, or any RNG stream.
    pub fn call(
        &mut self,
        router: &mut Router<'_>,
        now: SimTime,
        req: &Request,
    ) -> Result<Response, TransportError> {
        let prefix = req.endpoint.split('/').next().unwrap_or("");
        let mut probing = false;
        if self.config.breaker_threshold > 0 {
            match self.breakers.get(prefix) {
                Some(BreakerState::Open { until }) if now < *until => {
                    let until = *until;
                    self.trace.breaker_fast_fails += 1;
                    return Err(TransportError::BreakerOpen { until });
                }
                Some(BreakerState::Open { .. }) => {
                    // Cooldown elapsed: admit this call as the half-open
                    // probe.
                    self.breakers
                        .insert(prefix.to_string(), BreakerState::HalfOpen);
                    probing = true;
                }
                _ => {}
            }
        }
        let result = self.call_inner(router, now, req);
        if self.config.breaker_threshold > 0 {
            self.settle_breaker(prefix, now, probing, &result);
        }
        result
    }

    /// The retry loop, without breaker bookkeeping.
    fn call_inner(
        &mut self,
        router: &mut Router<'_>,
        now: SimTime,
        req: &Request,
    ) -> Result<Response, TransportError> {
        // A suspended credential (ban window) answers instantly with 403;
        // retrying cannot help, so fail fast after a single attempt.
        if self.plan.active_outage(now) == Some(OutageMode::Ban) {
            self.trace.record(&req.endpoint, Some(Status::Forbidden));
            return Err(TransportError::Failed {
                status: Status::Forbidden,
                attempts: 1,
            });
        }
        let mut backoff = Backoff::new(self.config.backoff_base, 2.0, self.config.backoff_max);
        let mut virtual_now = now;
        let deadline = now + self.config.deadline;
        let mut attempts = 0u32;
        let mut last_status: Option<Status> = None;
        while attempts < self.config.max_attempts {
            attempts += 1;
            // Local rate limiting: wait (virtually) for a token. The bucket
            // requires a monotone clock, but a retried call's virtual time
            // can overtake the next call's start time, so feed it the
            // running maximum.
            self.rate_clock = self.rate_clock.max(virtual_now);
            match self.bucket.acquire(self.rate_clock) {
                Some(wait) => {
                    virtual_now += wait;
                    self.waited = self.waited + wait;
                }
                None => return Err(TransportError::RateBudgetExhausted),
            }
            // A blackout outage eats every attempt on the wire without
            // consuming any RNG draws.
            let blackout = self.plan.active_outage(virtual_now) == Some(OutageMode::Blackout);
            // Advance the Gilbert–Elliott chain one step per attempt on its
            // dedicated stream, then pick the fault model for this attempt.
            let injector = match self.plan.burst {
                Some(b) => {
                    self.burst_bad = if self.burst_bad {
                        !self.burst_rng.chance(b.p_exit)
                    } else {
                        self.burst_rng.chance(b.p_enter)
                    };
                    if self.burst_bad {
                        b.bad
                    } else {
                        self.plan.base
                    }
                }
                None => self.plan.base,
            };
            let latency = if blackout {
                SimDuration::ZERO
            } else {
                SimDuration::secs((self.sample_latency_ms() / 1000.0).ceil().max(0.0) as u64)
            };
            // Fault injection: dropped on the wire?
            if blackout || injector.drop_now(&mut self.rng) {
                self.trace.record(&req.endpoint, None);
                if attempts < self.config.max_attempts {
                    let wait = backoff.next_delay(&mut self.rng);
                    if virtual_now + wait > deadline {
                        break;
                    }
                    virtual_now += wait;
                    self.waited = self.waited + wait;
                }
                continue;
            }
            // Injected server-side error?
            let mut resp = if injector.error_now(&mut self.rng) {
                Response::status(Status::ServerError, "injected fault")
            } else {
                router.dispatch(virtual_now, req)
            };
            resp.latency = latency;
            self.trace.record(&req.endpoint, Some(resp.status));
            match resp.status {
                Status::Ok => {
                    self.maybe_corrupt(&mut resp);
                    return Ok(resp);
                }
                Status::NotFound | Status::Gone | Status::Forbidden => {
                    return Ok(resp);
                }
                // A retryable status on the final allowed attempt accrues
                // no wait: there is no retry left for the wait to precede.
                Status::RateLimited(retry_after) => {
                    last_status = Some(resp.status);
                    if attempts < self.config.max_attempts {
                        let wait = SimDuration::secs(u64::from(retry_after))
                            + backoff.next_delay(&mut self.rng);
                        if virtual_now + wait > deadline {
                            break;
                        }
                        virtual_now += wait;
                        self.waited = self.waited + wait;
                    }
                }
                Status::ServerError => {
                    last_status = Some(resp.status);
                    if attempts < self.config.max_attempts {
                        let wait = backoff.next_delay(&mut self.rng);
                        if virtual_now + wait > deadline {
                            break;
                        }
                        virtual_now += wait;
                        self.waited = self.waited + wait;
                    }
                }
            }
        }
        match last_status {
            Some(status) => Err(TransportError::Failed { status, attempts }),
            None => Err(TransportError::Dropped { attempts }),
        }
    }

    /// Open the breaker on `prefix` for one cooldown from `now`, and count
    /// the opening.
    fn open_breaker(&mut self, prefix: &str, now: SimTime) {
        self.trace.breaker_opened += 1;
        let until = now + self.config.breaker_cooldown;
        self.breakers
            .insert(prefix.to_string(), BreakerState::Open { until });
    }

    /// Update the breaker after a call resolved. Only service failures
    /// (exhausted retries, fail-fast bans) count toward opening; a local
    /// rate-budget error says nothing about the far end, but a half-open
    /// probe it stopped re-arms the cooldown instead of leaving the breaker
    /// half-open. A failed probe re-opens for another cooldown; a
    /// successful one re-closes.
    fn settle_breaker(
        &mut self,
        prefix: &str,
        now: SimTime,
        probing: bool,
        result: &Result<Response, TransportError>,
    ) {
        let closed = |consecutive_failures| BreakerState::Closed {
            consecutive_failures,
        };
        match result {
            Err(TransportError::Dropped { .. }) | Err(TransportError::Failed { .. }) => {
                let count = match self.breakers.get(prefix) {
                    Some(BreakerState::Closed {
                        consecutive_failures,
                    }) => consecutive_failures + 1,
                    _ => 1,
                };
                if probing || count >= self.config.breaker_threshold {
                    self.open_breaker(prefix, now);
                } else {
                    self.breakers.insert(prefix.to_string(), closed(count));
                }
            }
            // Any success resets the failure count (and re-closes a
            // probing breaker) without allocating a key when nothing
            // changes.
            Ok(_) => {
                if self.breakers.get(prefix).is_some_and(|&b| b != closed(0)) {
                    self.breakers.insert(prefix.to_string(), closed(0));
                }
            }
            Err(_) if probing => self.open_breaker(prefix, now),
            Err(_) => {}
        }
    }

    /// Roll the corruption schedule against a successful response. Status
    /// codes are never touched — corruption is strictly content-level, so
    /// only hardened parsing downstream can detect it. The clean body is
    /// remembered as the next cross-splice source.
    fn maybe_corrupt(&mut self, resp: &mut Response) {
        if !self.corruption.is_active() {
            return;
        }
        let clean = resp.body.clone();
        if self.corruption.corrupt_now(&mut self.corrupt_rng) {
            let (mangled, _kind) = self.corruption.corrupt_body(
                &clean,
                self.last_ok_body.as_deref(),
                &mut self.corrupt_rng,
            );
            resp.body = mangled;
            self.corrupted += 1;
        }
        self.last_ok_body = Some(clean);
    }

    fn sample_latency_ms(&mut self) -> f64 {
        // Exponential latency with the configured mean.
        let u = 1.0 - self.rng.f64();
        -u.ln() * self.config.mean_latency_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;

    fn ok_service() -> impl Service {
        |_: SimTime, req: &Request| Response::ok(format!("echo:{}", req.endpoint))
    }

    #[test]
    fn router_dispatches_by_prefix() {
        let mut a = ok_service();
        let mut r = Router::new("alpha", &mut a);
        let resp = r.dispatch(SimTime(0), &Request::new("alpha/shallow"));
        assert_eq!(resp.body, "echo:alpha/shallow");
        let resp = r.dispatch(SimTime(0), &Request::new("alpha/deep/x"));
        assert_eq!(
            resp.body, "echo:alpha/deep/x",
            "every depth under the prefix"
        );
        let resp = r.dispatch(SimTime(0), &Request::new("alpha"));
        assert_eq!(resp.body, "echo:alpha", "the prefix itself");
        for outside in ["alphabet", "alph", "beta/alpha", ""] {
            let resp = r.dispatch(SimTime(0), &Request::new(outside));
            assert_eq!(
                resp.status,
                Status::NotFound,
                "{outside:?}: the prefix must end at a segment"
            );
        }
    }

    #[test]
    fn router_unknown_endpoint_404() {
        let mut svc = ok_service();
        let mut r = Router::new("svc", &mut svc);
        let resp = r.dispatch(SimTime(0), &Request::new("nowhere"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn client_success_roundtrip() {
        let mut svc = ok_service();
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::plain(1, SimTime(0));
        let resp = client
            .call(&mut router, SimTime(0), &Request::new("svc/op"))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "echo:svc/op");
        assert_eq!(client.trace().total, 1);
    }

    #[test]
    fn client_retries_server_errors_then_succeeds() {
        let mut remaining_failures = 2;
        let mut svc = move |_: SimTime, _: &Request| {
            if remaining_failures > 0 {
                remaining_failures -= 1;
                Response::status(Status::ServerError, "boom")
            } else {
                Response::ok("fine")
            }
        };
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::plain(2, SimTime(0));
        let resp = client
            .call(&mut router, SimTime(0), &Request::new("svc"))
            .unwrap();
        assert_eq!(resp.body, "fine");
        assert_eq!(client.trace().total, 3, "two failures + one success");
        assert!(client.waited > SimDuration::ZERO, "backoff accumulated");
    }

    #[test]
    fn client_gives_up_after_max_attempts() {
        let mut svc = |_: SimTime, _: &Request| Response::status(Status::ServerError, "");
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::plain(3, SimTime(0));
        let err = client
            .call(&mut router, SimTime(0), &Request::new("svc"))
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Failed {
                status: Status::ServerError,
                attempts: 4
            }
        );
    }

    #[test]
    fn client_honours_rate_limited_retry_after() {
        let mut first = true;
        let mut svc = move |_: SimTime, _: &Request| {
            if first {
                first = false;
                Response::status(Status::RateLimited(30), "")
            } else {
                Response::ok("after wait")
            }
        };
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::plain(4, SimTime(0));
        let resp = client
            .call(&mut router, SimTime(0), &Request::new("svc"))
            .unwrap();
        assert_eq!(resp.body, "after wait");
        assert!(
            client.waited >= SimDuration::secs(30),
            "waited {} < retry-after",
            client.waited
        );
    }

    #[test]
    fn non_retryable_statuses_return_immediately() {
        for status in [Status::NotFound, Status::Gone, Status::Forbidden] {
            let mut svc = move |_: SimTime, _: &Request| Response::status(status, "nope");
            let mut router = Router::new("svc", &mut svc);
            let mut client = Client::plain(5, SimTime(0));
            let resp = client
                .call(&mut router, SimTime(0), &Request::new("svc"))
                .unwrap();
            assert_eq!(resp.status, status);
            assert_eq!(client.trace().total, 1, "no retries for {status}");
        }
    }

    #[test]
    fn full_drop_faults_exhaust_attempts() {
        let mut svc = ok_service();
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::new(
            ClientConfig::default(),
            FaultInjector::new(1.0, 0.0),
            Rng::new(6),
            SimTime(0),
        );
        let err = client
            .call(&mut router, SimTime(0), &Request::new("svc"))
            .unwrap_err();
        assert_eq!(err, TransportError::Dropped { attempts: 4 });
    }

    #[test]
    fn request_params_roundtrip() {
        let req = Request::new("x").with("a", "1").with("b", "2");
        assert_eq!(req.param("a"), Some("1"));
        assert_eq!(req.param("b"), Some("2"));
        assert_eq!(req.param("c"), None);
    }

    #[test]
    fn final_attempt_accrues_no_wait() {
        // A retryable status on the last allowed attempt must not charge a
        // wait that never precedes a retry: with RateLimited(1000) on all 4
        // attempts only 3 retry waits accrue (plus their jitter, capped by
        // the backoff ceilings 1 + 2 + 4).
        let mut svc = |_: SimTime, _: &Request| Response::status(Status::RateLimited(1000), "");
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::plain(8, SimTime(0));
        let err = client
            .call(&mut router, SimTime(0), &Request::new("svc"))
            .unwrap_err();
        assert!(matches!(err, TransportError::Failed { attempts: 4, .. }));
        assert!(
            client.waited >= SimDuration::secs(3_000),
            "{}",
            client.waited
        );
        assert!(
            client.waited <= SimDuration::secs(3_007),
            "waited {} charged a wait on the final attempt",
            client.waited
        );
    }

    /// One call at `at` that logs the breaker phases it moves through,
    /// polled with [`Client::breaker`] around the call. Between calls a
    /// breaker is only ever closed or open; a call that reaches the wire
    /// while it was open is the half-open probe.
    fn call_logging_phases(
        client: &mut Client,
        router: &mut Router<'_>,
        hits: &std::cell::Cell<u32>,
        phases: &mut Vec<&'static str>,
        at: u64,
    ) -> Result<Response, TransportError> {
        let phase = |b: Option<BreakerState>| match b {
            None | Some(BreakerState::Closed { .. }) => "closed",
            Some(BreakerState::Open { .. }) => "open",
            Some(BreakerState::HalfOpen) => "half-open",
        };
        let before = client.breaker("svc");
        let hits_before = hits.get();
        let result = client.call(router, SimTime(at), &Request::new("svc/op"));
        if phase(before) == "open" && hits.get() > hits_before {
            phases.push("half-open");
        }
        let after = phase(client.breaker("svc"));
        if phases.last() != Some(&after) {
            phases.push(after);
        }
        result
    }

    #[test]
    fn breaker_opens_fails_fast_and_recovers_via_probe() {
        use std::cell::Cell;
        let hits = Cell::new(0u32);
        let healthy = Cell::new(false);
        let mut svc = |_: SimTime, _: &Request| {
            hits.set(hits.get() + 1);
            if healthy.get() {
                Response::ok("fine")
            } else {
                Response::status(Status::ServerError, "down")
            }
        };
        let mut router = Router::new("svc", &mut svc);
        let config = ClientConfig {
            max_attempts: 2,
            breaker_threshold: 2,
            breaker_cooldown: SimDuration::secs(100),
            ..ClientConfig::default()
        };
        let mut client = Client::new(config, FaultInjector::none(), Rng::new(9), SimTime(0));
        let mut phases = vec!["closed"];
        let mut call = |client: &mut Client, at| {
            call_logging_phases(client, &mut router, &hits, &mut phases, at)
        };

        // Two exhausted calls open the breaker.
        for _ in 0..2 {
            let err = call(&mut client, 0).unwrap_err();
            assert!(matches!(err, TransportError::Failed { .. }));
        }
        assert!(matches!(
            client.breaker("svc"),
            Some(BreakerState::Open { .. })
        ));
        let wire_hits = hits.get();

        // While open, calls fail fast without touching the wire.
        let err = call(&mut client, 10).unwrap_err();
        assert_eq!(
            err,
            TransportError::BreakerOpen {
                until: SimTime(100)
            }
        );
        assert_eq!(hits.get(), wire_hits, "open breaker must not hit the wire");
        assert_eq!(client.trace().breaker_fast_fails, 1);

        // A failed half-open probe re-opens for another cooldown.
        let err = call(&mut client, 120).unwrap_err();
        assert!(matches!(err, TransportError::Failed { .. }));
        assert_eq!(
            client.breaker("svc"),
            Some(BreakerState::Open {
                until: SimTime(220)
            })
        );

        // After the service heals, the next probe re-closes the breaker and
        // traffic flows again: no stuck-open state.
        healthy.set(true);
        let resp = call(&mut client, 250).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            client.breaker("svc"),
            Some(BreakerState::Closed {
                consecutive_failures: 0
            })
        );
        assert_eq!(
            phases,
            ["closed", "open", "half-open", "open", "half-open", "closed"]
        );
        assert_eq!(client.trace().breaker_opened, 2);
    }

    #[test]
    fn ban_window_fails_fast_with_forbidden() {
        let mut svc = ok_service();
        let mut router = Router::new("svc", &mut svc);
        let mut plan = FaultSchedule::calm(FaultInjector::none());
        plan.outages.push(crate::fault::OutageWindow {
            from: SimTime(0),
            until: SimTime(100),
            mode: OutageMode::Ban,
        });
        let mut client =
            Client::with_schedule(ClientConfig::default(), plan, Rng::new(10), SimTime(0));
        let err = client
            .call(&mut router, SimTime(5), &Request::new("svc"))
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Failed {
                status: Status::Forbidden,
                attempts: 1
            }
        );
        assert_eq!(client.trace().total, 1, "a ban must not retry");
        // Outside the window the credential works again.
        let resp = client
            .call(&mut router, SimTime(100), &Request::new("svc"))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn blackout_window_drops_every_attempt() {
        let mut svc = ok_service();
        let mut router = Router::new("svc", &mut svc);
        let mut plan = FaultSchedule::calm(FaultInjector::none());
        plan.outages.push(crate::fault::OutageWindow {
            from: SimTime(0),
            until: SimTime(1_000),
            mode: OutageMode::Blackout,
        });
        let cfg = ClientConfig::default();
        let mut client = Client::with_schedule(cfg.clone(), plan, Rng::new(11), SimTime(0));
        let err = client
            .call(&mut router, SimTime(0), &Request::new("svc"))
            .unwrap_err();
        assert_eq!(err, TransportError::Dropped { attempts: 4 });
        // A blackout draws nothing but backoff delays: one before each of
        // the three retries, none after the final dropped attempt.
        let mut backoff = Backoff::new(cfg.backoff_base, 2.0, cfg.backoff_max);
        let mut replay = Rng::new(11);
        let expected = (1..4).fold(SimDuration::ZERO, |sum, _| {
            sum + backoff.next_delay(&mut replay)
        });
        assert_eq!(client.waited, expected);
        let resp = client
            .call(&mut router, SimTime(2_000), &Request::new("svc"))
            .unwrap();
        assert_eq!(resp.status, Status::Ok, "service reachable after outage");
    }

    #[test]
    fn deadline_budget_stops_retrying_early() {
        let mut svc = |_: SimTime, _: &Request| Response::status(Status::RateLimited(100), "");
        let mut router = Router::new("svc", &mut svc);
        let config = ClientConfig {
            deadline: SimDuration::secs(5),
            ..ClientConfig::default()
        };
        let mut client = Client::new(config, FaultInjector::none(), Rng::new(12), SimTime(0));
        let err = client
            .call(&mut router, SimTime(0), &Request::new("svc"))
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Failed {
                status: Status::RateLimited(100),
                attempts: 1
            }
        );
        assert_eq!(
            client.waited,
            SimDuration::ZERO,
            "a wait the caller never serves must not be charged"
        );
    }

    #[test]
    fn calm_schedule_is_bit_identical_to_plain_injector() {
        let faults = FaultInjector::new(0.2, 0.1);
        let mut a = Client::new(ClientConfig::default(), faults, Rng::new(13), SimTime(0));
        let mut b = Client::with_schedule(
            ClientConfig::default(),
            FaultSchedule::calm(faults),
            Rng::new(13),
            SimTime(0),
        );
        for (i, client) in [&mut a, &mut b].into_iter().enumerate() {
            let mut svc = ok_service();
            let mut router = Router::new("svc", &mut svc);
            for k in 0..30u64 {
                let _ok = client.call(&mut router, SimTime(k * 60), &Request::new("svc/x"));
            }
            assert!(client.trace().total >= 30, "client {i}");
        }
        assert_eq!(a.state(), b.state(), "calm schedule must not perturb");
    }

    #[test]
    fn inactive_corruption_is_bit_identical_to_none_at_all() {
        use crate::fault::CorruptionSchedule;
        let mut a = Client::plain(20, SimTime(0));
        let mut b = Client::plain(20, SimTime(0)).with_corruption(CorruptionSchedule::none());
        for client in [&mut a, &mut b] {
            let mut svc = ok_service();
            let mut router = Router::new("svc", &mut svc);
            for k in 0..20u64 {
                let _ = client.call(&mut router, SimTime(k * 60), &Request::new("svc/x"));
            }
        }
        assert_eq!(a.state(), b.state(), "inactive corruption must not perturb");
        assert_eq!(a.corrupted(), 0);
    }

    #[test]
    fn corruption_mangles_only_ok_bodies_deterministically() {
        use crate::fault::CorruptionSchedule;
        let run = || {
            let mut gone_next = false;
            let mut svc = move |_: SimTime, _: &Request| {
                gone_next = !gone_next;
                if gone_next {
                    Response::ok("doc\nn: 2\nsize: 10\ntitle: hello")
                } else {
                    Response::status(Status::Gone, "revoked\nn: 0")
                }
            };
            let mut router = Router::new("svc", &mut svc);
            let mut client =
                Client::plain(21, SimTime(0)).with_corruption(CorruptionSchedule::new(1.0));
            let mut bodies = Vec::new();
            for k in 0..10u64 {
                let resp = client
                    .call(&mut router, SimTime(k * 60), &Request::new("svc/x"))
                    .unwrap();
                bodies.push((resp.status, resp.body));
            }
            (bodies, client.corrupted(), client.state())
        };
        let (bodies, corrupted, state) = run();
        for (status, body) in &bodies {
            match status {
                Status::Ok => assert_ne!(
                    body, "doc\nn: 2\nsize: 10\ntitle: hello",
                    "rate-1.0 corruption must mangle every Ok body"
                ),
                _ => assert_eq!(body, "revoked\nn: 0", "non-Ok bodies are never touched"),
            }
        }
        assert_eq!(corrupted, 5, "five Ok responses, all corrupted");
        let (bodies2, corrupted2, state2) = run();
        assert_eq!(bodies, bodies2, "corruption must be deterministic");
        assert_eq!(corrupted, corrupted2);
        assert_eq!(state, state2);
    }

    #[test]
    fn moderate_faults_eventually_succeed() {
        // With 30% drop and 4 attempts, most calls succeed; verify at least
        // some do and the trace captures the drops.
        let mut svc = ok_service();
        let mut router = Router::new("svc", &mut svc);
        let mut client = Client::new(
            ClientConfig::default(),
            FaultInjector::new(0.3, 0.0),
            Rng::new(7),
            SimTime(0),
        );
        let mut ok = 0;
        for _ in 0..100 {
            if client
                .call(&mut router, SimTime(0), &Request::new("svc"))
                .is_ok()
            {
                ok += 1;
            }
        }
        assert!(ok > 90, "only {ok}/100 succeeded under 30% drop");
    }
}
