//! The collector's network stack: one [`Client`] per credential, with a
//! helper that mounts the right simulated service per call.
//!
//! The paper's tooling held one credential per platform (§3.3); here each
//! gets its own transport client with its own rate budget, fault stream
//! and traffic counters. Client rates are set to what a small scraper
//! fleet sustains (the paper scraped hundreds of thousands of landing
//! pages per day).

use crate::error::CoreError;
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::fault::{CorruptionSchedule, FaultInjector, FaultSchedule};
use chatlens_simnet::rng::{Rng, Stream};
use chatlens_simnet::time::{SimDuration, SimTime};
use chatlens_simnet::transport::{Client, ClientConfig, ClientState, Request, Response, Router};
use chatlens_workload::Ecosystem;

/// The four clients of the campaign.
pub struct Net {
    twitter: Client,
    platforms: [Client; 3],
}

/// Index of each service in a `[T; 4]` schedule/state array: Twitter,
/// WhatsApp, Telegram, Discord. The platform entries line up with
/// [`PlatformKind::index`] shifted by one.
pub const SERVICE_NAMES: [&str; 4] = ["twitter", "whatsapp", "telegram", "discord"];

impl Net {
    /// Build the client set. `faults` applies to every client (the same
    /// backbone); `seed` decorrelates their latency/backoff streams.
    pub fn new(seed: u64, start: SimTime, faults: FaultInjector) -> Net {
        let calm = FaultSchedule::calm(faults);
        Net::with_schedules(
            seed,
            start,
            [calm.clone(), calm.clone(), calm.clone(), calm],
        )
    }

    /// Build the client set with one full [`FaultSchedule`] per service, in
    /// [`SERVICE_NAMES`] order. This is how a campaign expresses correlated
    /// failures: bursts and outages are per-credential, so a WhatsApp
    /// blackout cannot perturb the Telegram client's streams.
    pub fn with_schedules(seed: u64, start: SimTime, schedules: [FaultSchedule; 4]) -> Net {
        Net::with_corruption(seed, start, schedules, CorruptionSchedule::none())
    }

    /// Build the client set with per-service fault schedules *and* a
    /// payload-corruption schedule applied to every client. The corruption
    /// stream is per-client (forked from each client's own RNG), so the
    /// same bodies are mangled regardless of thread count or the other
    /// services' traffic. A [`CorruptionSchedule::none`] is a strict
    /// no-op, keeping calm campaigns bit-identical to older builds.
    pub fn with_corruption(
        seed: u64,
        start: SimTime,
        schedules: [FaultSchedule; 4],
        corruption: CorruptionSchedule,
    ) -> Net {
        let mut rng = Rng::new(seed);
        let scraper = ClientConfig {
            max_attempts: 4,
            rate_per_sec: 400.0,
            burst: 2_000.0,
            breaker_threshold: 5,
            breaker_cooldown: SimDuration::secs(1_800),
            ..ClientConfig::default()
        };
        let api = ClientConfig {
            max_attempts: 6, // rate-limit retries need headroom
            rate_per_sec: 50.0,
            burst: 200.0,
            breaker_threshold: 5,
            breaker_cooldown: SimDuration::secs(1_800),
            ..ClientConfig::default()
        };
        let [tw, wa, tg, dc] = schedules;
        Net {
            twitter: Client::with_schedule(api.clone(), tw, rng.fork(Stream::Twitter), start)
                .with_corruption(corruption),
            platforms: [
                Client::with_schedule(scraper.clone(), wa, rng.fork(Stream::WhatsApp), start)
                    .with_corruption(corruption),
                Client::with_schedule(api, tg, rng.fork(Stream::Telegram), start)
                    .with_corruption(corruption),
                Client::with_schedule(scraper, dc, rng.fork(Stream::Discord), start)
                    .with_corruption(corruption),
            ],
        }
    }

    /// A fault-free client set (tests, calibration runs).
    pub fn reliable(seed: u64, start: SimTime) -> Net {
        Net::new(seed, start, FaultInjector::none())
    }

    /// Issue a request to the Twitter APIs.
    pub fn twitter(
        &mut self,
        eco: &mut Ecosystem,
        now: SimTime,
        req: &Request,
    ) -> Result<Response, CoreError> {
        let mut router = Router::new("twitter", &mut eco.twitter);
        Ok(self.twitter.call(&mut router, now, req)?)
    }

    /// Issue a request to one messaging platform's frontend/API.
    pub fn platform(
        &mut self,
        eco: &mut Ecosystem,
        kind: PlatformKind,
        now: SimTime,
        req: &Request,
    ) -> Result<Response, CoreError> {
        let i = kind.index();
        let mount = match kind {
            PlatformKind::WhatsApp => "whatsapp",
            PlatformKind::Telegram => "telegram",
            PlatformKind::Discord => "discord",
        };
        let mut router = Router::new(mount, &mut eco.platforms[i]);
        Ok(self.platforms[i].call(&mut router, now, req)?)
    }

    /// Export all four clients' mutable state for a checkpoint, in the
    /// fixed order Twitter, WhatsApp, Telegram, Discord.
    pub fn export_state(&self) -> [ClientState; 4] {
        [
            self.twitter.state(),
            self.platforms[0].state(),
            self.platforms[1].state(),
            self.platforms[2].state(),
        ]
    }

    /// Restore all four clients from a checkpoint export. The `Net` must
    /// have been rebuilt with [`Net::new`] under the same seed and fault
    /// model so each client's configuration matches its saved state.
    pub fn restore_state(&mut self, states: [ClientState; 4]) {
        let [tw, wa, tg, dc] = states;
        self.twitter.restore_state(tw);
        self.platforms[0].restore_state(wa);
        self.platforms[1].restore_state(tg);
        self.platforms[2].restore_state(dc);
    }

    /// Total successful responses whose body was corrupted in flight,
    /// across all clients (campaign health; compare against the
    /// quarantine ledger sizes).
    pub fn corrupted_total(&self) -> u64 {
        self.twitter.corrupted() + self.platforms.iter().map(|c| c.corrupted()).sum::<u64>()
    }

    /// Total transport attempts across all clients (campaign health).
    pub fn total_attempts(&self) -> u64 {
        self.twitter.trace().total + self.platforms.iter().map(|c| c.trace().total).sum::<u64>()
    }

    /// Total circuit-breaker openings and fast-failed calls across all
    /// clients, for the campaign metrics.
    pub fn breaker_totals(&self) -> (u64, u64) {
        let mut opened = self.twitter.trace().breaker_opened;
        let mut fast = self.twitter.trace().breaker_fast_fails;
        for c in &self.platforms {
            opened += c.trace().breaker_opened;
            fast += c.trace().breaker_fast_fails;
        }
        (opened, fast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatlens_simnet::transport::Status;
    use chatlens_workload::ScenarioConfig;

    #[test]
    fn clients_reach_all_services() {
        let mut eco = Ecosystem::build(ScenarioConfig::tiny());
        let start = eco.window.start_time();
        let mut net = Net::reliable(1, start);
        // Twitter search works.
        let resp = net
            .twitter(&mut eco, start, &Request::new("twitter/search"))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        // Each platform's public metadata endpoint answers (with 404 for a
        // bogus code, which is a *successful* transport outcome).
        for (kind, ep) in [
            (PlatformKind::WhatsApp, "whatsapp/landing"),
            (PlatformKind::Telegram, "telegram/web"),
            (PlatformKind::Discord, "discord/api/invite"),
        ] {
            let resp = net
                .platform(&mut eco, kind, start, &Request::new(ep).with("code", "zzz"))
                .unwrap();
            assert_eq!(resp.status, Status::NotFound, "{kind}");
        }
        assert_eq!(net.total_attempts(), 4);
    }

    #[test]
    fn platform_counters_are_separate() {
        let mut eco = Ecosystem::build(ScenarioConfig::tiny());
        let start = eco.window.start_time();
        let mut net = Net::reliable(2, start);
        net.platform(
            &mut eco,
            PlatformKind::WhatsApp,
            start,
            &Request::new("whatsapp/landing").with("code", "x"),
        )
        .unwrap();
        let [_, wa, tg, _] = net.export_state();
        assert_eq!(wa.trace.total, 1);
        assert_eq!(tg.trace.total, 0);
    }
}
