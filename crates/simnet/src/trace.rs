//! Exact transport counters — what each client counts about its traffic.
//!
//! Every client attempt bumps the total, its status (or the in-transit
//! drop count) and its endpoint; circuit-breaker openings and calls
//! rejected by an open breaker are counted too. The counters are exact
//! over a whole campaign, however long, and a checkpoint persists them as
//! they are, so a resumed run keeps counting where it stopped.

use crate::transport::Status;
use std::collections::BTreeMap;

/// Exact per-client transport counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Attempts made, dropped ones included.
    pub total: u64,
    /// Attempts dropped in transit (no response observed).
    pub dropped_attempts: u64,
    /// Answered attempts per status, keyed by the status's `Display`
    /// string.
    pub by_status: BTreeMap<String, u64>,
    /// Attempts per endpoint.
    pub by_endpoint: BTreeMap<String, u64>,
    /// Times a circuit breaker opened: after too many failed calls, or
    /// again after a half-open probe that did not succeed.
    pub breaker_opened: u64,
    /// Calls rejected without an attempt because a breaker was open.
    pub breaker_fast_fails: u64,
}

impl TraceCounters {
    /// Count one attempt at `endpoint`; `status: None` is a drop in
    /// transit. Steady-state this allocates nothing: only the first
    /// occurrence of a key (and any 429, whose label embeds its
    /// retry-after) builds an owned string.
    pub(crate) fn record(&mut self, endpoint: &str, status: Option<Status>) {
        self.total += 1;
        match status {
            // Static labels, kept textually identical to the `Display`
            // impl (asserted by a test below) so the persisted keys never
            // drift.
            Some(Status::Ok) => bump(&mut self.by_status, "200 OK"),
            Some(Status::NotFound) => bump(&mut self.by_status, "404 Not Found"),
            Some(Status::Gone) => bump(&mut self.by_status, "410 Gone"),
            Some(Status::Forbidden) => bump(&mut self.by_status, "403 Forbidden"),
            Some(Status::ServerError) => bump(&mut self.by_status, "500 Server Error"),
            Some(s @ Status::RateLimited(_)) => bump(&mut self.by_status, &s.to_string()),
            None => self.dropped_attempts += 1,
        }
        bump(&mut self.by_endpoint, endpoint);
    }
}

/// Add one to `key`'s count, inserting an owned key only the first time.
fn bump(counts: &mut BTreeMap<String, u64>, key: &str) {
    match counts.get_mut(key) {
        Some(n) => *n += 1,
        None => {
            counts.insert(key.to_string(), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_status_labels_match_display() {
        // `record` bumps `by_status` through static labels; if they ever
        // drift from the `Display` impl, persisted checkpoint keys would
        // change meaning.
        for s in [
            Status::Ok,
            Status::NotFound,
            Status::Gone,
            Status::Forbidden,
            Status::ServerError,
            Status::RateLimited(30),
        ] {
            let mut t = TraceCounters::default();
            t.record("x", Some(s));
            assert_eq!(t.by_status.get(&s.to_string()), Some(&1), "{s}");
        }
    }

    #[test]
    fn counts_stay_exact_over_any_number_of_attempts() {
        // A mixed status/endpoint stream: at every step
        //   sum(by_status) + dropped == total == sum(by_endpoint).
        let mut t = TraceCounters::default();
        let statuses = [
            Some(Status::Ok),
            None,
            Some(Status::Gone),
            Some(Status::RateLimited(5)),
            Some(Status::ServerError),
        ];
        let endpoints = ["a", "b", "c"];
        for i in 0..10_000usize {
            t.record(endpoints[i % 3], statuses[i % 5]);
            let by_status_sum: u64 = t.by_status.values().sum();
            let by_endpoint_sum: u64 = t.by_endpoint.values().sum();
            assert_eq!(by_status_sum + t.dropped_attempts, t.total, "at step {i}");
            assert_eq!(by_endpoint_sum, t.total, "at step {i}");
        }
        assert_eq!(t.total, 10_000);
        assert_eq!(t.dropped_attempts, 2_000);
        assert_eq!(t.by_status.get("200 OK"), Some(&2_000));
        assert_eq!(t.by_endpoint.get("a"), Some(&3_334));
    }
}
