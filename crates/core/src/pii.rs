//! PII exposure accounting (§6, Tables 4 and 5).
//!
//! The ethics protocol of §3.4 is enforced structurally: phone numbers are
//! hashed (SHA-256) the moment they come off the wire and only the hashes
//! and country codes are retained; nothing in the store can reproduce a
//! number.

use chatlens_platforms::phone::parse_e164;
use chatlens_simnet::hash::sha256_hex;
use std::collections::{BTreeMap, HashSet};

/// Hash a phone number in E.164 form. The raw string dies here.
pub fn hash_phone(e164: &str) -> String {
    sha256_hex(e164.as_bytes())
}

/// Accumulated PII observations.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PiiStore {
    /// WhatsApp group-creator phone hashes, harvested from landing pages
    /// *without joining* — §6's headline finding.
    pub wa_creator_hashes: HashSet<String>,
    /// Country-code counts of WhatsApp creators (Group Countries, §5).
    pub wa_creator_countries: BTreeMap<String, u64>,
    /// WhatsApp member phone hashes (visible after joining).
    pub wa_member_hashes: HashSet<String>,
    /// Telegram users whose profiles the collector fetched.
    pub tg_users_observed: HashSet<u32>,
    /// Telegram phone hashes (only opt-in users expose one).
    pub tg_phone_hashes: HashSet<String>,
    /// Discord users whose profiles the collector fetched.
    pub dc_users_observed: HashSet<u32>,
    /// Discord users with at least one connected account.
    pub dc_users_with_link: HashSet<u32>,
    /// Connected-account counts per external platform (Table 5).
    pub dc_linked_counts: BTreeMap<String, u64>,
}

impl PiiStore {
    /// A fresh store.
    pub fn new() -> PiiStore {
        PiiStore::default()
    }

    /// Record a WhatsApp creator's phone (hashing it) and country code.
    pub fn record_wa_creator(&mut self, e164: &str, country_code: &str) {
        if self.wa_creator_hashes.insert(hash_phone(e164)) {
            *self
                .wa_creator_countries
                .entry(country_code.to_string())
                .or_insert(0) += 1;
        }
    }

    /// Record a WhatsApp member by the [`hash_phone`] of their number
    /// (the collector hashes once and keeps the hash for its own member
    /// record too).
    pub fn record_wa_member(&mut self, phone_hash: &str) {
        insert_hash(&mut self.wa_member_hashes, phone_hash);
    }

    /// Record a Telegram profile observation; `phone_hash` is the
    /// [`hash_phone`] of the number if the user opted in to showing it.
    pub fn record_tg_user(&mut self, user_id: u32, phone_hash: Option<&str>) {
        self.tg_users_observed.insert(user_id);
        if let Some(h) = phone_hash {
            insert_hash(&mut self.tg_phone_hashes, h);
        }
    }

    /// Record a Discord profile observation with its connected accounts.
    pub fn record_dc_user(&mut self, user_id: u32, linked: &[String]) {
        if !self.dc_users_observed.insert(user_id) {
            return; // already counted; avoid double-counting links
        }
        if !linked.is_empty() {
            self.dc_users_with_link.insert(user_id);
        }
        for l in linked {
            *self.dc_linked_counts.entry(l.clone()).or_insert(0) += 1;
        }
    }

    /// All distinct WhatsApp phone hashes (creators ∪ members) — the
    /// paper's "phone numbers of over 54K WhatsApp users".
    pub fn wa_total_phones(&self) -> usize {
        self.wa_creator_hashes.union(&self.wa_member_hashes).count()
    }

    /// Share of observed Telegram users exposing a phone number.
    pub fn tg_phone_rate(&self) -> f64 {
        if self.tg_users_observed.is_empty() {
            0.0
        } else {
            self.tg_phone_hashes.len() as f64 / self.tg_users_observed.len() as f64
        }
    }

    /// Share of observed Discord users with >= 1 connected account.
    pub fn dc_link_rate(&self) -> f64 {
        if self.dc_users_observed.is_empty() {
            0.0
        } else {
            self.dc_users_with_link.len() as f64 / self.dc_users_observed.len() as f64
        }
    }
}

/// Insert a phone hash, copying it only when it is new (members recur
/// across groups).
fn insert_hash(set: &mut HashSet<String>, hash: &str) {
    if !set.contains(hash) {
        set.insert(hash.to_string());
    }
}

/// Country code of an E.164 number (helper for callers that only hold the
/// wire string).
pub fn country_of(e164: &str) -> Option<&'static str> {
    parse_e164(e164).map(|p| p.iso())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_oneway_and_stable() {
        let h = hash_phone("+5511987654321");
        assert_eq!(h.len(), 64);
        assert_eq!(h, hash_phone("+5511987654321"));
        assert_ne!(h, hash_phone("+5511987654322"));
        assert!(!h.contains("5511"), "no digits leak into the hash");
    }

    #[test]
    fn creator_dedup_and_countries() {
        let mut s = PiiStore::new();
        s.record_wa_creator("+5511987654321", "BR");
        s.record_wa_creator("+5511987654321", "BR"); // duplicate
        s.record_wa_creator("+2348012345678", "NG");
        assert_eq!(s.wa_creator_hashes.len(), 2);
        assert_eq!(s.wa_creator_countries["BR"], 1);
        assert_eq!(s.wa_creator_countries["NG"], 1);
    }

    #[test]
    fn wa_total_unions_creators_and_members() {
        let mut s = PiiStore::new();
        s.record_wa_creator("+5511987654321", "BR");
        s.record_wa_member(&hash_phone("+5511987654321")); // same person
        s.record_wa_member(&hash_phone("+2348012345678"));
        s.record_wa_member(&hash_phone("+2348012345678")); // seen twice
        assert_eq!(s.wa_total_phones(), 2);
    }

    #[test]
    fn tg_rates() {
        let mut s = PiiStore::new();
        for i in 0..100 {
            let phone_hash = (i == 0).then(|| hash_phone("+5511987654321"));
            s.record_tg_user(i, phone_hash.as_deref());
        }
        assert_eq!(s.tg_users_observed.len(), 100);
        assert_eq!(s.tg_phone_hashes.len(), 1);
        assert!((s.tg_phone_rate() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn dc_links_no_double_count() {
        let mut s = PiiStore::new();
        s.record_dc_user(1, &["Twitch".into(), "Steam".into()]);
        s.record_dc_user(1, &["Twitch".into()]); // repeat observation
        s.record_dc_user(2, &[]);
        assert_eq!(s.dc_users_observed.len(), 2);
        assert_eq!(s.dc_users_with_link.len(), 1);
        assert_eq!(s.dc_linked_counts["Twitch"], 1);
        assert_eq!(s.dc_linked_counts["Steam"], 1);
        assert!((s.dc_link_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = PiiStore::new();
        assert_eq!(s.tg_phone_rate(), 0.0);
        assert_eq!(s.dc_link_rate(), 0.0);
        assert_eq!(s.wa_total_phones(), 0);
    }

    #[test]
    fn country_helper() {
        assert_eq!(country_of("+5511987654321"), Some("BR"));
        assert_eq!(country_of("garbage"), None);
    }
}
