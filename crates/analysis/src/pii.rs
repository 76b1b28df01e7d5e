//! PII exposure: Table 4 (per-platform exposure) and Table 5 (Discord
//! connected accounts).

use chatlens_checkpoint::{CheckpointError, Persist, Reader, Writer};
use chatlens_core::pii::PiiStore;
use chatlens_core::{Dataset, DayFold, DaySlice};
use chatlens_platforms::id::PlatformKind;
use chatlens_simnet::par::Pool;
use std::fmt::Write as _;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureRow {
    /// Platform.
    pub platform: PlatformKind,
    /// Users whose information the collector observed.
    pub users_observed: u64,
    /// Distinct phone numbers (hashes) exposed, if the platform exposes
    /// any.
    pub phones: Option<u64>,
    /// Phones as a share of observed users.
    pub phone_rate: Option<f64>,
    /// Users with at least one linked social account (Discord only).
    pub linked_users: Option<u64>,
    /// Linked users as a share of observed users.
    pub link_rate: Option<f64>,
}

/// One row of Table 4 from the PII store.
fn exposure_from(pii: &PiiStore, kind: PlatformKind) -> ExposureRow {
    match kind {
        // WhatsApp: every member of joined groups plus every creator of an
        // accessible group exposes a phone number (100% by construction of
        // the platform — the paper's headline).
        PlatformKind::WhatsApp => {
            let wa_members: u64 = pii.wa_member_hashes.len() as u64;
            let wa_creators: u64 = pii.wa_creator_hashes.len() as u64;
            ExposureRow {
                platform: PlatformKind::WhatsApp,
                users_observed: wa_members + wa_creators,
                phones: Some(pii.wa_total_phones() as u64),
                phone_rate: Some(1.0),
                linked_users: None,
                link_rate: None,
            }
        }
        PlatformKind::Telegram => ExposureRow {
            platform: PlatformKind::Telegram,
            users_observed: pii.tg_users_observed.len() as u64,
            phones: Some(pii.tg_phone_hashes.len() as u64),
            phone_rate: Some(pii.tg_phone_rate()),
            linked_users: None,
            link_rate: None,
        },
        PlatformKind::Discord => ExposureRow {
            platform: PlatformKind::Discord,
            users_observed: pii.dc_users_observed.len() as u64,
            phones: None,
            phone_rate: None,
            linked_users: Some(pii.dc_users_with_link.len() as u64),
            link_rate: Some(pii.dc_link_rate()),
        },
    }
}

/// Table 5: Discord users per linked platform, descending, with shares of
/// observed users.
fn linked_from(pii: &PiiStore) -> Vec<(String, u64, f64)> {
    let observed = pii.dc_users_observed.len().max(1) as f64;
    let mut rows: Vec<(String, u64, f64)> = pii
        .dc_linked_counts
        .iter()
        .map(|(label, &n)| (label.clone(), n, n as f64 / observed))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

fn render(out: &mut String, rows: &[ExposureRow; 3], linked: &[(String, u64, f64)]) {
    for row in rows {
        writeln!(
            out,
            "{}: users={} phones={:?} phone_rate={:?} linked_users={:?} link_rate={:?}",
            row.platform.name(),
            row.users_observed,
            row.phones,
            row.phone_rate,
            row.linked_users,
            row.link_rate
        )
        .unwrap();
    }
    writeln!(out, "linked_accounts: {linked:?}").unwrap();
}

/// Everything the PII fold yields: Tables 4 and 5.
#[derive(Debug, Clone, PartialEq)]
pub struct PiiOutput {
    /// Table 4, one row per platform in [`PlatformKind::ALL`] order.
    pub exposure: [ExposureRow; 3],
    /// Table 5: Discord users per linked platform, descending, with
    /// shares of observed users.
    pub linked_accounts: Vec<(String, u64, f64)>,
}

/// The PII fragment of an assembled dataset (see
/// [`fold_dataset`](crate::pipeline::fold_dataset)).
pub fn fragment(ds: &Dataset, pool: &Pool) -> String {
    crate::pipeline::fold_dataset(ds, PiiFold::new()).finish(pool)
}

/// Tables 4 and 5.
///
/// The PII store only grows (hash sets and tallies), so the compact
/// Table 4/5 summaries are captured once, on the final day, after the
/// collection event has filed the last joined group's member list. The
/// captured output is the whole state.
#[derive(Debug, Clone, PartialEq)]
pub struct PiiFold {
    output: PiiOutput,
}

impl PiiFold {
    /// An empty fold.
    pub fn new() -> PiiFold {
        let empty = |platform| ExposureRow {
            platform,
            users_observed: 0,
            phones: None,
            phone_rate: None,
            linked_users: None,
            link_rate: None,
        };
        PiiFold {
            output: PiiOutput {
                exposure: PlatformKind::ALL.map(empty),
                linked_accounts: Vec::new(),
            },
        }
    }

    /// The folded Tables 4 and 5.
    pub fn output(&self) -> PiiOutput {
        self.output.clone()
    }
}

impl Default for PiiFold {
    fn default() -> PiiFold {
        PiiFold::new()
    }
}

impl DayFold for PiiFold {
    fn name(&self) -> &'static str {
        "pii"
    }

    fn fold_day(&mut self, slice: &DaySlice<'_>) {
        if slice.is_final() {
            self.output = PiiOutput {
                exposure: PlatformKind::ALL.map(|kind| exposure_from(slice.pii, kind)),
                linked_accounts: linked_from(slice.pii),
            };
        }
    }

    fn finish(&self, _pool: &Pool) -> String {
        let mut out = String::from("pii v1\n");
        render(
            &mut out,
            &self.output.exposure,
            &self.output.linked_accounts,
        );
        out
    }

    // A row's platform is its position, so it is not encoded.
    fn save_state(&self, w: &mut Writer) {
        for row in &self.output.exposure {
            row.users_observed.save(w);
            row.phones.save(w);
            row.phone_rate.save(w);
            row.linked_users.save(w);
            row.link_rate.save(w);
        }
        self.output.linked_accounts.save(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        for row in &mut self.output.exposure {
            row.users_observed = Persist::load(r)?;
            row.phones = Persist::load(r)?;
            row.phone_rate = Persist::load(r)?;
            row.linked_users = Persist::load(r)?;
            row.link_rate = Persist::load(r)?;
        }
        self.output.linked_accounts = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{dataset, folded};

    fn output() -> PiiOutput {
        folded().pii.output()
    }

    #[test]
    fn table4_whatsapp_exposes_everyone() {
        let [wa, _, _] = output().exposure;
        assert!(wa.users_observed > 0);
        assert_eq!(wa.phone_rate, Some(1.0));
        assert!(wa.phones.unwrap() > 0);
        // Creators alone (no joining needed) are already a large share.
        assert!(dataset().pii.wa_creator_hashes.len() > 100);
    }

    #[test]
    fn table4_telegram_phone_rate_tiny() {
        let [_, tg, _] = output().exposure;
        assert!(tg.users_observed > 0);
        let rate = tg.phone_rate.unwrap();
        assert!(rate < 0.05, "TG phone rate {rate} (paper: 0.68%)");
    }

    #[test]
    fn table4_discord_no_phones_but_links() {
        let [_, _, dc] = output().exposure;
        assert_eq!(dc.phones, None, "Discord has no phone numbers");
        assert!(dc.users_observed > 0);
        let rate = dc.link_rate.unwrap();
        assert!((rate - 0.30).abs() < 0.12, "DC link rate {rate}");
    }

    #[test]
    fn table5_twitch_leads() {
        let rows = output().linked_accounts;
        assert!(!rows.is_empty());
        assert_eq!(rows[0].0, "Twitch", "rows: {rows:?}");
        // Shares are monotone by construction of the sort.
        for w in rows.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Facebook/Skype are near the bottom when present.
        if let Some(fb) = rows.iter().find(|r| r.0 == "Facebook") {
            assert!(fb.2 < 0.05, "Facebook share {}", fb.2);
        }
    }

    #[test]
    fn hashes_not_numbers_in_store() {
        let ds = dataset();
        for h in ds.pii.wa_creator_hashes.iter().take(50) {
            assert_eq!(h.len(), 64);
            assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(!h.starts_with('+'));
        }
    }
}
