//! Population models: group creators, phone-number countries, Discord
//! connected accounts, and tweet-author pools.

use crate::config::PlatformParams;
use chatlens_platforms::id::PlatformKind;
use chatlens_platforms::phone::{country_by_iso, CountryCode, PhoneNumber, COUNTRIES};
use chatlens_platforms::user::{LinkedPlatform, User};
use chatlens_simnet::dist::Categorical;
use chatlens_simnet::rng::Rng;

/// WhatsApp group-creator country weights (§5, "Group Countries"): Brazil
/// 7,718 groups, Nigeria 4,719, Indonesia 3,430, India 2,731, Saudi Arabia
/// 2,574, Mexico 2,081, Argentina 1,366, remainder spread across the rest
/// of the table.
pub fn whatsapp_creator_countries() -> (Vec<CountryCode>, Categorical) {
    let named: [(&str, f64); 7] = [
        ("BR", 7_718.0),
        ("NG", 4_719.0),
        ("ID", 3_430.0),
        ("IN", 2_731.0),
        ("SA", 2_574.0),
        ("MX", 2_081.0),
        ("AR", 1_366.0),
    ];
    let named_total: f64 = named.iter().map(|(_, w)| w).sum();
    // 34,078 creators total; the rest spread over the remaining countries.
    let remainder = 34_078.0 - named_total;
    let mut countries = Vec::new();
    let mut weights = Vec::new();
    for (iso, w) in named {
        countries.push(country_by_iso(iso).expect("country in table"));
        weights.push(w);
    }
    let others: Vec<CountryCode> = COUNTRIES
        .iter()
        .copied()
        .filter(|c| !named.iter().any(|(iso, _)| *iso == c.iso))
        .collect();
    let per_other = remainder / others.len() as f64;
    for c in others {
        countries.push(c);
        weights.push(per_other);
    }
    (countries, Categorical::new(&weights))
}

/// A generic member-country sampler (uniform-ish with a mild tilt toward
/// the big WhatsApp markets) for platforms where the paper reports no
/// country distribution.
pub fn generic_countries() -> (Vec<CountryCode>, Categorical) {
    let countries: Vec<CountryCode> = COUNTRIES.to_vec();
    let weights: Vec<f64> = countries
        .iter()
        .map(|c| match c.iso {
            "BR" | "IN" | "ID" | "US" => 2.0,
            _ => 1.0,
        })
        .collect();
    (countries, Categorical::new(&weights))
}

/// How many groups each creator creates (§5, "Group Creators"): the vast
/// majority create one (92.7% on WhatsApp, 95.9% on Discord), a few create
/// two to four, and a thin tail creates dozens (61 was the Discord max).
///
/// `p_single` and `p_few` are tuned per platform so that
/// `groups / distinct creators` lands near the paper's ratio.
#[derive(Debug, Clone, Copy)]
pub struct CreatorModel {
    /// Fraction of creators with exactly one group.
    pub p_single: f64,
    /// Fraction with 2–4 groups (uniform).
    pub p_few: f64,
    /// The rest create 5–`max_groups` (log-spaced heavy tail).
    pub max_groups: u32,
}

impl CreatorModel {
    /// WhatsApp's creator model (92.7% single; ratio 45,718/34,078 ≈ 1.34).
    pub fn whatsapp() -> CreatorModel {
        CreatorModel {
            p_single: 0.927,
            p_few: 0.053,
            max_groups: 28,
        }
    }

    /// Discord's creator model (95.9% single, but a heavier far tail —
    /// one user created 61 groups).
    pub fn discord() -> CreatorModel {
        CreatorModel {
            p_single: 0.927,
            p_few: 0.045,
            max_groups: 61,
        }
    }

    /// Telegram: creator info is only known for joined groups, each of
    /// which had a distinct creator (§5).
    pub fn telegram() -> CreatorModel {
        CreatorModel {
            p_single: 1.0,
            p_few: 0.0,
            max_groups: 1,
        }
    }

    /// Sample one creator's group count.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let roll = rng.f64();
        if roll < self.p_single {
            1
        } else if roll < self.p_single + self.p_few {
            rng.range(2, 4) as u32
        } else {
            // Log-uniform between 5 and max: dense near 5, thin near max.
            let lo = 5.0f64.ln();
            let hi = f64::from(self.max_groups.max(5)).ln();
            (lo + rng.f64() * (hi - lo)).exp().round() as u32
        }
    }

    /// Produce per-creator group counts covering exactly `n_groups`
    /// groups; the final creator's count is truncated to fit.
    pub fn assign(&self, n_groups: usize, rng: &mut Rng) -> Vec<u32> {
        let mut counts = Vec::new();
        let mut covered = 0usize;
        while covered < n_groups {
            let k = self.sample(rng).min((n_groups - covered) as u32);
            counts.push(k);
            covered += k as usize;
        }
        counts
    }
}

/// Conditional per-platform link rates for Discord users who have at least
/// one connected account, derived from Table 5 (each rate divided by the
/// 30% any-link rate), in [`LinkedPlatform::ALL`] order.
pub const LINK_RATES_GIVEN_ANY: [f64; 11] = [
    0.204 / 0.30, // Twitch
    0.122 / 0.30, // Steam
    0.089 / 0.30, // Twitter
    0.080 / 0.30, // Spotify
    0.066 / 0.30, // YouTube
    0.052 / 0.30, // Battlenet
    0.037 / 0.30, // Xbox
    0.030 / 0.30, // Reddit
    0.024 / 0.30, // League of Legends
    0.006 / 0.30, // Skype
    0.005 / 0.30, // Facebook
];

/// Sample a Discord user's connected accounts: with probability `p_any`
/// the user has >= 1 link, each platform drawn independently at its
/// conditional rate (with a weighted fallback so "has links" users never
/// end up with zero).
pub fn sample_discord_links(p_any: f64, rng: &mut Rng) -> Vec<LinkedPlatform> {
    if !rng.chance(p_any) {
        return Vec::new();
    }
    let mut links: Vec<LinkedPlatform> = LinkedPlatform::ALL
        .into_iter()
        .zip(LINK_RATES_GIVEN_ANY)
        .filter(|&(_, rate)| rng.chance(rate))
        .map(|(p, _)| p)
        .collect();
    if links.is_empty() {
        // Conditional draw came up empty: fall back to one link weighted
        // by the conditional rates.
        let dist = Categorical::new(&LINK_RATES_GIVEN_ANY);
        links.push(LinkedPlatform::ALL[dist.sample(rng)]);
    }
    links
}

/// Draw one `kind` user registered in `country`: a phone number on
/// WhatsApp and Telegram (then Telegram's visibility opt-in), connected
/// accounts on Discord, which leaves `country` unused.
pub fn draw_user(
    kind: PlatformKind,
    country: CountryCode,
    params: &PlatformParams,
    rng: &mut Rng,
) -> User {
    match kind {
        PlatformKind::WhatsApp => User::whatsapp(PhoneNumber::allocate(country, rng)),
        PlatformKind::Telegram => User::telegram(
            PhoneNumber::allocate(country, rng),
            rng.chance(params.p_phone_visible),
        ),
        PlatformKind::Discord => User::discord(&sample_discord_links(params.p_linked_any, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whatsapp_countries_brazil_leads() {
        let (countries, dist) = whatsapp_creator_countries();
        let mut rng = Rng::new(1);
        let mut br = 0;
        let mut ng = 0;
        let n = 50_000;
        for _ in 0..n {
            match countries[dist.sample(&mut rng)].iso {
                "BR" => br += 1,
                "NG" => ng += 1,
                _ => {}
            }
        }
        let br_share = f64::from(br) / f64::from(n);
        let ng_share = f64::from(ng) / f64::from(n);
        assert!(
            (br_share - 7_718.0 / 34_078.0).abs() < 0.01,
            "BR {br_share}"
        );
        assert!(
            (ng_share - 4_719.0 / 34_078.0).abs() < 0.01,
            "NG {ng_share}"
        );
    }

    #[test]
    fn creator_assign_covers_exactly() {
        let mut rng = Rng::new(2);
        for model in [CreatorModel::whatsapp(), CreatorModel::discord()] {
            let counts = model.assign(10_000, &mut rng);
            assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), 10_000);
            assert!(counts.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn whatsapp_creator_ratio_near_paper() {
        let mut rng = Rng::new(3);
        let counts = CreatorModel::whatsapp().assign(45_718, &mut rng);
        let ratio = 45_718.0 / counts.len() as f64;
        // Paper: 45,718 groups / 34,078 creators = 1.34.
        assert!((ratio - 1.34).abs() < 0.15, "ratio {ratio}");
        let single = counts.iter().filter(|&&c| c == 1).count() as f64 / counts.len() as f64;
        assert!((single - 0.927).abs() < 0.02, "single share {single}");
        assert!(counts.iter().all(|&c| c <= 28));
    }

    #[test]
    fn telegram_creators_all_single() {
        let mut rng = Rng::new(4);
        let counts = CreatorModel::telegram().assign(100, &mut rng);
        assert_eq!(counts.len(), 100);
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn discord_links_rates() {
        let mut rng = Rng::new(5);
        let n = 100_000;
        let mut any = 0u32;
        let mut twitch = 0u32;
        let mut facebook = 0u32;
        for _ in 0..n {
            let links = sample_discord_links(0.30, &mut rng);
            if !links.is_empty() {
                any += 1;
            }
            if links.contains(&LinkedPlatform::Twitch) {
                twitch += 1;
            }
            if links.contains(&LinkedPlatform::Facebook) {
                facebook += 1;
            }
        }
        let any_rate = f64::from(any) / f64::from(n);
        assert!((any_rate - 0.30).abs() < 0.01, "any {any_rate}");
        let twitch_rate = f64::from(twitch) / f64::from(n);
        assert!((twitch_rate - 0.204).abs() < 0.02, "twitch {twitch_rate}");
        let fb_rate = f64::from(facebook) / f64::from(n);
        assert!(fb_rate < 0.02, "facebook {fb_rate}");
    }

    #[test]
    fn linked_users_always_have_at_least_one() {
        let mut rng = Rng::new(6);
        for _ in 0..10_000 {
            let links = sample_discord_links(1.0, &mut rng);
            assert!(!links.is_empty());
        }
    }

    #[test]
    fn links_come_in_table5_order_without_repeats() {
        // `User` keeps the links as a bitset read back in `ALL` order, so
        // the sampler must already return them that way.
        let mut rng = Rng::new(8);
        for p_any in [0.30, 1.0] {
            for _ in 0..20_000 {
                let links = sample_discord_links(p_any, &mut rng);
                assert!(
                    links.windows(2).all(|w| w[0].index() < w[1].index()),
                    "{links:?}"
                );
            }
        }
    }

    #[test]
    fn no_links_when_p_zero() {
        let mut rng = Rng::new(7);
        for _ in 0..100 {
            assert!(sample_discord_links(0.0, &mut rng).is_empty());
        }
    }
}
