//! Platform users and the PII each platform attaches to them.
//!
//! §6 (Privacy Implications): WhatsApp exposes member phone numbers to
//! co-members and creator phone numbers to *anyone* with the invite URL;
//! Telegram hides phone numbers unless the user opts in (0.68% of observed
//! users had); Discord has no phone numbers but exposes **connected
//! accounts** on other platforms for ~30% of users (Table 5).

use crate::phone::PhoneNumber;

/// External platforms a Discord profile can link to (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkedPlatform {
    /// Twitch (20.4% of observed users in the paper).
    Twitch,
    /// Steam (12.2%).
    Steam,
    /// Twitter (8.9%).
    Twitter,
    /// Spotify (8.0%).
    Spotify,
    /// YouTube (6.6%).
    YouTube,
    /// Battle.net (5.2%).
    Battlenet,
    /// Xbox (3.7%).
    Xbox,
    /// Reddit (3.0%).
    Reddit,
    /// League of Legends (2.4%).
    LeagueOfLegends,
    /// Skype (0.6%).
    Skype,
    /// Facebook (0.5%).
    Facebook,
}

impl LinkedPlatform {
    /// All linkable platforms in Table 5's order.
    pub const ALL: [LinkedPlatform; 11] = [
        LinkedPlatform::Twitch,
        LinkedPlatform::Steam,
        LinkedPlatform::Twitter,
        LinkedPlatform::Spotify,
        LinkedPlatform::YouTube,
        LinkedPlatform::Battlenet,
        LinkedPlatform::Xbox,
        LinkedPlatform::Reddit,
        LinkedPlatform::LeagueOfLegends,
        LinkedPlatform::Skype,
        LinkedPlatform::Facebook,
    ];

    /// Display name as printed in Table 5.
    pub fn label(self) -> &'static str {
        match self {
            LinkedPlatform::Twitch => "Twitch",
            LinkedPlatform::Steam => "Steam",
            LinkedPlatform::Twitter => "Twitter",
            LinkedPlatform::Spotify => "Spotify",
            LinkedPlatform::YouTube => "YouTube",
            LinkedPlatform::Battlenet => "Battlenet",
            LinkedPlatform::Xbox => "Xbox",
            LinkedPlatform::Reddit => "Reddit",
            LinkedPlatform::LeagueOfLegends => "League of Legends",
            LinkedPlatform::Skype => "Skype",
            LinkedPlatform::Facebook => "Facebook",
        }
    }

    /// Stable index into [`LinkedPlatform::ALL`] (the variants are
    /// declared in that order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A registered user of one messaging platform, held in 16 bytes.
///
/// A user is stored by the [`Platform`](crate::platform::Platform) that
/// owns it, at the index that is its [`UserId`](crate::id::UserId), so it
/// repeats neither. It keeps only the PII facts §6 reduces a user to:
/// the registration phone as its `(dial, national)` pair, with dial 0
/// meaning "no phone" (no E.164 calling code is 0); whether a co-member
/// sees that phone; and Discord's connected accounts as a bitset over
/// [`LinkedPlatform::ALL`], bit `i` for `ALL[i]`.
#[derive(Debug, Clone, Copy)]
pub struct User {
    national: u64,
    dial: u16,
    links: u16,
    phone_visible: bool,
}

const _: () = assert!(std::mem::size_of::<User>() == 16);

impl User {
    /// A WhatsApp user (phone always present and always visible to
    /// co-members — the crux of §6's WhatsApp finding).
    pub fn whatsapp(phone: PhoneNumber) -> User {
        User::with_phone(phone, true)
    }

    /// A Telegram user; `phone_visible` reflects the opt-in.
    pub fn telegram(phone: PhoneNumber, phone_visible: bool) -> User {
        User::with_phone(phone, phone_visible)
    }

    /// A Discord user (registered by email, so no phone) with the given
    /// connected accounts.
    pub fn discord(linked: &[LinkedPlatform]) -> User {
        User {
            national: 0,
            dial: 0,
            links: linked.iter().fold(0, |bits, p| bits | 1 << p.index()),
            phone_visible: false,
        }
    }

    fn with_phone(phone: PhoneNumber, phone_visible: bool) -> User {
        debug_assert_ne!(phone.dial, 0, "dial 0 is the no-phone sentinel");
        User {
            national: phone.national,
            dial: phone.dial,
            links: 0,
            phone_visible,
        }
    }

    /// Registration phone number (WhatsApp and Telegram; `None` on
    /// Discord, which registers by email).
    pub fn phone(&self) -> Option<PhoneNumber> {
        (self.dial != 0).then_some(PhoneNumber {
            dial: self.dial,
            national: self.national,
        })
    }

    /// The phone number this user's platform would *expose* to a
    /// co-member: always for WhatsApp, opt-in for Telegram, never for
    /// Discord.
    pub fn exposed_phone(&self) -> Option<PhoneNumber> {
        self.phone().filter(|_| self.phone_visible)
    }

    /// Discord only: connected accounts on other platforms, in
    /// [`LinkedPlatform::ALL`] order.
    pub fn linked(&self) -> impl Iterator<Item = LinkedPlatform> {
        let links = self.links;
        LinkedPlatform::ALL
            .into_iter()
            .enumerate()
            .filter(move |&(i, _)| links >> i & 1 != 0)
            .map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phone::{country_by_iso, PhoneNumber};
    use chatlens_simnet::rng::Rng;

    fn phone() -> PhoneNumber {
        PhoneNumber::allocate(country_by_iso("BR").unwrap(), &mut Rng::new(1))
    }

    #[test]
    fn each_constructor_keeps_and_exposes_its_phone() {
        let linked = [LinkedPlatform::Twitch, LinkedPlatform::Facebook];
        // (user, phone(), exposed_phone(), linked())
        let table = [
            (
                User::whatsapp(phone()),
                Some(phone()),
                Some(phone()),
                vec![],
            ),
            (User::telegram(phone(), false), Some(phone()), None, vec![]),
            (
                User::telegram(phone(), true),
                Some(phone()),
                Some(phone()),
                vec![],
            ),
            (User::discord(&[]), None, None, vec![]),
            (User::discord(&linked), None, None, linked.to_vec()),
        ];
        for (i, (user, phone, exposed, links)) in table.into_iter().enumerate() {
            assert_eq!(user.phone(), phone, "row {i}");
            assert_eq!(user.exposed_phone(), exposed, "row {i}");
            assert_eq!(user.linked().collect::<Vec<_>>(), links, "row {i}");
        }
    }

    #[test]
    fn every_link_subset_comes_back_in_table5_order() {
        for mask in 0u16..1 << LinkedPlatform::ALL.len() {
            let subset: Vec<LinkedPlatform> = LinkedPlatform::ALL
                .into_iter()
                .filter(|p| mask >> p.index() & 1 != 0)
                .collect();
            let user = User::discord(&subset);
            assert_eq!(user.linked().collect::<Vec<_>>(), subset, "mask {mask:#x}");
            assert_eq!(user.phone(), None, "mask {mask:#x}");
        }
    }

    #[test]
    fn table5_order_and_labels() {
        assert_eq!(LinkedPlatform::ALL[0].label(), "Twitch");
        assert_eq!(LinkedPlatform::ALL[10].label(), "Facebook");
        for (i, p) in LinkedPlatform::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
