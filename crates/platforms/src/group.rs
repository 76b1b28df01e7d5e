//! Groups (WhatsApp groups, Telegram groups/channels, Discord servers) and
//! their observable state over time.
//!
//! Group dynamics are represented as **precomputed timelines**: a
//! [`SizeTimeline`] carries the member count for each day the group exists
//! during the study, and `revoked_at` fixes when (if ever) its invite URL
//! dies. The platform frontends evaluate these timelines at the virtual
//! time of each request, so the daily monitor observes exactly what a
//! scraper would have seen on that day. The timelines themselves are
//! produced by `chatlens-workload`'s generative models.

use crate::id::{GroupId, PlatformKind, UserId};
use crate::invite::InviteCode;
use crate::message::MessageLog;
use chatlens_simnet::time::{Date, SimTime};

/// What flavour of chat room a group is (Table 1: WhatsApp has groups,
/// Telegram groups and channels, Discord servers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChatKind {
    /// Many-to-many group chat (WhatsApp group, Telegram group).
    Group,
    /// Few-to-many broadcast channel (Telegram only): only the creator and
    /// administrators post — which is why only a sliver of Telegram members
    /// ever appear as message senders (§5).
    Channel,
    /// Discord server (guild) with text channels.
    Server,
}

impl ChatKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ChatKind::Group => "group",
            ChatKind::Channel => "channel",
            ChatKind::Server => "server",
        }
    }
}

/// Daily member counts, anchored at an absolute day number.
///
/// `sizes[i]` is the member count on day `first_day + i`. Queries clamp:
/// before the first tracked day the first value is reported, after the last
/// the last value — matching how a scraper only ever sees the current
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeTimeline {
    /// Absolute day number (days since 1970-01-01) of `sizes[0]`.
    pub first_day: i64,
    /// Member count per day, starting at `first_day`.
    pub sizes: Vec<u32>,
}

impl SizeTimeline {
    /// A timeline starting on `first` with the given per-day counts.
    ///
    /// # Panics
    /// Panics if `sizes` is empty — a group always has at least its
    /// creation-day size.
    pub fn new(first: Date, sizes: Vec<u32>) -> SizeTimeline {
        assert!(!sizes.is_empty(), "a size timeline cannot be empty");
        SizeTimeline {
            first_day: first.day_number(),
            sizes,
        }
    }

    /// A constant-size timeline (useful in tests).
    pub fn flat(first: Date, size: u32) -> SizeTimeline {
        SizeTimeline::new(first, vec![size])
    }

    /// Member count on `date` (clamped at both ends).
    pub fn size_on(&self, date: Date) -> u32 {
        let idx = date.day_number() - self.first_day;
        if idx <= 0 {
            self.sizes[0]
        } else {
            let idx = (idx as usize).min(self.sizes.len() - 1);
            self.sizes[idx]
        }
    }

    /// Member count at instant `t`.
    pub fn size_at(&self, t: SimTime) -> u32 {
        self.size_on(t.date())
    }

    /// First tracked size.
    pub fn first(&self) -> u32 {
        self.sizes[0]
    }

    /// Last tracked size.
    pub fn last(&self) -> u32 {
        *self.sizes.last().expect("non-empty by construction")
    }
}

/// Materialized member list and message-log recipe for a group the
/// collector joined. Only the 616 sampled groups ever carry one; the other
/// 350 K groups stay as cheap metadata. The members are allocated at join;
/// no message is generated until a message endpoint serves the log
/// ([`MessageLog::generate`]), and the platform drops the generated
/// messages at its next request.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupHistory {
    /// Members at materialization time (platform-local user ids).
    pub members: Vec<UserId>,
    /// The recipe of every message in the group's generation window.
    pub log: MessageLog,
}

/// One public group/channel/server.
#[derive(Debug, Clone)]
pub struct Group {
    /// Dense platform-local id.
    pub id: GroupId,
    /// The platform this group lives on.
    pub platform: PlatformKind,
    /// Group vs channel vs server.
    pub chat_kind: ChatKind,
    /// Group title as shown on landing pages.
    pub title: String,
    /// The creating user.
    pub creator: UserId,
    /// Creation instant (groups can long predate the study window — §5
    /// found a six-year-old WhatsApp group).
    pub created_at: SimTime,
    /// When the invite URL dies, if ever: manual revocation, group
    /// deletion, or automatic expiry (Discord's 1-day default TTL).
    pub revoked_at: Option<SimTime>,
    /// The group's invite URL.
    pub invite: InviteCode,
    /// Telegram: admins may hide the member list from members (§3.3 — only
    /// 24 of the 100 joined groups had visible lists).
    pub member_list_hidden: bool,
    /// Mean fraction of members online (Telegram/Discord web clients and
    /// APIs report an online count; Fig 7b).
    pub online_frac: f32,
    /// Daily member counts.
    pub sizes: SizeTimeline,
    /// Mean messages per day, used by the workload to materialize history.
    pub msgs_per_day: f64,
    /// Seed for deterministic history materialization.
    pub activity_seed: u64,
    /// Member list + message-log recipe, present only after
    /// materialization (boxed: all but the joined few groups carry none).
    pub history: Option<Box<GroupHistory>>,
}

impl Group {
    /// Whether the invite URL still works at instant `t`.
    pub fn is_alive(&self, t: SimTime) -> bool {
        t >= self.created_at && self.revoked_at.map(|r| t < r).unwrap_or(true)
    }

    /// Member count visible at instant `t`.
    pub fn size_at(&self, t: SimTime) -> u32 {
        self.sizes.size_at(t)
    }

    /// Online member count at instant `t` (0 for platforms that do not
    /// report one; WhatsApp landing pages don't).
    pub fn online_at(&self, t: SimTime) -> u32 {
        if self.platform == PlatformKind::WhatsApp {
            return 0;
        }
        (self.size_at(t) as f64 * f64::from(self.online_frac)).round() as u32
    }

    /// Group age at instant `t`, in whole days (saturates at 0).
    pub fn age_days(&self, t: SimTime) -> u64 {
        (t - self.created_at).as_days()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invite::InviteCode;
    use chatlens_simnet::rng::Rng;
    use chatlens_simnet::time::SimDuration;

    fn test_group(created: Date, revoked: Option<SimTime>) -> Group {
        Group {
            id: GroupId(0),
            platform: PlatformKind::Telegram,
            chat_kind: ChatKind::Group,
            title: "test".into(),
            creator: UserId(0),
            created_at: created.midnight(),
            revoked_at: revoked,
            invite: InviteCode::generate(PlatformKind::Telegram, &mut Rng::new(1)),
            member_list_hidden: false,
            online_frac: 0.25,
            sizes: SizeTimeline::new(created, vec![100, 110, 90]),
            msgs_per_day: 5.0,
            activity_seed: 7,
            history: None,
        }
    }

    #[test]
    fn timeline_clamps_both_ends() {
        let first = Date::new(2020, 4, 8);
        let tl = SizeTimeline::new(first, vec![10, 20, 30]);
        assert_eq!(tl.size_on(Date::new(2020, 4, 1)), 10, "before start");
        assert_eq!(tl.size_on(Date::new(2020, 4, 8)), 10);
        assert_eq!(tl.size_on(Date::new(2020, 4, 9)), 20);
        assert_eq!(tl.size_on(Date::new(2020, 4, 10)), 30);
        assert_eq!(tl.size_on(Date::new(2020, 6, 1)), 30, "after end");
        assert_eq!(tl.first(), 10);
        assert_eq!(tl.last(), 30);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn timeline_rejects_empty() {
        let _ = SizeTimeline::new(Date::new(2020, 4, 8), vec![]);
    }

    #[test]
    fn alive_window() {
        let created = Date::new(2020, 4, 10);
        let revoked = created.midnight() + SimDuration::days(5);
        let g = test_group(created, Some(revoked));
        assert!(!g.is_alive(
            created
                .midnight()
                .checked_sub(SimDuration::secs(1))
                .unwrap()
        ));
        assert!(g.is_alive(created.midnight()));
        assert!(g.is_alive(revoked.checked_sub(SimDuration::secs(1)).unwrap()));
        assert!(!g.is_alive(revoked));
    }

    #[test]
    fn never_revoked_group_stays_alive() {
        let g = test_group(Date::new(2020, 4, 10), None);
        assert!(g.is_alive(Date::new(2030, 1, 1).midnight()));
    }

    #[test]
    fn online_count_scales_with_size() {
        let g = test_group(Date::new(2020, 4, 8), None);
        let t = Date::new(2020, 4, 8).midnight();
        assert_eq!(g.online_at(t), 25); // 100 * 0.25
        let mut wa = test_group(Date::new(2020, 4, 8), None);
        wa.platform = PlatformKind::WhatsApp;
        assert_eq!(wa.online_at(t), 0, "WhatsApp reports no online count");
    }

    #[test]
    fn age_in_days() {
        let g = test_group(Date::new(2020, 4, 8), None);
        let t = Date::new(2020, 4, 18).midnight() + SimDuration::hours(5);
        assert_eq!(g.age_days(t), 10);
        assert_eq!(g.age_days(SimTime::EPOCH), 0, "saturates");
    }
}
