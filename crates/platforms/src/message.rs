//! In-group messages.
//!
//! §5 ("Group messages") analyses 8.25 M messages by **type** (text, image,
//! video, audio, sticker, document, contact, location — plus Telegram's
//! "service" messages), by per-group daily volume, and by per-user volume.
//! Messages here carry exactly the attributes those analyses need; message
//! *text* is not modelled (the paper never analyses in-group text, only
//! tweet text).
//!
//! A joined group's log is kept as a [`MessageLog`] recipe, not as stored
//! messages: the platform generates the log when a message endpoint
//! serves it, the way a real server reads a channel's history from disk
//! on request.

use crate::id::UserId;
use chatlens_simnet::dist::{Categorical, Poisson, Zipf};
use chatlens_simnet::rng::Rng;
use chatlens_simnet::time::{SimDuration, SimTime, SECS_PER_DAY};

/// The content type of a message (Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageKind {
    /// Plain text.
    Text,
    /// Image attachment.
    Image,
    /// Video attachment.
    Video,
    /// Audio clip (includes WhatsApp voice notes).
    Audio,
    /// Sticker (an image subtype with its own ecosystem on WhatsApp).
    Sticker,
    /// Document attachment.
    Document,
    /// Shared contact card.
    Contact,
    /// Shared location.
    Location,
    /// Service message (member joined/left, group info edited) — Telegram
    /// reports these through its API ("other" in Fig 8).
    Service,
}

impl MessageKind {
    /// All kinds in Fig 8's display order.
    pub const ALL: [MessageKind; 9] = [
        MessageKind::Text,
        MessageKind::Image,
        MessageKind::Video,
        MessageKind::Audio,
        MessageKind::Sticker,
        MessageKind::Document,
        MessageKind::Contact,
        MessageKind::Location,
        MessageKind::Service,
    ];

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::Text => "text",
            MessageKind::Image => "image",
            MessageKind::Video => "video",
            MessageKind::Audio => "audio",
            MessageKind::Sticker => "sticker",
            MessageKind::Document => "document",
            MessageKind::Contact => "contact",
            MessageKind::Location => "location",
            MessageKind::Service => "other",
        }
    }

    /// Whether this is a multimedia type (image/video/audio/sticker) — the
    /// paper notes WhatsApp has >20% multimedia messages.
    pub fn is_multimedia(self) -> bool {
        matches!(
            self,
            MessageKind::Image | MessageKind::Video | MessageKind::Audio | MessageKind::Sticker
        )
    }

    /// Stable index into [`MessageKind::ALL`], which lists the kinds in
    /// declaration order (pinned by the `index_roundtrip` test).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`MessageKind::index`].
    ///
    /// # Panics
    /// Panics if `i >= 9`.
    pub fn from_index(i: usize) -> MessageKind {
        MessageKind::ALL[i]
    }
}

/// One message in a group, as exposed to the collector after joining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// The member who sent it (`Service` messages use the affected member).
    pub sender: UserId,
    /// When it was posted.
    pub at: SimTime,
    /// Content type.
    pub kind: MessageKind,
}

/// The recipe of a joined group's message log: the posters and the
/// generator state captured at join, and the model parameters the
/// messages are drawn from. [`MessageLog::generate`] turns it into the
/// same messages on every call.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageLog {
    /// The users who post, in Zipf-rank order (the first is rank 1).
    pub posters: Vec<UserId>,
    /// State of the group's generator after its members and posters were
    /// drawn ([`Rng::state`]); every message draw starts from here.
    pub rng: [u64; 4],
    /// No message is sent before this instant.
    pub start: SimTime,
    /// No message is sent at or after this instant.
    pub end: SimTime,
    /// Mean messages per day (Poisson).
    pub msgs_per_day: f64,
    /// Zipf exponent of the per-poster message distribution.
    pub sender_zipf: f64,
    /// Message-kind weights in [`MessageKind::ALL`] order.
    pub kind_weights: [f64; MessageKind::ALL.len()],
    /// The log stops after this many messages.
    pub cap: u64,
}

impl MessageLog {
    /// Generate the log, in chronological order: each day from `start`'s
    /// midnight draws a Poisson count of second offsets, sorts them, and
    /// gives each offset inside `[start, end)` a Zipf-ranked poster and a
    /// kind, until `cap` messages are out.
    ///
    /// # Panics
    /// Panics if `posters` is empty or a model parameter is out of its
    /// distribution's domain.
    pub fn generate(&self) -> Vec<Message> {
        let mut rng = Rng::from_state(self.rng);
        let sender = Zipf::new(self.posters.len(), self.sender_zipf);
        let kind = Categorical::new(&self.kind_weights);
        let daily = Poisson::new(self.msgs_per_day.max(0.0));
        let mut messages = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut day_start = self.start.floor_day();
        'days: while day_start < self.end {
            let n = daily.sample(&mut rng) as usize;
            offsets.clear();
            // The counting sort's spare half comes with the same
            // allocation.
            offsets.reserve(2 * n);
            offsets.extend((0..n).map(|_| rng.below(SECS_PER_DAY) as u32));
            sort_day_offsets(&mut offsets);
            for &off in &offsets {
                let at = day_start + SimDuration::secs(u64::from(off));
                if at < self.start || at >= self.end {
                    continue;
                }
                messages.push(Message {
                    sender: self.posters[sender.sample(&mut rng) - 1],
                    at,
                    kind: MessageKind::from_index(kind.sample(&mut rng)),
                });
                if messages.len() as u64 >= self.cap {
                    break 'days;
                }
            }
            day_start += SimDuration::days(1);
        }
        messages
    }
}

/// Days with fewer offsets than this sort them with `sort_unstable`: below
/// it the counting sort's fixed cost (768 counters) is not repaid.
const RADIX_MIN: usize = 128;

/// Low digit of the counting sort: 9 bits, then 8 for the high digit.
const LOW_BITS: u32 = 9;
const _: () = assert!(SECS_PER_DAY <= 1 << (LOW_BITS + 8), "offsets are 17-bit");

/// Sort a day's second offsets (each below [`SECS_PER_DAY`]) ascending,
/// into exactly the sequence `sort_unstable` gives. Long days take a
/// two-pass LSD counting sort, 9 then 8 bits with the counts on the
/// stack, through a spare half appended to `offsets` (the caller
/// reserves it) and cut off again; equal offsets are indistinguishable,
/// so the order is the same.
fn sort_day_offsets(offsets: &mut Vec<u32>) {
    let n = offsets.len();
    if n < RADIX_MIN {
        offsets.sort_unstable();
        return;
    }
    let low_digit = |v: u32| (v & ((1 << LOW_BITS) - 1)) as usize;
    let high_digit = |v: u32| (v >> LOW_BITS) as usize;
    let mut low = [0usize; 1 << LOW_BITS];
    let mut high = [0usize; 1 << 8];
    for &v in offsets.iter() {
        low[low_digit(v)] += 1;
        high[high_digit(v)] += 1;
    }
    let starts = |counts: &mut [usize]| {
        let mut at = 0;
        for c in counts {
            (*c, at) = (at, at + *c);
        }
    };
    starts(&mut low);
    starts(&mut high);
    offsets.resize(2 * n, 0);
    let (keys, spare) = offsets.split_at_mut(n);
    for &v in keys.iter() {
        let slot = &mut low[low_digit(v)];
        spare[*slot] = v;
        *slot += 1;
    }
    for &v in spare.iter() {
        let slot = &mut high[high_digit(v)];
        keys[*slot] = v;
        *slot += 1;
    }
    offsets.truncate(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, k) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(MessageKind::from_index(i), k);
        }
    }

    #[test]
    fn multimedia_classification() {
        assert!(MessageKind::Image.is_multimedia());
        assert!(MessageKind::Sticker.is_multimedia());
        assert!(MessageKind::Audio.is_multimedia());
        assert!(MessageKind::Video.is_multimedia());
        assert!(!MessageKind::Text.is_multimedia());
        assert!(!MessageKind::Document.is_multimedia());
        assert!(!MessageKind::Service.is_multimedia());
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = MessageKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 9);
    }

    fn log(msgs_per_day: f64) -> MessageLog {
        let start = SimTime::from_secs(3 * SECS_PER_DAY + 5_000);
        MessageLog {
            posters: vec![UserId(4), UserId(9), UserId(2)],
            rng: Rng::new(11).state(),
            start,
            end: start + SimDuration::days(20),
            msgs_per_day,
            sender_zipf: 1.1,
            kind_weights: [5.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.1, 0.1, 0.3],
            cap: 1_000,
        }
    }

    #[test]
    fn generate_is_a_pure_function_of_the_recipe() {
        let log = log(4.0);
        let first = log.generate();
        assert!(first.len() > 20, "messages: {}", first.len());
        assert_eq!(log.generate(), first);
        assert_eq!(log.clone().generate(), first);
    }

    #[test]
    fn generated_messages_are_chronological_inside_the_window() {
        let log = log(4.0);
        let messages = log.generate();
        assert!(messages.windows(2).all(|w| w[0].at <= w[1].at));
        for m in &messages {
            assert!(m.at >= log.start && m.at < log.end, "{m:?}");
            assert!(log.posters.contains(&m.sender), "{m:?}");
        }
    }

    /// Sort `offsets` as `generate` does (the spare half reserved up
    /// front) and check it against `sort_unstable`, and that the sort
    /// needed no allocation of its own.
    fn sorts_like_sort_unstable(offsets: &[u32]) -> bool {
        let mut want = offsets.to_vec();
        want.sort_unstable();
        let mut got = Vec::with_capacity(2 * offsets.len());
        got.extend_from_slice(offsets);
        let capacity = got.capacity();
        sort_day_offsets(&mut got);
        got == want && got.capacity() == capacity
    }

    #[test]
    fn day_offset_sort_edges() {
        let last = SECS_PER_DAY as u32 - 1;
        assert!(sorts_like_sort_unstable(&[]));
        assert!(sorts_like_sort_unstable(&[last]));
        for len in [RADIX_MIN - 1, RADIX_MIN, RADIX_MIN + 1, 4 * RADIX_MIN] {
            for v in [0, 511, 512, last] {
                assert!(sorts_like_sort_unstable(&vec![v; len]), "{len} x {v}");
            }
            let extremes: Vec<u32> = (0..len as u32).map(|i| [last, 0][i as usize % 2]).collect();
            assert!(sorts_like_sort_unstable(&extremes), "{len}");
            let strided: Vec<u32> = (0..len as u32).map(|i| last - i * 613 % last).collect();
            assert!(sorts_like_sort_unstable(&strided), "{len}");
        }
    }

    proptest::proptest! {
        #[test]
        fn day_offset_sort_is_sort_unstable(
            len in 0usize..3 * RADIX_MIN,
            pool in 0u8..4,
            seed in proptest::any::<u64>()
        ) {
            // All equal, the day's two ends, a narrow band full of
            // repeats, or the whole day.
            let mut rng = Rng::new(seed);
            let last = SECS_PER_DAY - 1;
            let offsets: Vec<u32> = (0..len)
                .map(|_| match pool {
                    0 => (seed % SECS_PER_DAY) as u32,
                    1 => [0, last][rng.below(2) as usize] as u32,
                    2 => rng.below(700) as u32,
                    _ => rng.below(SECS_PER_DAY) as u32,
                })
                .collect();
            proptest::prop_assert!(sorts_like_sort_unstable(&offsets), "{:?}", offsets);
        }
    }

    #[test]
    fn generate_stops_at_the_cap_and_a_zero_rate_is_empty() {
        let mut capped = log(4.0);
        capped.cap = 7;
        let all = log(4.0).generate();
        assert_eq!(capped.generate(), all[..7]);
        assert!(log(0.0).generate().is_empty());
    }
}
