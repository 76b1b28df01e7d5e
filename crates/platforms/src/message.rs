//! In-group messages.
//!
//! §5 ("Group messages") analyses 8.25 M messages by **type** (text, image,
//! video, audio, sticker, document, contact, location — plus Telegram's
//! "service" messages), by per-group daily volume, and by per-user volume.
//! Messages here carry exactly the attributes those analyses need; message
//! *text* is not modelled (the paper never analyses in-group text, only
//! tweet text).

use crate::id::UserId;
use chatlens_simnet::time::SimTime;

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
}
