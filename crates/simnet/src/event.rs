//! Discrete-event queue with deterministic tie-breaking.
//!
//! The queue orders pending events by `(time, sequence)`, where `sequence`
//! is a monotonically increasing insertion counter. Two events scheduled
//! for the same instant therefore fire in the order they were scheduled —
//! never in allocator- or hash-order — which is essential for reproducible
//! campaigns.

use crate::fastmap::FastSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque handle identifying a scheduled event; can be used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timed events carrying payloads of type `E`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    next_id: u64,
    cancelled: FastSet<EventId>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            next_id: 0,
            cancelled: FastSet::default(),
        }
    }

    /// Schedule `payload` to fire at `at`. Returns a cancellation handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            id,
            payload,
        });
        id
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (it will be silently skipped when popped).
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Lazy deletion: mark and skip on pop. We cannot cheaply tell whether
        // the id is still in the heap, so report pending-ness by id range.
        if id.0 < self.next_id {
            self.cancelled.insert(id)
        } else {
            false
        }
    }

    /// Time of the next (non-cancelled) event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event as `(time, payload)`, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skim_cancelled();
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Number of pending entries, *including* lazily-cancelled ones.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending (cancelled entries count as pending
    /// until popped past).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshot the still-pending (non-cancelled) events as
    /// `(time, payload)` pairs, sorted by `(time, sequence)` — i.e. in the
    /// exact order [`EventQueue::pop`] would deliver them.
    ///
    /// Re-scheduling the returned events into a fresh queue (in order)
    /// reproduces the original pop order, because fresh sequence numbers
    /// are assigned monotonically. This is the checkpoint export path.
    pub fn pending_sorted(&self) -> Vec<(SimTime, E)>
    where
        E: Clone,
    {
        let mut pending: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .filter(|e| !self.cancelled.contains(&e.id))
            .map(|e| (e.at, e.seq, e.payload.clone()))
            .collect();
        pending.sort_by_key(|&(at, seq, _)| (at, seq));
        pending.into_iter().map(|(at, _, p)| (at, p)).collect()
    }

    fn skim_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.id) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        q.schedule(SimTime(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        q.schedule(SimTime(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime(5)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(7), 3);
        assert_eq!(q.pop(), Some((SimTime(5), 2)));
        q.schedule(SimTime(6), 4);
        assert_eq!(q.pop(), Some((SimTime(6), 4)));
        assert_eq!(q.pop(), Some((SimTime(7), 3)));
    }
}
