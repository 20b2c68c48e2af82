//! A deterministic event queue for discrete-event simulation.
//!
//! The queue orders events by timestamp; events that share a timestamp are
//! delivered in insertion order (FIFO). That stability matters for
//! reproducibility: the Custody experiments compare two cluster managers on
//! the *same* job submission schedule (§VI-A2 of the paper), so simulation
//! runs must be bit-for-bit deterministic given a seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event together with its scheduled delivery time and a tie-breaking
/// sequence number assigned by the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Queue-assigned insertion sequence; unique per queue.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

#[derive(Clone)]
struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered, insertion-stable priority queue of simulation events.
///
/// ```
/// use custody_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// q.schedule(SimTime::from_secs(1), "early-second");
///
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    /// Time of the most recently popped event; used to reject scheduling in
    /// the past, which would indicate a logic bug in a model.
    watermark: SimTime,
}

impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        EventQueue {
            heap: self.heap.clone(),
            next_seq: self.next_seq,
            watermark: self.watermark,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the time of the last popped event —
    /// scheduling into the simulated past is always a bug.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.watermark,
            "scheduled event at {time:?} before current time {:?}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    /// Removes and returns the earliest event, advancing the queue's
    /// watermark to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| {
            self.watermark = e.time;
            ScheduledEvent {
                time: e.time,
                seq: e.seq,
                event: e.event,
            }
        })
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next scheduled event will receive. Two
    /// queues that agree on `snapshot()` and `next_seq()` will assign
    /// identical (time, seq) pairs to identical future schedules.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// All pending events as `(time, event)` pairs in no particular order,
    /// without disturbing the queue — for checks that only count or
    /// collect, where [`snapshot`](Self::snapshot)'s sort is wasted.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap.iter().map(|e| (e.time, &e.event))
    }

    /// All pending events in delivery order, without disturbing the queue.
    /// Used by checkpoint/recovery convergence checks to compare two
    /// queues' exact future schedules.
    pub fn snapshot(&self) -> Vec<ScheduledEvent<E>>
    where
        E: Clone,
    {
        let mut out: Vec<ScheduledEvent<E>> = self
            .heap
            .iter()
            .map(|e| ScheduledEvent {
                time: e.time,
                seq: e.seq,
                event: e.event.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime::from_secs(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn watermark_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(4), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn scheduling_at_current_time_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1u8);
        q.pop();
        q.schedule(SimTime::from_secs(10), 2u8);
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), 42u32);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, 42);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn iter_sees_every_pending_event_without_popping() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        q.pop();
        let mut pending: Vec<(SimTime, char)> = q.iter().map(|(at, &e)| (at, e)).collect();
        pending.sort_unstable();
        assert_eq!(
            pending,
            vec![(SimTime::from_secs(2), 'b'), (SimTime::from_secs(3), 'c')]
        );
        assert_eq!(q.len(), 2);
    }
}
