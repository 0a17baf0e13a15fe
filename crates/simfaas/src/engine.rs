//! The discrete-event core: a time-ordered event queue.
//!
//! The queue is generic over the event payload so the owning crate can keep
//! one flat enum for the whole world. Ties at the same instant pop in
//! insertion order (a strictly monotone sequence number breaks ties), which
//! keeps runs deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ic_common::SimTime;

/// A deterministic event queue over virtual time.
///
/// # Example
///
/// ```
/// use ic_common::SimTime;
/// use ic_simfaas::EventQueue;
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.push(SimTime::from_millis(5), "later");
/// q.push(SimTime::from_millis(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "sooner"));
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

#[derive(Clone, Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now" (same-instant delivery)
    /// rather than violating causality.
    pub fn push(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Schedules `event` after a delay relative to now.
    pub fn push_after(&mut self, delay: ic_common::SimDuration, event: E) {
        self.push(self.now + delay, event);
    }

    /// Pops the earliest event and advances the clock to it.
    ///
    /// An event scheduled before "now" — possible after an out-of-order
    /// [`take`] jumped the clock past it — delivers at "now" (the same
    /// causality clamp [`push`] applies) rather than running time
    /// backwards.
    ///
    /// [`take`]: EventQueue::take
    /// [`push`]: EventQueue::push
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = self.now.max(entry.at);
        self.popped += 1;
        Some((self.now, entry.event))
    }

    /// Peeks at the next event time without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Sequence number of the next event in time order (the one [`pop`]
    /// would return). Sequence numbers identify a scheduled event for the
    /// out-of-order delivery path used by the model checker.
    ///
    /// [`pop`]: EventQueue::pop
    pub fn peek_seq(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.seq)
    }

    /// Every pending event as `(seq, scheduled_at, event)`, sorted by
    /// `(scheduled_at, seq)` — the order [`pop`] would drain them.
    ///
    /// This is the model checker's view of the world: the set of
    /// currently-deliverable events it enumerates scheduling choices
    /// over. It allocates, so the time-ordered hot path never calls it.
    ///
    /// [`pop`]: EventQueue::pop
    pub fn pending(&self) -> Vec<(u64, SimTime, &E)> {
        let mut entries: Vec<(u64, SimTime, &E)> = self.iter().collect();
        entries.sort_by_key(|&(seq, at, _)| (at, seq));
        entries
    }

    /// Every pending event as `(seq, scheduled_at, event)`, in no
    /// particular order: [`pending`](EventQueue::pending) without the
    /// allocation and the sort, for order-insensitive scans.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SimTime, &E)> {
        self.heap.iter().map(|Reverse(e)| (e.seq, e.at, &e.event))
    }

    /// `true` when an event with sequence number `seq` is still pending.
    pub fn contains(&self, seq: u64) -> bool {
        self.heap.iter().any(|Reverse(e)| e.seq == seq)
    }

    /// Removes and returns the event with sequence number `seq`,
    /// regardless of its position in time order.
    ///
    /// The clock advances to `max(now, scheduled_at)`: delivering a
    /// later-scheduled event first is exactly the reordering freedom a
    /// model-checking scheduler exercises, and events left behind are
    /// clamped forward to "now" when they eventually deliver (the same
    /// causality clamp [`push`] applies). O(n) — the checker explores
    /// small worlds; the time-ordered path uses [`pop`].
    ///
    /// [`push`]: EventQueue::push
    /// [`pop`]: EventQueue::pop
    pub fn take(&mut self, seq: u64) -> Option<(SimTime, E)> {
        if self.peek_seq() == Some(seq) {
            return self.pop();
        }
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        let idx = entries.iter().position(|Reverse(e)| e.seq == seq);
        let Some(idx) = idx else {
            self.heap = entries.into();
            return None;
        };
        let Reverse(found) = entries.swap_remove(idx);
        self.heap = entries.into();
        self.now = self.now.max(found.at);
        self.popped += 1;
        Some((self.now, found.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), 3);
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(1));
        // Scheduling in the past clamps to now.
        q.push(SimTime::ZERO, "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(t, SimTime::from_secs(1));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn take_delivers_out_of_order_and_clamps_the_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), "early");
        q.push(SimTime::from_millis(30), "late");
        let pending = q.pending();
        assert_eq!(pending.len(), 2);
        assert_eq!(*pending[0].2, "early");
        let late_seq = pending[1].0;
        // Deliver the later event first: the clock jumps to it…
        let (t, e) = q.take(late_seq).unwrap();
        assert_eq!((t, e), (SimTime::from_millis(30), "late"));
        // …and the earlier event clamps forward when it finally pops.
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_millis(30), "early"));
        assert_eq!(q.processed(), 2);
        // A bogus seq is a no-op that loses nothing.
        q.push(SimTime::from_millis(40), "keep");
        assert!(q.take(9999).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn take_of_the_front_event_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "front");
        let seq = q.peek_seq().unwrap();
        assert_eq!(q.take(seq).unwrap().1, "front");
        assert!(q.is_empty());
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "first");
        q.pop();
        q.push_after(SimDuration::from_secs(2), "second");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }
}
