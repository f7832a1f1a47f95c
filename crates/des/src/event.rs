//! The reference event calendar.
//!
//! A binary-heap priority queue of `(time, key, payload)` entries. Its pop
//! order is the contract the machine model's [`crate::CalendarQueue`] must
//! reproduce, so the tests use it as the oracle for that queue.
//! Simultaneous events fire in ascending *key* order. Callers that do not
//! care about cross-actor tie ordering use [`EventQueue::schedule_at`], which
//! hands out strictly increasing keys (so same-instant ties fire FIFO);
//! callers that need a tie order independent of insertion order — one
//! defined by who scheduled the event — assign their own keys with
//! [`EventQueue::schedule_keyed_at`]. Either way every simulation run is a
//! pure function of its configuration and seed — the property the
//! reproduction's determinism tests rely on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled entry. Ordered by time, then by key.
#[derive(Clone)]
struct Scheduled<E> {
    at: SimTime,
    key: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// A deterministic discrete-event calendar.
///
/// ```
/// use oracle_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_after(10, "b");
/// q.schedule_after(5, "a");
/// q.schedule_after(10, "c"); // same instant as "b", scheduled later
///
/// assert_eq!(q.pop(), Some((SimTime(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// An empty calendar with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at the absolute instant `at` with an explicit
    /// ordering key. Same-instant events fire in ascending key order; a
    /// queue must never hold two pending events with equal `(at, key)`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past — scheduling backwards in time
    /// is always a modelling bug.
    pub fn schedule_keyed_at(&mut self, at: SimTime, key: u64, payload: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at} but the clock is already at {}",
            self.now
        );
        self.heap.push(Reverse(Scheduled { at, key, payload }));
    }

    /// Schedule `payload` at the absolute instant `at` with an
    /// automatically assigned, strictly increasing key (same-instant ties
    /// fire in insertion order). Do not mix with explicit keys below
    /// `1 << 63` — auto keys start at zero.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let key = self.seq;
        self.seq += 1;
        self.schedule_keyed_at(at, key, payload);
    }

    /// Schedule `payload` to fire `delay` units from now.
    #[inline]
    pub fn schedule_after(&mut self, delay: u64, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Remove and return the next event, advancing the clock to its
    /// timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, e)| (at, e))
    }

    /// Remove and return the next event together with its ordering key,
    /// advancing the clock to its timestamp.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        let Reverse(s) = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "event calendar went backwards");
        self.now = s.at;
        self.processed += 1;
        Some((s.at, s.key, s.payload))
    }

    /// [`EventQueue::pop_keyed`], but only an event that comes before
    /// `(at, key)` in `(time, key)` order (the calendar queue's twin).
    pub fn pop_keyed_before(&mut self, at: u64, key: u64) -> Option<(SimTime, u64, E)> {
        let Reverse(s) = self.heap.peek()?;
        if (s.at.units(), s.key) >= (at, key) {
            return None;
        }
        self.pop_keyed()
    }

    /// Count one event that was handled without ever being queued, at `at`:
    /// the clock moves to `at` and the processed count grows by one. `at`
    /// must not be later than the next pending event.
    pub fn advance_unqueued(&mut self, at: SimTime) {
        assert!(at >= self.now, "unqueued event at {at} before {}", self.now);
        self.now = at;
        self.processed += 1;
    }

    /// Rebuild a queue from checkpoint parts: the clock, the processed
    /// count, and every pending event in pop order with its recorded
    /// ordering key. Keys are preserved exactly, so the restored queue pops
    /// in the same order *and* keeps merging correctly with keyed events
    /// scheduled later; the auto-key counter resumes past the largest
    /// restored key.
    pub fn from_snapshot(now: SimTime, processed: u64, events: Vec<(SimTime, u64, E)>) -> Self {
        let mut q = EventQueue::with_capacity(events.len().max(16));
        for (at, key, payload) in events {
            q.schedule_keyed_at(at, key, payload);
            q.seq = q.seq.max(key.saturating_add(1));
        }
        q.now = now;
        q.processed = processed;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), 3);
        q.schedule_at(SimTime(10), 1);
        q.schedule_at(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_keys_override_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_keyed_at(SimTime(7), 30, "c");
        q.schedule_keyed_at(SimTime(7), 10, "a");
        q.schedule_keyed_at(SimTime(7), 20, "b");
        assert_eq!(q.pop_keyed(), Some((SimTime(7), 10, "a")));
        assert_eq!(q.pop_keyed(), Some((SimTime(7), 20, "b")));
        assert_eq!(q.pop_keyed(), Some((SimTime(7), 30, "c")));
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut q = EventQueue::new();
        q.schedule_after(15, ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(15));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_after(10, "first");
        q.pop();
        q.schedule_after(5, "second");
        assert_eq!(q.pop(), Some((SimTime(15), "second")));
    }

    #[test]
    #[should_panic(expected = "clock is already")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn counts_processed_events() {
        let mut q = EventQueue::new();
        q.schedule_after(1, ());
        q.schedule_after(2, ());
        q.pop();
        q.pop();
        assert_eq!(q.events_processed(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), 'a');
        q.schedule_at(SimTime(20), 'd');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.schedule_at(SimTime(10), 'b');
        q.schedule_at(SimTime(10), 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'd');
    }

    #[test]
    fn snapshot_preserves_keys() {
        let mut q = EventQueue::new();
        q.schedule_keyed_at(SimTime(4), 9, 'x');
        q.schedule_keyed_at(SimTime(4), 2, 'y');
        let q2 = EventQueue::from_snapshot(
            SimTime(1),
            3,
            vec![(SimTime(4), 2, 'y'), (SimTime(4), 9, 'x')],
        );
        let mut q2 = q2;
        // A key between the restored ones must still slot in between.
        q2.schedule_keyed_at(SimTime(4), 5, 'z');
        assert_eq!(q2.pop(), Some((SimTime(4), 'y')));
        assert_eq!(q2.pop(), Some((SimTime(4), 'z')));
        assert_eq!(q2.pop(), Some((SimTime(4), 'x')));
        assert_eq!(q2.events_processed(), 6);
        drop(q);
    }
}
