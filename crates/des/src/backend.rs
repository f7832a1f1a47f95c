//! The two event lists behind one type, for side-by-side hold probes.
//!
//! The machine model drives a [`CalendarQueue`] directly and never uses
//! [`DualQueue`]. It exists only so a host-time hold probe can time the
//! timing-wheel [`CalendarQueue`] against the binary-heap [`EventQueue`]
//! (the test oracle) through one code path. Both pop in the same
//! deterministic order: time, then ordering key.

use crate::calendar::CalendarQueue;
use crate::event::EventQueue;
use crate::time::SimTime;

/// An event list that is either a binary heap or a calendar queue.
///
/// ```
/// use oracle_des::{DualQueue, SimTime};
///
/// for mut q in [DualQueue::heap(), DualQueue::calendar()] {
///     q.schedule_keyed_at(SimTime(10), 0, "late");
///     q.schedule_keyed_at(SimTime(5), 1, "early");
///     assert_eq!(q.pop(), Some((SimTime(5), "early")));
///     assert_eq!(q.pop(), Some((SimTime(10), "late")));
/// }
/// ```
#[derive(Clone)]
pub enum DualQueue<E> {
    /// Binary-heap event list ([`EventQueue`]).
    Heap(EventQueue<E>),
    /// Calendar-queue event list ([`CalendarQueue`]).
    Calendar(CalendarQueue<E>),
}

impl<E> DualQueue<E> {
    /// An empty binary-heap queue.
    pub fn heap() -> Self {
        DualQueue::Heap(EventQueue::new())
    }

    /// An empty calendar queue.
    pub fn calendar() -> Self {
        DualQueue::Calendar(CalendarQueue::new())
    }

    /// Schedule `payload` at the absolute instant `at` with an explicit
    /// ordering key (see [`EventQueue::schedule_keyed_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    #[inline]
    pub fn schedule_keyed_at(&mut self, at: SimTime, key: u64, payload: E) {
        match self {
            DualQueue::Heap(q) => q.schedule_keyed_at(at, key, payload),
            DualQueue::Calendar(q) => q.schedule_keyed_at(at, key, payload),
        }
    }

    /// Remove and return the next event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            DualQueue::Heap(q) => q.pop(),
            DualQueue::Calendar(q) => q.pop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn backends_agree_on_random_schedules() {
        let mut rng = Rng::seed_from_u64(7);
        let mut heap = DualQueue::heap();
        let mut cal = DualQueue::calendar();
        for i in 0..64u64 {
            let at = SimTime(rng.below(50));
            heap.schedule_keyed_at(at, i, i);
            cal.schedule_keyed_at(at, i, i);
        }
        for i in 0..5_000u64 {
            let a = heap.pop().expect("heap drained early");
            let b = cal.pop().expect("calendar drained early");
            assert_eq!(a, b, "diverged at step {i}");
            let at = a.0 + rng.below(120);
            heap.schedule_keyed_at(at, i + 64, i + 64);
            cal.schedule_keyed_at(at, i + 64, i + 64);
        }
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), cal.pop());
        }
        assert!(cal.pop().is_none());
    }
}
