//! Time-ordered event queue.
//!
//! The simulation advances by repeatedly popping the earliest pending event.  The
//! queue guarantees a *deterministic* order: events scheduled for the same instant
//! are delivered in the order they were pushed (FIFO), so a given seed always
//! produces the same trace — a property the experiment harnesses rely on.
//!
//! # Allocation behaviour
//!
//! The queue is one [`BinaryHeap`] of `(SimTime, seq, event)` entries, ordered
//! on `(time, seq)` alone.  [`EventQueue::with_capacity`] pre-sizes the heap;
//! once the pending-event count stays at or below that capacity, a push or pop
//! never reallocates, so the steady state of a simulation run performs **zero
//! heap allocations per event**.  [`EventQueue::grow_events`] counts the pushes
//! that *did* have to grow the heap, which lets callers (and the engine's debug
//! assertions) verify a run stayed allocation-free.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered queue of simulation events.
///
/// Ties on the timestamp are broken by insertion order, which makes the simulation
/// fully deterministic (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use versaslot_sim::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.push(SimTime::from_millis(2), "second");
/// queue.push(SimTime::from_millis(1), "first");
/// queue.push(SimTime::from_millis(2), "third");
///
/// let order: Vec<_> = std::iter::from_fn(|| queue.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["first", "second", "third"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence number of the next push.
    next_seq: u64,
    grow_events: u64,
}

/// A pending event, ordered only on `(time, seq)`.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse so the earliest time (and, within a
        // time, the lowest sequence number) surfaces first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    ///
    /// Equivalent to [`EventQueue::with_capacity`]`(0)`: the heap grows on
    /// demand (and [`Self::grow_events`] counts every growth).  Long runs
    /// should pre-size with `with_capacity`.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` *concurrently pending*
    /// events.
    ///
    /// As long as [`Self::len`] never exceeds `capacity`, no push or pop will
    /// ever allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            grow_events: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.heap.len() == self.heap.capacity() {
            self.grow_events += 1;
        }
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest pending event together with its timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|entry| (entry.time, entry.event))
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pushes that had to grow the heap.
    ///
    /// Stays `0` for the lifetime of a queue created with
    /// [`Self::with_capacity`] whose pending-event count never exceeded that
    /// capacity — the property the engine's steady-state allocation check
    /// asserts.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (time, event) in iter {
            self.push(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut queue = EventQueue::new();
        queue.extend(iter);
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_micros(30), 3);
        queue.push(SimTime::from_micros(10), 1);
        queue.push(SimTime::from_micros(20), 2);

        assert_eq!(queue.pop(), Some((SimTime::from_micros(10), 1)));
        assert_eq!(queue.pop(), Some((SimTime::from_micros(20), 2)));
        assert_eq!(queue.pop(), Some((SimTime::from_micros(30), 3)));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut queue = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            queue.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(queue.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_micros(7), "x");
        assert_eq!(queue.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(queue.len(), 1);
        assert!(!queue.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let queue: EventQueue<u32> = [
            (SimTime::from_micros(2), 2u32),
            (SimTime::from_micros(1), 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.peek_time(), Some(SimTime::from_micros(1)));
    }

    #[test]
    fn pre_sized_queue_never_grows() {
        // 8 pending events at most; cycle far more than 8 through the queue.
        let mut queue = EventQueue::with_capacity(8);
        for round in 0..50u64 {
            for i in 0..8u64 {
                queue.push(SimTime::from_micros(round * 100 + i), i);
            }
            for _ in 0..8 {
                queue.pop().expect("queue holds 8 events");
            }
        }
        assert_eq!(queue.grow_events(), 0);
    }

    #[test]
    fn unsized_queue_counts_growth() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO, 1);
        assert!(
            queue.grow_events() > 0,
            "growing from capacity 0 is counted"
        );
    }

    proptest! {
        /// Popping the full queue always yields non-decreasing timestamps and, within
        /// equal timestamps, preserves insertion order.
        #[test]
        fn prop_pop_order_is_deterministic(times in prop::collection::vec(0u64..1_000, 0..200)) {
            let mut queue = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                queue.push(SimTime::from_micros(*t), i);
            }

            let mut last: Option<(SimTime, usize)> = None;
            while let Some((time, idx)) = queue.pop() {
                if let Some((last_time, last_idx)) = last {
                    prop_assert!(time >= last_time);
                    if time == last_time {
                        prop_assert!(idx > last_idx);
                    }
                }
                last = Some((time, idx));
            }
        }

        /// len() always equals pushes minus pops.
        #[test]
        fn prop_len_tracks_pushes_and_pops(ops in prop::collection::vec(prop::bool::ANY, 0..300)) {
            let mut queue = EventQueue::new();
            let mut expected = 0usize;
            for (i, push) in ops.iter().enumerate() {
                if *push {
                    queue.push(SimTime::from_micros(i as u64 % 17), i);
                    expected += 1;
                } else if queue.pop().is_some() {
                    expected -= 1;
                }
                prop_assert_eq!(queue.len(), expected);
            }
        }

        /// Random push/pop interleavings: pops come out in (time, FIFO-within-time)
        /// order relative to the *currently pending* set, as a naive model queue
        /// would deliver them.
        #[test]
        fn prop_interleaved_ops_match_a_model_queue(
            ops in prop::collection::vec((prop::bool::ANY, 0u64..50), 0..400),
        ) {
            let mut queue = EventQueue::with_capacity(4);
            // Mirror model: the pending set as (time, seq) pairs.
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            for &(push, t) in &ops {
                if push {
                    queue.push(SimTime::from_micros(t), seq);
                    pending.push((t, seq));
                    seq += 1;
                } else {
                    let popped = queue.pop();
                    // The model's minimum by (time, seq) must match.
                    let expected = pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(time, s))| (time, s))
                        .map(|(i, _)| i);
                    match (popped, expected) {
                        (Some((time, event_seq)), Some(idx)) => {
                            let (model_time, model_seq) = pending.remove(idx);
                            prop_assert_eq!(time, SimTime::from_micros(model_time));
                            prop_assert_eq!(event_seq, model_seq);
                        }
                        (None, None) => {}
                        (popped, expected) => {
                            prop_assert!(false, "queue/model diverged: {popped:?} vs {expected:?}");
                        }
                    }
                }
                prop_assert_eq!(queue.len(), pending.len());
            }
            // Drain: full order check against the sorted model.
            pending.sort_unstable();
            for &(t, s) in &pending {
                let (time, event_seq) = queue.pop().expect("queue matches model size");
                prop_assert_eq!(time, SimTime::from_micros(t));
                prop_assert_eq!(event_seq, s);
            }
            prop_assert!(queue.is_empty());
        }

        /// A queue pre-sized to the high-water mark of an interleaving never grows.
        #[test]
        fn prop_pre_sized_interleavings_never_allocate(
            ops in prop::collection::vec((prop::bool::ANY, 0u64..40), 0..300),
        ) {
            // First pass: find the high-water mark of the interleaving.
            let mut depth = 0usize;
            let mut high_water = 0usize;
            for &(push, _) in &ops {
                if push {
                    depth += 1;
                    high_water = high_water.max(depth);
                } else {
                    depth = depth.saturating_sub(1);
                }
            }
            // Second pass: replay against a queue pre-sized to that mark.
            let mut queue = EventQueue::with_capacity(high_water);
            for (i, &(push, t)) in ops.iter().enumerate() {
                if push {
                    queue.push(SimTime::from_micros(t), i);
                } else {
                    queue.pop();
                }
            }
            prop_assert_eq!(queue.grow_events(), 0);
        }
    }
}
