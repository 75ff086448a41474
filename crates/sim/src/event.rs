//! Time-ordered event queue.
//!
//! The simulation advances by repeatedly popping the earliest pending event.  The
//! queue guarantees a *deterministic* order: events scheduled for the same instant
//! are delivered in the order they were pushed (FIFO), so a given seed always
//! produces the same trace — a property the experiment harnesses rely on.
//!
//! # A sorted run
//!
//! The queue is one `Vec<(SimTime, E)>` kept sorted by descending
//! `(time, push order)`, so the earliest event is the last entry:
//! [`EventQueue::pop`] is `Vec::pop` and [`EventQueue::peek_time`] reads the
//! last entry.  [`EventQueue::push`] appends the new entry and, in one pass,
//! moves it back past every entry due at or before its time: each of those
//! moves up one place, and the new entry is written once, in front of them.
//! There is no separate scan and no `Vec::insert` memmove, and because
//! events are `Copy` a step is one load and one store; a swap through a
//! temporary cost three copies per step and measured slower.  An entry
//! pushed later therefore sits in front of (pops after) every entry with
//! the same time, which is the FIFO rule without a sequence number: an
//! entry is just its time and its event.
//!
//! A push costs one comparison and one moved entry per pending event due at
//! or before it, so it is O(k) for k such events, however long the queue.
//! That suits a simulator whose pending events are bounded by the
//! hardware: in the sharing engine each slot has at most one completion in
//! flight and each board at most one switch or fault timer, so a completion
//! scans at most slots + boards entries plus the arrivals due sooner, and
//! arrivals scheduled far ahead sit at the front, where no push reaches them.
//! [`Extend`] and [`FromIterator`] bulk-load with one stable sort (O(n log n),
//! keeping the tie order), which is how a simulator loads its arrivals.
//!
//! # Allocation behaviour
//!
//! [`EventQueue::with_capacity`] pre-sizes the vector; once the pending-event
//! count stays at or below that capacity, a push or pop never reallocates, so
//! the steady state of a simulation run performs **zero heap allocations per
//! event**.  [`EventQueue::grow_events`] counts the pushes (and bulk loads)
//! that *did* have to grow the vector, which lets callers (and the engine's
//! debug assertions) verify a run stayed allocation-free.

use crate::time::SimTime;

/// A time-ordered queue of simulation events.
///
/// Ties on the timestamp are broken by insertion order, which makes the simulation
/// fully deterministic (see the [module docs](self)).  Events are small `Copy`
/// values (the engine's are slot and board indices), which
/// [`EventQueue::push`] moves with plain loads and stores.
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
    /// Pending events by descending `(time, push order)`: the next to pop is
    /// the last entry.
    run: Vec<(SimTime, E)>,
    grow_events: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    ///
    /// Equivalent to [`EventQueue::with_capacity`]`(0)`: the queue grows on
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
            run: Vec::with_capacity(capacity),
            grow_events: 0,
        }
    }

    /// Schedules `event` to fire at `time`, after every pending event due at
    /// or before `time`.
    ///
    /// Appends the entry, then moves it back past the pending events due at
    /// or before `time` in one pass: each such event moves up one place, and
    /// the entry is written once, where the pass stops (see the
    /// [module docs](self)).
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E)
    where
        E: Copy,
    {
        if self.run.len() == self.run.capacity() {
            self.grow_events += 1;
        }
        self.run.push((time, event));
        let run = self.run.as_mut_slice();
        let mut at = run.len() - 1;
        while at > 0 && run[at - 1].0 <= time {
            run[at] = run[at - 1];
            at -= 1;
        }
        run[at] = (time, event);
    }

    /// Removes and returns the earliest pending event together with its timestamp.
    ///
    /// Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.run.pop()
    }

    /// Returns the timestamp of the earliest pending event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.run.last().map(|&(time, _)| time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Number of pushes (and bulk loads) that had to grow the queue.
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

/// Bulk-loads events as if each were pushed in iteration order, with one
/// stable sort instead of a scan per event, so loading n events is
/// O(n log n) even when they arrive in time order.
impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        let capacity = self.run.capacity();
        // Ascending (time, push order), the new events after the pending
        // ones: a stable sort on time alone then keeps every tie in push
        // order, and reversing restores the descending run.
        self.run.reverse();
        self.run.extend(iter);
        if self.run.capacity() != capacity {
            self.grow_events += 1;
        }
        self.run.sort_by_key(|&(time, _)| time);
        self.run.reverse();
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

        /// A bulk load (ties included) onto a queue that already holds
        /// events, then interleaved pushes and pops: every pop matches the
        /// naive model's minimum by (time, push order).
        #[test]
        fn prop_bulk_load_then_interleaved_ops_match_a_model_queue(
            first in prop::collection::vec(0u64..20, 0..20),
            bulk in prop::collection::vec(0u64..20, 0..200),
            ops in prop::collection::vec((prop::bool::ANY, 0u64..40), 0..300),
        ) {
            let mut queue = EventQueue::new();
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            for &t in &first {
                queue.push(SimTime::from_micros(t), seq);
                pending.push((t, seq));
                seq += 1;
            }
            queue.extend(bulk.iter().map(|&t| {
                pending.push((t, seq));
                seq += 1;
                (SimTime::from_micros(t), seq - 1)
            }));
            prop_assert_eq!(queue.len(), pending.len());
            for &(push, t) in &ops {
                if push {
                    queue.push(SimTime::from_micros(t), seq);
                    pending.push((t, seq));
                    seq += 1;
                } else {
                    let expected = pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &key)| key)
                        .map(|(i, _)| i)
                        .map(|i| pending.remove(i))
                        .map(|(t, s)| (SimTime::from_micros(t), s));
                    prop_assert_eq!(queue.pop(), expected);
                }
                prop_assert_eq!(queue.peek_time(), pending.iter().min().map(|&(t, _)| SimTime::from_micros(t)));
            }
            pending.sort_unstable();
            let drained: Vec<(SimTime, u64)> = std::iter::from_fn(|| queue.pop()).collect();
            let model: Vec<(SimTime, u64)> = pending
                .into_iter()
                .map(|(t, s)| (SimTime::from_micros(t), s))
                .collect();
            prop_assert_eq!(drained, model);
        }
    }
}
