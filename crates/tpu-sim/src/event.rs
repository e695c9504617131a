//! A minimal discrete-event simulation engine.
//!
//! Used by the eval-loop models (§3.3) to simulate the interleaving of
//! training epochs, checkpoint writes, and evaluation jobs. Events carry a
//! payload `E`; handlers pop the earliest event, mutate state, and push
//! follow-ups. Ties break by insertion order, so runs are deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a simulated time.
struct Scheduled<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The event queue / clock.
pub struct EventSim<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: f64,
    seq: u64,
    processed: u64,
}

impl<E> EventSim<E> {
    /// An empty simulation at time 0.
    pub fn new() -> Self {
        EventSim {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `payload` at absolute time `at` (must not be in the past).
    pub fn schedule_at(&mut self, at: f64, payload: E) {
        assert!(
            at >= self.now - 1e-12,
            "cannot schedule in the past: {at} < {}",
            self.now
        );
        self.heap.push(Scheduled {
            time: at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedules `payload` `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, payload: E) {
        assert!(delay >= 0.0, "negative delay");
        let at = self.now + delay;
        self.schedule_at(at, payload);
    }

    /// Pops the earliest event, advancing the clock. `None` when drained.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<E> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        self.processed += 1;
        Some(ev.payload)
    }
}

impl<E> Default for EventSim<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = EventSim::new();
        sim.schedule_at(3.0, "c");
        sim.schedule_at(1.0, "a");
        sim.schedule_at(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| sim.next()).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(sim.now(), 3.0);
        assert_eq!(sim.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut sim = EventSim::new();
        sim.schedule_at(1.0, 1);
        sim.schedule_at(1.0, 2);
        sim.schedule_at(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| sim.next()).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn relative_scheduling_uses_current_clock() {
        let mut sim = EventSim::new();
        sim.schedule_at(5.0, "first");
        assert_eq!(sim.next(), Some("first"));
        sim.schedule_in(2.0, "second");
        assert_eq!(sim.next(), Some("second"));
        assert_eq!(sim.now(), 7.0);
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut sim = EventSim::new();
        sim.schedule_at(5.0, ());
        let _ = sim.next();
        sim.schedule_at(1.0, ());
    }

    #[test]
    fn cascading_events() {
        // A chain of events each scheduling the next models a train loop.
        let mut sim = EventSim::new();
        sim.schedule_at(0.0, 0u32);
        let mut last = 0;
        while let Some(k) = sim.next() {
            last = k;
            if k < 10 {
                sim.schedule_in(1.5, k + 1);
            }
        }
        assert_eq!(last, 10);
        assert!((sim.now() - 15.0).abs() < 1e-9);
    }
}
