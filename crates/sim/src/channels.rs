//! FIFO channel state shared by the executors.
//!
//! Every channel place (and every environment input port place) is backed
//! by a FIFO of data values. The multi-task executor additionally enforces
//! per-channel capacities: a write blocks when it would overflow the
//! buffer, which is what makes small buffers expensive in Figure 20.
//!
//! The state is indexed by [`PlaceId`]: the executors resolve every port
//! name to its place once per run, so a port operation costs one slot
//! access and no lookup.

use qss_flowc::LinkedSystem;
use qss_petri::PlaceId;
use std::collections::VecDeque;

/// FIFO queues for the data carried by channel and port places, one slot
/// per place of the linked net.
#[derive(Debug, Clone, Default)]
pub struct ChannelState {
    queues: Vec<VecDeque<i64>>,
    capacities: Vec<Option<usize>>,
}

impl ChannelState {
    /// Creates the channel state for a linked system. If `capacity` is
    /// given, every inter-process channel gets that capacity (environment
    /// ports are unbounded); declared channel bounds override it.
    pub fn for_system(system: &LinkedSystem, capacity: Option<u32>) -> Self {
        let places = system.net.num_places();
        let mut capacities = vec![None; places];
        for channel in &system.channels {
            capacities[channel.place.index()] = channel.bound.or(capacity).map(|c| c as usize);
        }
        ChannelState {
            queues: vec![VecDeque::new(); places],
            capacities,
        }
    }

    /// Number of queued items at `place`.
    pub fn len(&self, place: PlaceId) -> usize {
        self.queues[place.index()].len()
    }

    /// Returns `true` if no place holds any queued data.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// The configured capacity of `place`, if bounded.
    pub fn capacity(&self, place: PlaceId) -> Option<usize> {
        self.capacities[place.index()]
    }

    /// Returns `true` if `n` more items fit into `place`.
    pub fn can_accept(&self, place: PlaceId, n: usize) -> bool {
        match self.capacity(place) {
            Some(cap) => self.len(place) + n <= cap,
            None => true,
        }
    }

    /// Appends values to the queue of `place`.
    pub fn push(&mut self, place: PlaceId, values: &[i64]) {
        self.queues[place.index()].extend(values.iter().copied());
    }

    /// Appends exactly `n` items to the queue of `place`: the leading
    /// `values`, padded with zeros (an environment event latching a port
    /// of rate `n`).
    pub fn push_padded(&mut self, place: PlaceId, values: &[i64], n: usize) {
        let queue = &mut self.queues[place.index()];
        let given = values.len().min(n);
        queue.extend(values[..given].iter().copied());
        queue.extend(std::iter::repeat_n(0, n - given));
    }

    /// Moves the first `n` values of the queue of `place` into `out`
    /// (replacing its contents). Returns `false`, and moves nothing, if
    /// fewer than `n` values are queued.
    pub fn pop_into(&mut self, place: PlaceId, n: usize, out: &mut Vec<i64>) -> bool {
        let queue = &mut self.queues[place.index()];
        if queue.len() < n {
            return false;
        }
        out.clear();
        out.extend(queue.drain(..n));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(capacities: Vec<Option<usize>>) -> ChannelState {
        ChannelState {
            queues: vec![VecDeque::new(); capacities.len()],
            capacities,
        }
    }

    #[test]
    fn push_pop_and_capacity() {
        let mut state = state(vec![Some(3)]);
        let p = PlaceId::new(0);
        let mut out = Vec::new();
        assert!(state.can_accept(p, 3));
        state.push(p, &[1, 2, 3]);
        assert!(!state.can_accept(p, 1));
        assert_eq!(state.len(p), 3);
        assert!(state.pop_into(p, 2, &mut out));
        assert_eq!(out, vec![1, 2]);
        assert!(!state.pop_into(p, 2, &mut out));
        assert_eq!(out, vec![1, 2]);
        assert!(state.pop_into(p, 1, &mut out));
        assert_eq!(out, vec![3]);
        assert!(state.is_empty());
    }

    #[test]
    fn unbounded_place_accepts_everything() {
        let mut state = state(vec![Some(1), None]);
        let p = PlaceId::new(1);
        assert!(state.can_accept(p, 1_000));
        state.push(p, &[0; 100]);
        assert_eq!(state.len(p), 100);
        assert_eq!(state.capacity(p), None);
    }

    #[test]
    fn padded_push_truncates_or_fills_to_the_rate() {
        let mut state = state(vec![None]);
        let p = PlaceId::new(0);
        let mut out = Vec::new();
        state.push_padded(p, &[7], 3);
        state.push_padded(p, &[1, 2, 3], 2);
        assert!(state.pop_into(p, 5, &mut out));
        assert_eq!(out, vec![7, 0, 0, 1, 2]);
    }
}
