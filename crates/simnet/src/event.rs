//! Deterministic discrete-event queue.
//!
//! Events pop in `(SimTime, sequence)` order: two events scheduled for the
//! same instant pop in the order they were scheduled, so a simulation run
//! is a pure function of its inputs and RNG seed — never of hash-map
//! iteration order or heap tie-breaking accidents.
//!
//! # Layout
//!
//! The queue holds two kinds of event:
//!
//! * **Packets** ride a *lane*, one per simulated path. A path never
//!   delivers before a packet it admitted earlier (its FIFO clamp), and
//!   it schedules each arrival as it admits it, so every lane receives
//!   non-decreasing instants with growing sequence numbers: it is already
//!   sorted. Lanes are singly linked lists threaded through one shared
//!   node arena whose freed nodes are recycled through a free list, so
//!   the arena stays bounded by the peak number of packets in flight.
//!   Scheduling onto a busy lane is a tail append; no heap work.
//! * **Timers** are small `Copy` payloads stored inline in a heap entry.
//!
//! A 4-ary min-heap holds every timer plus one entry per non-empty lane,
//! keyed by that lane's head. Popping a lane head advances the lane and
//! re-keys the root with one sift-down. The heap thus performs a k-way
//! merge of sorted lanes and timers by `(at, seq)`, which is exactly the
//! order a single global heap over every event would produce.
//!
//! [`EventQueue::schedule_lane`] asserts the lane invariant; a caller
//! that breaks it panics rather than silently reordering events.

use crate::time::SimTime;

/// Link terminator and empty-lane marker in the node arena.
const NIL: u32 = u32::MAX;

/// Children per heap node.
const ARITY: usize = 4;

/// What a heap entry fires: the head of a lane, or an inline timer.
#[derive(Debug, Clone, Copy)]
enum Item<T> {
    Lane(u32),
    Timer(T),
}

/// A heap entry, ordered by `(at, seq)`.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: Item<T>,
}

impl<T> Entry<T> {
    /// `(at, seq)` packed into one integer, so a comparison is
    /// branch-free.
    fn key(&self) -> u128 {
        (self.at.as_nanos() as u128) << 64 | self.seq as u128
    }
}

/// A lane packet in the shared arena; `payload` is `None` on free nodes,
/// whose `next` links the free list.
#[derive(Debug, Clone)]
struct Node<P> {
    at: SimTime,
    seq: u64,
    next: u32,
    payload: Option<P>,
}

/// First and last arena node of a lane, `NIL` when the lane is empty.
#[derive(Debug, Clone, Copy)]
struct Lane {
    head: u32,
    tail: u32,
}

impl Lane {
    const EMPTY: Lane = Lane {
        head: NIL,
        tail: NIL,
    };
}

/// An event popped from an [`EventQueue`].
#[derive(Debug, PartialEq, Eq)]
pub enum Fired<P, T> {
    /// The head packet of a lane.
    Packet(P),
    /// A timer.
    Timer(T),
}

/// A deterministic future-event list of lane packets `P` and timers `T`.
///
/// # Examples
///
/// ```
/// use riptide_simnet::event::{EventQueue, Fired};
/// use riptide_simnet::time::SimTime;
///
/// let mut q: EventQueue<&str, u32> = EventQueue::new();
/// q.schedule_lane(0, SimTime::from_millis(5), "packet");
/// q.schedule_timer(SimTime::from_millis(1), 7);
/// q.schedule_lane(0, SimTime::from_millis(5), "tied packet");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), Fired::Timer(7))));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), Fired::Packet("packet"))));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), Fired::Packet("tied packet"))));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<P, T> {
    /// 4-ary min-heap: every timer plus one entry per non-empty lane.
    heap: Vec<Entry<T>>,
    lanes: Vec<Lane>,
    /// Shared node arena of every lane.
    nodes: Vec<Node<P>>,
    /// Head of the free-node list.
    free: u32,
    len: usize,
    /// Sequence number of the next scheduled event, which is also the
    /// number of events ever scheduled.
    next_seq: u64,
}

impl<P, T: Copy> Default for EventQueue<P, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P, T: Copy> EventQueue<P, T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            lanes: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at` on `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last instant still pending on
    /// `lane`: a lane is FIFO.
    pub fn schedule_lane(&mut self, lane: usize, at: SimTime, payload: P) {
        let seq = self.stamp();
        let node = self.alloc(Node {
            at,
            seq,
            next: NIL,
            payload: Some(payload),
        });
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, Lane::EMPTY);
        }
        let l = &mut self.lanes[lane];
        if l.tail == NIL {
            *l = Lane {
                head: node,
                tail: node,
            };
            let lane = u32::try_from(lane).expect("lane index fits u32");
            self.push(Entry {
                at,
                seq,
                item: Item::Lane(lane),
            });
        } else {
            let tail = &mut self.nodes[l.tail as usize];
            assert!(
                tail.at <= at,
                "lane {lane} is not FIFO: {at} scheduled behind {}",
                tail.at
            );
            tail.next = node;
            l.tail = node;
        }
    }

    /// Schedules `timer` to fire at `at`.
    pub fn schedule_timer(&mut self, at: SimTime, timer: T) {
        let seq = self.stamp();
        self.push(Entry {
            at,
            seq,
            item: Item::Timer(timer),
        });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Fired<P, T>)> {
        let root = *self.heap.first()?;
        self.len -= 1;
        match root.item {
            Item::Timer(timer) => {
                self.remove_root();
                Some((root.at, Fired::Timer(timer)))
            }
            Item::Lane(lane) => {
                let l = &mut self.lanes[lane as usize];
                let i = l.head;
                let node = &mut self.nodes[i as usize];
                let payload = node.payload.take().expect("lane node holds a payload");
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = i;
                if next == NIL {
                    *l = Lane::EMPTY;
                    self.remove_root();
                } else {
                    l.head = next;
                    let head = &self.nodes[next as usize];
                    self.heap[0].at = head.at;
                    self.heap[0].seq = head.seq;
                    self.sift_down_root();
                }
                Some((root.at, Fired::Packet(payload)))
            }
        }
    }

    /// The instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for throughput accounting).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Takes the next sequence number for a newly scheduled event.
    fn stamp(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        seq
    }

    fn alloc(&mut self, node: Node<P>) -> u32 {
        if self.free == NIL {
            let i = u32::try_from(self.nodes.len()).expect("event arena full");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        }
    }

    fn push(&mut self, entry: Entry<T>) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Places `entry` at the hole `i` or above it.
    fn sift_up(&mut self, mut i: usize, entry: Entry<T>) {
        let key = entry.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() < key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// The least child of `i`, if `i` has children.
    fn least_child(&self, i: usize) -> Option<usize> {
        let first = ARITY * i + 1;
        let kids = self.heap.get(first..)?.iter().take(ARITY);
        let (best, _) = kids.enumerate().min_by_key(|(_, e)| e.key())?;
        Some(first + best)
    }

    /// Removes the root: walks the hole down along least children to a
    /// leaf, then sifts the last entry up into it. The last entry is
    /// usually a late timer that belongs near the bottom, so this saves
    /// a comparison per level over a plain sift-down.
    fn remove_root(&mut self) {
        let last = self.heap.pop().expect("heap has a root");
        if self.heap.is_empty() {
            return;
        }
        let mut hole = 0;
        while let Some(c) = self.least_child(hole) {
            self.heap[hole] = self.heap[c];
            hole = c;
        }
        self.sift_up(hole, last);
    }

    /// Restores the heap after the root's key grew.
    fn sift_down_root(&mut self) {
        let mut i = 0;
        let entry = self.heap[i];
        let key = entry.key();
        while let Some(c) = self.least_child(i) {
            if self.heap[c].key() > key {
                break;
            }
            self.heap[i] = self.heap[c];
            i = c;
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::time::SimDuration;

    type Queue = EventQueue<u64, u64>;

    /// The payload value of a fired event, whichever kind it is.
    fn value(f: Fired<u64, u64>) -> u64 {
        match f {
            Fired::Packet(v) | Fired::Timer(v) => v,
        }
    }

    fn drain(q: &mut Queue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop().map(|(_, f)| value(f))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = Queue::new();
        q.schedule_timer(SimTime::from_millis(30), 3);
        q.schedule_lane(0, SimTime::from_millis(10), 1);
        q.schedule_lane(1, SimTime::from_millis(20), 2);
        q.schedule_lane(0, SimTime::from_millis(40), 4);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        // One instant shared by three lanes and the timer stream.
        let mut q = Queue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            match i % 4 {
                3 => q.schedule_timer(t, i),
                lane => q.schedule_lane(lane as usize, t, i),
            }
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = Queue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_timer(SimTime::from_secs(1), 0);
        q.schedule_lane(0, SimTime::from_millis(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), Fired::Packet(1))));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn len_and_totals_track() {
        let mut q = Queue::new();
        assert!(q.is_empty());
        q.schedule_timer(SimTime::ZERO, 0);
        q.schedule_lane(0, SimTime::ZERO, 1);
        q.schedule_lane(0, SimTime::ZERO, 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.scheduled_total(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn arena_nodes_are_recycled_after_pop() {
        // Interleaved schedule/pop must not grow the arena past the
        // high-water mark of concurrently pending lane packets.
        let mut q = Queue::new();
        for round in 0..1000u64 {
            let t = SimTime::from_millis(round);
            q.schedule_lane((round % 3) as usize, t, round);
            q.schedule_lane(3, t, round + 1);
            q.schedule_timer(t, round + 2);
            assert_eq!(q.pop().map(|(_, f)| value(f)), Some(round));
            q.pop().unwrap();
            q.pop().unwrap();
        }
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 3000);
        assert!(
            q.nodes.len() <= 2,
            "arena bounded by peak pending packets, got {}",
            q.nodes.len()
        );
    }

    #[test]
    fn clone_preserves_pending_order() {
        let mut q = Queue::new();
        for i in 0..50 {
            q.schedule_lane((i % 5) as usize, SimTime::from_millis(i), i);
            q.schedule_timer(SimTime::from_millis(100 - i), 100 + i);
        }
        let mut c = q.clone();
        assert_eq!(drain(&mut q), drain(&mut c));
    }

    #[test]
    #[should_panic(expected = "is not FIFO")]
    fn lane_rejects_an_earlier_arrival() {
        let mut q = Queue::new();
        q.schedule_lane(2, SimTime::from_millis(10), 0);
        q.schedule_lane(2, SimTime::from_millis(9), 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Small steps, zero most often, so instants tie across lanes
        /// and timers.
        fn step(rng: &mut DetRng) -> SimDuration {
            SimDuration::from_nanos([0, 0, 0, 1, 2, 5, 40][rng.below(7)])
        }

        // Against a reference model — every pending event in a `Vec`,
        // popped by least `(at, schedule order)` — the queue pops the
        // same events in the same order, for random interleavings of
        // monotone lane pushes, timer pushes and `run_until`-style
        // drains up to a deadline.
        proptest! {
            #[test]
            fn pop_order_matches_a_sorted_reference(
                seed in any::<u64>(),
                lanes in 1usize..8,
                steps in 1usize..600,
            ) {
                let mut rng = DetRng::from_seed(seed);
                let mut q = Queue::new();
                let mut model: Vec<(SimTime, u64)> = Vec::new();
                let mut lane_last = vec![SimTime::ZERO; lanes];
                let mut now = SimTime::ZERO;
                for id in 0..steps as u64 {
                    match rng.below(10) {
                        0..=5 => {
                            let lane = rng.below(lanes);
                            let at = lane_last[lane].max(now) + step(&mut rng);
                            lane_last[lane] = at;
                            q.schedule_lane(lane, at, id);
                            model.push((at, id));
                        }
                        6..=7 => {
                            let at = now + step(&mut rng) + step(&mut rng);
                            q.schedule_timer(at, id);
                            model.push((at, id));
                        }
                        _ => {
                            let deadline = now + step(&mut rng) + step(&mut rng);
                            while let Some(t) = q.peek_time() {
                                if t > deadline {
                                    break;
                                }
                                let (at, f) = q.pop().expect("peeked");
                                let next = (0..model.len())
                                    .min_by_key(|&k| model[k])
                                    .expect("model holds the popped event");
                                prop_assert_eq!((at, value(f)), model.remove(next));
                            }
                            prop_assert!(model.iter().all(|&(at, _)| at > deadline));
                            now = deadline;
                        }
                    }
                    prop_assert_eq!(q.len(), model.len());
                    prop_assert_eq!(q.peek_time(), model.iter().map(|e| e.0).min());
                }
                model.sort();
                let rest: Vec<u64> = model.iter().map(|e| e.1).collect();
                prop_assert_eq!(drain(&mut q), rest);
                prop_assert!(q.is_empty());
            }
        }
    }
}
