//! The agent's final-values table: one learned window per destination
//! key, with history state and TTL bookkeeping.

use std::collections::BTreeMap;

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::{SimDuration, SimTime};

use crate::history::HistoryState;
use crate::policy::{Policy, PolicyInput};

/// One destination's learned state.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalEntry {
    /// The clamped window currently installed for this destination.
    pub window: u32,
    /// History accumulator feeding the next blend.
    pub history: HistoryState,
    /// The most recent *fresh* (pre-blend) combined value — what the
    /// trend policy differentiates.
    pub last_fresh: f64,
    /// When the entry was last refreshed by an observation.
    pub last_updated: SimTime,
}

/// The per-destination table of Algorithm 1's "final window values".
///
/// Keys are routing prefixes (the configured granularity applied to
/// destination addresses). Iteration order is deterministic (BTreeMap),
/// so route updates replay identically across runs.
///
/// A table may be *capacity-bounded* ([`FinalTable::bounded`]): when an
/// update would grow it past its capacity, the least-recently-updated
/// entries are evicted first (ties broken by key order, so eviction is
/// deterministic). This bounds kernel route-table growth when the agent
/// faces millions of distinct destinations.
///
/// # Examples
///
/// ```
/// use riptide::table::FinalTable;
/// use riptide::history::HistoryStrategy;
/// use riptide_simnet::time::{SimDuration, SimTime};
///
/// let strategy = HistoryStrategy::Ewma { alpha: 0.5 };
/// let mut t = FinalTable::new();
/// let key = "10.0.0.127".parse()?;
///
/// // Blend an observation, then commit the clamped window.
/// let blended = t.blend(key, 80.0, &strategy, SimTime::from_secs(1));
/// t.set_window(&key, blended.round() as u32);
/// assert_eq!(t.window(&key), Some(80));
///
/// // Entries expire once unrefreshed for longer than the TTL.
/// let dead = t.expire(SimTime::from_secs(200), SimDuration::from_secs(90));
/// assert_eq!(dead, vec![key]);
/// assert!(t.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FinalTable {
    entries: BTreeMap<Ipv4Prefix, FinalEntry>,
    capacity: Option<usize>,
    /// A lower bound on every entry's `last_updated`. Every stamp write
    /// lowers it and every expiry scan recomputes it exactly; removals
    /// only raise the true minimum, so it stays a valid bound through
    /// evictions. [`FinalTable::expire`] skips its scan while no entry
    /// can be older than the TTL.
    oldest: SimTime,
}

/// An observation's effect on one entry, from [`FinalTable::observe`].
#[derive(Debug)]
pub struct Observed<'a> {
    /// The blended pre-clamp value.
    pub blended: f64,
    /// The entry's fresh value before this observation (`None` for a
    /// new entry) — what the trend policy differentiates against.
    pub previous_fresh: Option<f64>,
    /// The entry's window, for the caller to commit the clamped value
    /// into without a second lookup.
    pub window: &'a mut u32,
}

impl FinalTable {
    /// Creates an empty, unbounded table.
    pub fn new() -> Self {
        FinalTable::default()
    }

    /// Creates an empty table holding at most `capacity` destinations.
    pub fn bounded(capacity: usize) -> Self {
        FinalTable {
            entries: BTreeMap::new(),
            capacity: Some(capacity),
            oldest: SimTime::ZERO,
        }
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Evicts least-recently-updated entries (ties broken by key order)
    /// until the table fits its capacity, returning the evicted keys in
    /// eviction order. A no-op on unbounded tables.
    ///
    /// Cost is `O(n + k log k)` for `k` evictions (one scan plus a
    /// partial sort of the victims), not `O(n·k)` — the property the
    /// `megacdn` bench gates at a million entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use riptide::table::FinalTable;
    /// use riptide::history::HistoryStrategy;
    /// use riptide_simnet::time::SimTime;
    ///
    /// let strategy = HistoryStrategy::None;
    /// let mut t = FinalTable::bounded(2);
    /// for (n, at) in [(1u8, 10u64), (2, 20), (3, 30)] {
    ///     let key = format!("10.0.0.{n}").parse()?;
    ///     t.blend(key, 40.0, &strategy, SimTime::from_secs(at));
    /// }
    /// // Oldest entry out first.
    /// assert_eq!(t.enforce_capacity(), vec!["10.0.0.1".parse()?]);
    /// assert_eq!(t.len(), 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn enforce_capacity(&mut self) -> Vec<Ipv4Prefix> {
        self.enforce_capacity_grouped(|_| None)
    }

    /// Capacity enforcement with aggregation-aware accounting: entries
    /// mapped to the same group by `group_of` are charged as **one**
    /// unit against the capacity (an aggregated `/24` covering 200
    /// learned `/32`s occupies one route, so it costs one slot), and are
    /// evicted together. A group's recency is its *newest* member's
    /// `last_updated` (the covering route is live as long as any member
    /// is); ungrouped entries (`group_of` returns `None`) behave exactly
    /// as in [`FinalTable::enforce_capacity`]. Victim order is
    /// deterministic: ascending `(last_updated, unit key)`, members in
    /// key order within a group.
    ///
    /// `group_of` is called once per entry, in key order. It must return
    /// `None` (the key is its own unit) or a prefix covering the key,
    /// such that the keys of one unit are contiguous in key order — as
    /// they are when every key longer than a fixed aggregate length
    /// inside a covering maps to that covering. [`Ipv4Prefix`] orders by
    /// `(bits, len)`, so a covering's members then form one run, which
    /// only the covering key itself can join (it sorts first). Units
    /// therefore strictly ascend across runs; debug builds assert it.
    ///
    /// Cost: one run-length scan into one `Vec` of `(newest, first key,
    /// members)` records, one per unit, and no map; then `O(units + k
    /// log k)` to select and order `k` victim units — `O(n + k log k)`
    /// overall, the property the `megacdn` bench gates at a million
    /// entries.
    pub fn enforce_capacity_grouped(
        &mut self,
        mut group_of: impl FnMut(&Ipv4Prefix) -> Option<Ipv4Prefix>,
    ) -> Vec<Ipv4Prefix> {
        let Some(cap) = self.capacity else {
            return Vec::new();
        };
        if self.entries.len() <= cap {
            return Vec::new();
        }
        // `(newest stamp, first key, members)` per unit. Units ascend
        // with their runs, so first keys order them as unit keys would.
        // Sized once: a restart's first pass, before any aggregate
        // re-forms, charges every entry as its own unit, and a growing
        // `Vec` would hold its old and new buffers at once at that peak.
        let mut units: Vec<(SimTime, Ipv4Prefix, u32)> = Vec::with_capacity(self.entries.len());
        let mut unit = None;
        for (k, e) in &self.entries {
            let this = group_of(k).unwrap_or(*k);
            match units.last_mut() {
                Some((newest, _, members)) if unit == Some(this) => {
                    *newest = (*newest).max(e.last_updated);
                    *members += 1;
                }
                _ => {
                    debug_assert!(
                        unit.is_none_or(|u| u < this),
                        "group_of split unit {this} into non-contiguous runs"
                    );
                    unit = Some(this);
                    units.push((e.last_updated, *k, 1));
                }
            }
        }
        if units.len() <= cap {
            return Vec::new();
        }
        // Only the `excess` oldest units need a total order: select,
        // then sort just that head. First keys are unique, so the order
        // never looks past them.
        let excess = units.len() - cap;
        if excess < units.len() {
            units.select_nth_unstable(excess - 1);
        }
        units.truncate(excess);
        units.sort_unstable();
        let mut evicted = Vec::new();
        for (_, first, members) in units {
            let from = evicted.len();
            evicted.extend(
                self.entries
                    .range(first..)
                    .take(members as usize)
                    .map(|(k, _)| *k),
            );
            for k in &evicted[from..] {
                self.entries.remove(k);
            }
        }
        evicted
    }

    /// Number of live destinations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occupancy as a fraction of capacity, in `[0, 1]` (`None` for
    /// unbounded tables) — telemetry's view of eviction pressure.
    pub fn utilization(&self) -> Option<f64> {
        self.capacity
            .map(|cap| self.entries.len() as f64 / cap.max(1) as f64)
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &Ipv4Prefix) -> Option<&FinalEntry> {
        self.entries.get(key)
    }

    /// The installed window for `key`, if present.
    pub fn window(&self, key: &Ipv4Prefix) -> Option<u32> {
        self.entries.get(key).map(|e| e.window)
    }

    /// Records the final clamped window for `key` after blending (the
    /// clamp depends on the blended value, so it commits separately).
    pub fn set_window(&mut self, key: &Ipv4Prefix, window: u32) {
        if let Some(e) = self.entries.get_mut(key) {
            e.window = window;
        }
    }

    /// Blends `fresh` through the history for `key` without committing a
    /// window yet, creating the entry if needed.
    pub fn blend<P: Policy + ?Sized>(
        &mut self,
        key: Ipv4Prefix,
        fresh: f64,
        policy: &P,
        now: SimTime,
    ) -> f64 {
        self.observe(key, &PolicyInput::fresh_only(fresh), policy, now)
            .blended
    }

    /// Feeds a full observation group (fresh value plus loss counters)
    /// through the policy for `key`, creating the entry if needed — the
    /// loss-aware generalisation of [`FinalTable::blend`]. One lookup
    /// serves the whole update: the result carries the previous fresh
    /// value and the entry's window slot for the clamped commit.
    pub fn observe<P: Policy + ?Sized>(
        &mut self,
        key: Ipv4Prefix,
        input: &PolicyInput,
        policy: &P,
        now: SimTime,
    ) -> Observed<'_> {
        self.oldest = self.oldest.min(now);
        let mut previous_fresh = None;
        let entry = self
            .entries
            .entry(key)
            .and_modify(|e| previous_fresh = Some(e.last_fresh))
            .or_insert_with(|| FinalEntry {
                window: 0,
                history: policy.new_state(),
                last_fresh: input.fresh,
                last_updated: now,
            });
        entry.last_updated = now;
        let blended = policy.observe(&mut entry.history, input);
        entry.last_fresh = input.fresh;
        Observed {
            blended,
            previous_fresh,
            window: &mut entry.window,
        }
    }

    /// Removes and returns every key whose entry is older than `ttl` at
    /// `now` — Algorithm 1's expiry step.
    ///
    /// Cost: `O(1)` while the table's lower bound on `last_updated`
    /// shows no entry can be stale, which is most ticks; otherwise one
    /// scan, which also recomputes that bound exactly.
    pub fn expire(&mut self, now: SimTime, ttl: SimDuration) -> Vec<Ipv4Prefix> {
        if now.saturating_since(self.oldest) <= ttl {
            return Vec::new();
        }
        let mut dead = Vec::new();
        let mut oldest = SimTime::MAX;
        for (k, e) in &self.entries {
            if now.saturating_since(e.last_updated) > ttl {
                dead.push(*k);
            } else {
                oldest = oldest.min(e.last_updated);
            }
        }
        for k in &dead {
            self.entries.remove(k);
        }
        self.oldest = oldest;
        dead
    }

    /// Iterates live entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, &FinalEntry)> {
        self.entries.iter()
    }

    /// Inserts a fully-formed entry, replacing any existing one — the
    /// warm-restart seam: `persist`/gossip restore rebuilds the table
    /// from decoded [`FinalEntry`] values (including their original
    /// `last_updated` stamps, so TTL keeps running across a restart)
    /// instead of re-learning through [`FinalTable::blend`].
    ///
    /// Callers are responsible for validating the entry first (the
    /// agent's restore clamps windows and re-seeds mismatched history
    /// variants); the table itself stores what it is given.
    pub fn restore_entry(&mut self, key: Ipv4Prefix, entry: FinalEntry) {
        self.oldest = self.oldest.min(entry.last_updated);
        self.entries.insert(key, entry);
    }
}

/// The map-of-`Vec`s capacity pass the run-length scan replaced, kept
/// as the reference model its property tests compare against.
#[cfg(test)]
impl FinalTable {
    pub(crate) fn enforce_capacity_grouped_reference(
        &mut self,
        group_of: impl Fn(&Ipv4Prefix) -> Option<Ipv4Prefix>,
    ) -> Vec<Ipv4Prefix> {
        let Some(cap) = self.capacity else {
            return Vec::new();
        };
        if self.entries.len() <= cap {
            return Vec::new();
        }
        // One charged unit per group (or per ungrouped key), stamped
        // with the newest member update. BTreeMap order makes member
        // lists key-ordered.
        let mut units: BTreeMap<Ipv4Prefix, (SimTime, Vec<Ipv4Prefix>)> = BTreeMap::new();
        for (k, e) in &self.entries {
            let unit = group_of(k).unwrap_or(*k);
            let slot = units
                .entry(unit)
                .or_insert_with(|| (e.last_updated, Vec::new()));
            slot.0 = slot.0.max(e.last_updated);
            slot.1.push(*k);
        }
        if units.len() <= cap {
            return Vec::new();
        }
        let excess = units.len() - cap;
        let mut order: Vec<(SimTime, Ipv4Prefix)> =
            units.iter().map(|(u, (at, _))| (*at, *u)).collect();
        // Only the `excess` oldest units need a total order: select,
        // then sort just that head.
        if excess < order.len() {
            order.select_nth_unstable(excess - 1);
        }
        order.truncate(excess);
        order.sort_unstable();
        let mut evicted = Vec::new();
        for (_, unit) in order {
            for k in &units[&unit].1 {
                self.entries.remove(k);
                evicted.push(*k);
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryStrategy;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n))
    }

    #[test]
    fn blend_then_set_window_round_trip() {
        let strategy = HistoryStrategy::Ewma { alpha: 0.5 };
        let mut t = FinalTable::new();
        let b = t.blend(key(1), 60.0, &strategy, SimTime::from_secs(1));
        assert_eq!(b, 60.0);
        t.set_window(&key(1), 60);
        assert_eq!(t.window(&key(1)), Some(60));
        // Second observation blends 50/50.
        let b = t.blend(key(1), 100.0, &strategy, SimTime::from_secs(2));
        assert_eq!(b, 80.0);
    }

    #[test]
    fn expire_removes_stale_entries_only() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::new();
        t.blend(key(1), 50.0, &strategy, SimTime::from_secs(0));
        t.blend(key(2), 50.0, &strategy, SimTime::from_secs(80));
        let dead = t.expire(SimTime::from_secs(85), SimDuration::from_secs(90));
        assert!(dead.is_empty(), "nothing older than 90s yet");
        let dead = t.expire(SimTime::from_secs(95), SimDuration::from_secs(90));
        assert_eq!(dead, vec![key(1)]);
        assert_eq!(t.len(), 1);
        assert!(t.get(&key(2)).is_some());
    }

    #[test]
    fn restored_old_stamp_expires_on_time() {
        // The scan at t=95 tightens the age bound to t=40; a restore then
        // brings back an entry stamped t=10, older than that bound.
        let strategy = HistoryStrategy::None;
        let ttl = SimDuration::from_secs(90);
        let mut t = FinalTable::new();
        t.blend(key(1), 50.0, &strategy, SimTime::from_secs(40));
        assert!(t.expire(SimTime::from_secs(95), ttl).is_empty());
        let mut old = t.get(&key(1)).expect("learned").clone();
        old.last_updated = SimTime::from_secs(10);
        t.restore_entry(key(2), old);
        assert!(t.expire(SimTime::from_secs(100), ttl).is_empty());
        assert_eq!(t.expire(SimTime::from_secs(101), ttl), vec![key(2)]);
        assert_eq!(t.expire(SimTime::from_secs(131), ttl), vec![key(1)]);
        assert!(t.is_empty());
    }

    #[test]
    fn eviction_keeps_the_age_bound_valid() {
        // Evicting the oldest entry raises the true minimum stamp; the
        // remaining entries must still expire exactly on time.
        let strategy = HistoryStrategy::None;
        let ttl = SimDuration::from_secs(90);
        let mut t = FinalTable::bounded(2);
        for (n, at) in [(1u8, 10u64), (2, 20), (3, 30)] {
            t.blend(key(n), 1.0, &strategy, SimTime::from_secs(at));
        }
        assert_eq!(t.enforce_capacity(), vec![key(1)]);
        assert!(t.expire(SimTime::from_secs(110), ttl).is_empty());
        assert_eq!(t.expire(SimTime::from_secs(111), ttl), vec![key(2)]);
        t.blend(key(4), 1.0, &strategy, SimTime::from_secs(25));
        assert_eq!(t.enforce_capacity(), Vec::<Ipv4Prefix>::new());
        assert_eq!(t.expire(SimTime::from_secs(116), ttl), vec![key(4)]);
        assert_eq!(t.expire(SimTime::from_secs(121), ttl), vec![key(3)]);
    }

    #[test]
    fn expire_on_an_empty_table_returns_nothing() {
        let mut t = FinalTable::new();
        assert!(t.expire(SimTime::MAX, SimDuration::ZERO).is_empty());
        assert!(t.expire(SimTime::ZERO, SimDuration::ZERO).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn refresh_resets_ttl() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::new();
        t.blend(key(1), 50.0, &strategy, SimTime::from_secs(0));
        t.blend(key(1), 55.0, &strategy, SimTime::from_secs(60));
        let dead = t.expire(SimTime::from_secs(100), SimDuration::from_secs(90));
        assert!(dead.is_empty(), "refresh at t=60 keeps it alive at t=100");
    }

    #[test]
    fn bounded_table_evicts_lru_deterministically() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::bounded(2);
        assert_eq!(t.capacity(), Some(2));
        t.blend(key(1), 50.0, &strategy, SimTime::from_secs(10));
        t.blend(key(2), 50.0, &strategy, SimTime::from_secs(20));
        t.blend(key(3), 50.0, &strategy, SimTime::from_secs(30));
        let evicted = t.enforce_capacity();
        assert_eq!(evicted, vec![key(1)], "oldest entry goes first");
        assert_eq!(t.len(), 2);
        // Refreshing key(2) makes key(3) the LRU victim.
        t.blend(key(2), 55.0, &strategy, SimTime::from_secs(40));
        t.blend(key(4), 50.0, &strategy, SimTime::from_secs(50));
        assert_eq!(t.enforce_capacity(), vec![key(3)]);
        assert!(t.get(&key(2)).is_some() && t.get(&key(4)).is_some());
    }

    #[test]
    fn bounded_table_ties_break_by_key_order() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::bounded(1);
        // Same timestamp: the lowest key is evicted first.
        t.blend(key(9), 1.0, &strategy, SimTime::from_secs(5));
        t.blend(key(3), 1.0, &strategy, SimTime::from_secs(5));
        t.blend(key(6), 1.0, &strategy, SimTime::from_secs(5));
        assert_eq!(t.enforce_capacity(), vec![key(3), key(6)]);
        assert!(t.get(&key(9)).is_some());
    }

    #[test]
    fn grouped_capacity_charges_an_aggregate_as_one_entry() {
        // Regression: an aggregated prefix covering N learned /32s must
        // count as ONE entry against the capacity, not N. Here 6 learned
        // hosts collapse into 2 aggregate units + 1 loner = 3 charged
        // units, which fits a capacity of 3 even though len() is 7.
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::bounded(3);
        let group = |k: &Ipv4Prefix| (k.len() == 32).then(|| k.covering(24));
        for n in [1u8, 2, 3] {
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n)),
                1.0,
                &strategy,
                SimTime::from_secs(10),
            );
        }
        for n in [1u8, 2, 3] {
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n)),
                1.0,
                &strategy,
                SimTime::from_secs(20),
            );
        }
        t.blend(
            "10.0.9.0/24".parse().unwrap(),
            1.0,
            &strategy,
            SimTime::from_secs(30),
        );
        assert_eq!(t.len(), 7);
        assert!(
            t.enforce_capacity_grouped(group).is_empty(),
            "3 charged units fit capacity 3 despite 7 raw entries"
        );
        // Ungrouped accounting would have evicted 4 of the 7.
        assert_eq!(t.clone().enforce_capacity().len(), 4);

        // One more unit (a fourth group) forces the oldest whole group
        // out: all three 10.0.0.x members leave together, oldest first.
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 0, 2, 1)),
            1.0,
            &strategy,
            SimTime::from_secs(40),
        );
        let evicted = t.enforce_capacity_grouped(group);
        assert_eq!(
            evicted,
            vec![
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 1)),
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 2)),
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 3)),
            ]
        );
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn grouped_recency_is_newest_member() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::bounded(1);
        let group = |k: &Ipv4Prefix| (k.len() == 32).then(|| k.covering(24));
        // Group A has an old member and a fresh one; loner B sits in
        // between. The group's recency (t=50) beats B (t=30), so B is
        // the victim even though A contains the globally oldest entry.
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 1)),
            1.0,
            &strategy,
            SimTime::from_secs(10),
        );
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 2)),
            1.0,
            &strategy,
            SimTime::from_secs(50),
        );
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 9, 9, 9)),
            1.0,
            &strategy,
            SimTime::from_secs(30),
        );
        assert_eq!(
            t.enforce_capacity_grouped(group),
            vec![Ipv4Prefix::host(Ipv4Addr::new(10, 9, 9, 9))]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-contiguous runs")]
    fn non_contiguous_grouping_is_caught() {
        // 10.0.0.2 stays its own unit between two members of the /24:
        // the /24's unit would split into two runs.
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::bounded(1);
        for n in 1..=3 {
            t.blend(key(n), 1.0, &strategy, SimTime::ZERO);
        }
        t.enforce_capacity_grouped(|k| (*k != key(2)).then(|| k.covering(24)));
    }

    #[test]
    fn sorted_eviction_matches_repeated_min_scan() {
        // The single-sort eviction must reproduce the historical
        // one-victim-at-a-time order exactly.
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::bounded(3);
        let stamps = [7u64, 3, 3, 9, 1, 5, 3, 8];
        for (i, at) in stamps.iter().enumerate() {
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, (100 - i) as u8)),
                1.0,
                &strategy,
                SimTime::from_secs(*at),
            );
        }
        let mut reference = t.clone();
        let mut want = Vec::new();
        while reference.len() > 3 {
            let victim = reference
                .iter()
                .min_by_key(|(k, e)| (e.last_updated, **k))
                .map(|(k, _)| *k)
                .unwrap();
            reference.entries.remove(&victim);
            want.push(victim);
        }
        assert_eq!(t.enforce_capacity(), want);
    }

    #[test]
    fn utilization_reports_eviction_pressure() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::bounded(4);
        assert_eq!(t.utilization(), Some(0.0));
        t.blend(key(1), 1.0, &strategy, SimTime::ZERO);
        t.blend(key(2), 1.0, &strategy, SimTime::ZERO);
        assert_eq!(t.utilization(), Some(0.5));
        assert_eq!(FinalTable::new().utilization(), None, "unbounded");
    }

    #[test]
    fn unbounded_table_never_evicts() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::new();
        for n in 0..=255u8 {
            t.blend(key(n), 1.0, &strategy, SimTime::ZERO);
        }
        assert!(t.enforce_capacity().is_empty());
        assert_eq!(t.len(), 256);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::new();
        t.blend(key(9), 1.0, &strategy, SimTime::ZERO);
        t.blend(key(1), 1.0, &strategy, SimTime::ZERO);
        t.blend(key(5), 1.0, &strategy, SimTime::ZERO);
        let keys: Vec<_> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![key(1), key(5), key(9)]);
    }
}
