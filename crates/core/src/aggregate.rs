//! Prefix aggregation: coalesce sibling host routes into a covering
//! prefix when their learned windows agree, split on divergence.
//!
//! The paper's prefix granularity (§III-B) decides the key space *up
//! front*; at internet scale that choice is wrong in both directions —
//! `/32` learning keeps per-destination fidelity but installs a route
//! per host, `/24` learning caps the table but averages hosts that may
//! genuinely differ. Aggregation (in the spirit of Pied Piper's
//! cross-connection sharing, see PAPERS.md) gets both: the agent keeps
//! **learning at `/32`**, and after every tick a deterministic pass
//! coalesces sibling hosts into one covering route when — and only as
//! long as — their learned windows agree.
//!
//! Invariants (pinned by tests here and in the agent):
//!
//! * **Never widen past the learned band.** An aggregate's window is
//!   the *minimum* of its members' clamped windows, and members only
//!   merge while `max − min ≤ band`. No destination is ever jump-started
//!   harder than its own learned value, and no member's window is
//!   understated by more than the band.
//! * **One pass restores agreement.** The pass is a pure function of
//!   the learned table: any divergence observed in tick *n* dissolves
//!   the aggregate in tick *n*'s pass, reinstalling members at their
//!   individual windows. There is no hysteresis state to drift.
//! * **Every merge and split is journal-attributed** via
//!   [`DecisionCause::Aggregated`] / [`DecisionCause::Disaggregated`].
//!
//! [`DecisionCause::Aggregated`]: crate::telemetry::DecisionCause::Aggregated
//! [`DecisionCause::Disaggregated`]: crate::telemetry::DecisionCause::Disaggregated
//!
//! # Examples
//!
//! ```
//! use riptide::aggregate::{AggregationPolicy, Aggregator};
//! use riptide::history::HistoryStrategy;
//! use riptide::table::FinalTable;
//! use riptide_simnet::time::SimTime;
//!
//! let mut table = FinalTable::new();
//! let strategy = HistoryStrategy::None;
//! for (host, w) in [("10.0.1.1", 40u32), ("10.0.1.2", 42), ("10.0.1.3", 41)] {
//!     let key = host.parse()?;
//!     table.blend(key, w as f64, &strategy, SimTime::from_secs(1));
//!     table.set_window(&key, w);
//! }
//!
//! let mut agg = Aggregator::new(AggregationPolicy::default());
//! let pass = agg.pass(&table);
//! // The three /32s agree within the band: one /24 at the member minimum.
//! assert_eq!(pass.merged.len(), 1);
//! assert_eq!(pass.merged[0].covering.to_string(), "10.0.1.0/24");
//! assert_eq!(pass.merged[0].window, 40, "never widen past a member");
//!
//! // A diverging member dissolves the aggregate on the next pass.
//! table.set_window(&"10.0.1.2".parse()?, 90);
//! let pass = agg.pass(&table);
//! assert_eq!(pass.split.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;

use riptide_linuxnet::prefix::Ipv4Prefix;

use crate::table::FinalTable;

/// When and how learned host routes coalesce into covering prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationPolicy {
    /// Length of the covering prefix members coalesce into (the paper's
    /// PoP unit: `/24`).
    pub aggregate_len: u8,
    /// Maximum `max − min` spread of member windows, in segments, for
    /// siblings to count as "agreeing". This is the clamp band the
    /// aggregate may understate a member by.
    pub band: u32,
    /// Minimum number of sibling members before a covering route pays
    /// for itself (a one-member aggregate is just a worse host route).
    pub min_siblings: usize,
}

impl Default for AggregationPolicy {
    /// `/24` aggregates, a band of 8 segments, at least 2 siblings.
    fn default() -> Self {
        AggregationPolicy {
            aggregate_len: 24,
            band: 8,
            min_siblings: 2,
        }
    }
}

impl AggregationPolicy {
    /// Checks the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a description if the aggregate length is not strictly
    /// inside `(0, 32)` or `min_siblings < 2`.
    pub fn validate(&self) -> Result<(), String> {
        if self.aggregate_len == 0 || self.aggregate_len >= 32 {
            return Err(format!(
                "aggregate length /{} must be between /1 and /31",
                self.aggregate_len
            ));
        }
        if self.min_siblings < 2 {
            return Err(format!(
                "min_siblings {} must be at least 2 (a 1-member aggregate is never a win)",
                self.min_siblings
            ));
        }
        Ok(())
    }

    /// The covering prefix `key` would aggregate into, if `key` is more
    /// specific than the aggregate length.
    pub fn covering_of(&self, key: &Ipv4Prefix) -> Option<Ipv4Prefix> {
        (key.len() > self.aggregate_len).then(|| key.covering(self.aggregate_len))
    }
}

/// A newly formed (or retuned) aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The covering prefix now representing its members.
    pub covering: Ipv4Prefix,
    /// The aggregate window: the minimum of the member windows.
    pub window: u32,
    /// The member keys, in key order.
    pub members: Vec<Ipv4Prefix>,
    /// `max − min` of the member windows at merge time.
    pub spread: u32,
}

/// A dissolved aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitOutcome {
    /// The covering prefix being withdrawn.
    pub covering: Ipv4Prefix,
    /// The members to reinstall individually, with their current
    /// learned windows, in key order. Empty when the members themselves
    /// expired or were evicted.
    pub members: Vec<(Ipv4Prefix, u32)>,
    /// `max − min` of the member windows at split time (0 when no
    /// members remain).
    pub spread: u32,
}

/// What one aggregation pass decided. The route-level consequences
/// (withdraw members / install covering and vice versa) are applied by
/// the agent so they flow through its controller and journal.
#[derive(Debug, Clone, Default)]
pub struct AggregationPass {
    /// Aggregates formed this pass (members → one covering route).
    pub merged: Vec<MergeOutcome>,
    /// Existing aggregates whose window moved with their members.
    pub retuned: Vec<MergeOutcome>,
    /// Aggregates dissolved this pass (covering route → members).
    pub split: Vec<SplitOutcome>,
}

/// The aggregation/splitting pass. Holds the set of live aggregates;
/// [`Aggregator::pass`] diffs that set against what the learned table
/// currently supports.
#[derive(Debug, Clone)]
pub struct Aggregator {
    policy: AggregationPolicy,
    /// Live aggregates: covering prefix → installed aggregate window.
    aggregates: BTreeMap<Ipv4Prefix, u32>,
}

impl Aggregator {
    /// Creates an aggregator with no live aggregates.
    pub fn new(policy: AggregationPolicy) -> Self {
        Aggregator {
            policy,
            aggregates: BTreeMap::new(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &AggregationPolicy {
        &self.policy
    }

    /// Number of live aggregates.
    pub fn len(&self) -> usize {
        self.aggregates.len()
    }

    /// Whether no aggregates are live.
    pub fn is_empty(&self) -> bool {
        self.aggregates.is_empty()
    }

    /// The covering prefix of a *live* aggregate covering `key`, if any
    /// — the agent skips individual installs for such keys, and the
    /// grouped capacity accounting charges them as one unit.
    pub fn covering_of(&self, key: &Ipv4Prefix) -> Option<Ipv4Prefix> {
        let covering = self.policy.covering_of(key)?;
        self.aggregates.contains_key(&covering).then_some(covering)
    }

    /// [`Aggregator::covering_of`] as the `group_of` of
    /// [`FinalTable::enforce_capacity_grouped`], which calls it in key
    /// order: consecutive keys under one covering prefix share a single
    /// live-aggregate lookup. Its units are contiguous runs, as that
    /// method requires, because every key longer than the aggregate
    /// length maps to its covering prefix.
    pub fn grouping(&self) -> impl FnMut(&Ipv4Prefix) -> Option<Ipv4Prefix> + '_ {
        let mut last: Option<(Ipv4Prefix, bool)> = None;
        move |key| {
            let covering = self.policy.covering_of(key)?;
            let live = match last {
                Some((c, live)) if c == covering => live,
                _ => {
                    let live = self.aggregates.contains_key(&covering);
                    last = Some((covering, live));
                    live
                }
            };
            live.then_some(covering)
        }
    }

    /// The window of the live aggregate at exactly `covering`.
    pub fn window_of(&self, covering: &Ipv4Prefix) -> Option<u32> {
        self.aggregates.get(covering).copied()
    }

    /// Iterates live aggregates in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, u32)> {
        self.aggregates.iter().map(|(k, w)| (k, *w))
    }

    /// Runs one aggregation/splitting pass over the learned table and
    /// updates the live-aggregate set. Deterministic: the outcome is a
    /// pure function of `(policy, live aggregates, table)`, and all
    /// outcome lists are in covering-prefix order.
    ///
    /// Entries with a window of 0 (blended but never committed — e.g.
    /// learned under a `Suspend` advisory) are ignored: there is no
    /// window to aggregate.
    ///
    /// Cost: one run-length scan of the table. [`Ipv4Prefix`] orders by
    /// `(bits, len)`, so the keys a covering prefix groups are one
    /// contiguous run; each run keeps its min and max in one reused
    /// member buffer, and a cursor over the (sorted) live aggregates
    /// walks in step with the runs to find each run's aggregate and the
    /// orphaned ones in between. Member lists are materialised only for
    /// the merged, retuned and split outcomes; live-aggregate updates
    /// cost `O(log a)` per outcome.
    pub fn pass(&mut self, table: &FinalTable) -> AggregationPass {
        let mut pass = AggregationPass::default();
        let orphan = |covering| SplitOutcome {
            covering,
            members: Vec::new(),
            spread: 0,
        };
        let mut live = self.aggregates.iter().peekable();
        let mut eligible = table
            .iter()
            .filter(|(_, e)| e.window != 0)
            .filter_map(|(k, e)| Some((self.policy.covering_of(k)?, *k, e.window)))
            .peekable();
        let mut members: Vec<(Ipv4Prefix, u32)> = Vec::new();
        while let Some((covering, key, window)) = eligible.next() {
            members.clear();
            members.push((key, window));
            let (mut min, mut max) = (window, window);
            while let Some((_, key, window)) = eligible.next_if(|(c, _, _)| *c == covering) {
                members.push((key, window));
                min = min.min(window);
                max = max.max(window);
            }
            // Aggregates sorting before this run saw no members: their
            // members all expired or were evicted, so they dissolve with
            // nothing to reinstall.
            while let Some((&c, _)) = live.next_if(|(c, _)| **c < covering) {
                pass.split.push(orphan(c));
            }
            let current = live.next_if(|(c, _)| **c == covering).map(|(_, w)| *w);
            let spread = max - min;
            let agrees = members.len() >= self.policy.min_siblings && spread <= self.policy.band;
            let merge = || MergeOutcome {
                covering,
                window: min,
                members: members.iter().map(|(k, _)| *k).collect(),
                spread,
            };
            match (agrees, current) {
                (true, None) => pass.merged.push(merge()),
                (true, Some(w)) if w != min => pass.retuned.push(merge()),
                (false, Some(_)) => pass.split.push(SplitOutcome {
                    covering,
                    members: members.clone(),
                    spread,
                }),
                _ => {}
            }
        }
        pass.split.extend(live.map(|(&c, _)| orphan(c)));

        for m in pass.merged.iter().chain(&pass.retuned) {
            self.aggregates.insert(m.covering, m.window);
        }
        for s in &pass.split {
            self.aggregates.remove(&s.covering);
        }
        pass
    }
}

/// The map-of-`Vec`s pass the run-length scan replaced, kept as the
/// reference model its property tests compare against.
#[cfg(test)]
impl Aggregator {
    pub(crate) fn pass_reference(&mut self, table: &FinalTable) -> AggregationPass {
        // Group eligible learned keys under their covering prefix.
        let mut groups: BTreeMap<Ipv4Prefix, Vec<(Ipv4Prefix, u32)>> = BTreeMap::new();
        for (key, entry) in table.iter() {
            if entry.window == 0 {
                continue;
            }
            if let Some(covering) = self.policy.covering_of(key) {
                groups
                    .entry(covering)
                    .or_default()
                    .push((*key, entry.window));
            }
        }

        let mut pass = AggregationPass::default();
        for (covering, members) in &groups {
            let min = members.iter().map(|(_, w)| *w).min().expect("non-empty");
            let max = members.iter().map(|(_, w)| *w).max().expect("non-empty");
            let spread = max - min;
            let agrees = members.len() >= self.policy.min_siblings && spread <= self.policy.band;
            match (agrees, self.aggregates.get(covering).copied()) {
                (true, None) => {
                    self.aggregates.insert(*covering, min);
                    pass.merged.push(MergeOutcome {
                        covering: *covering,
                        window: min,
                        members: members.iter().map(|(k, _)| *k).collect(),
                        spread,
                    });
                }
                (true, Some(current)) => {
                    if current != min {
                        self.aggregates.insert(*covering, min);
                        pass.retuned.push(MergeOutcome {
                            covering: *covering,
                            window: min,
                            members: members.iter().map(|(k, _)| *k).collect(),
                            spread,
                        });
                    }
                }
                (false, Some(_)) => {
                    self.aggregates.remove(covering);
                    pass.split.push(SplitOutcome {
                        covering: *covering,
                        members: members.clone(),
                        spread,
                    });
                }
                (false, None) => {}
            }
        }

        // Aggregates whose members all expired or were evicted dissolve
        // with nothing to reinstall.
        let orphaned: Vec<Ipv4Prefix> = self
            .aggregates
            .keys()
            .filter(|c| !groups.contains_key(*c))
            .copied()
            .collect();
        for covering in orphaned {
            self.aggregates.remove(&covering);
            pass.split.push(SplitOutcome {
                covering,
                members: Vec::new(),
                spread: 0,
            });
        }
        pass.split.sort_by_key(|s| s.covering);
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryStrategy;
    use riptide_simnet::time::SimTime;
    use std::net::Ipv4Addr;

    fn table_with(entries: &[(&str, u32)]) -> FinalTable {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::new();
        for (host, w) in entries {
            let key: Ipv4Prefix = host.parse().unwrap();
            t.blend(key, f64::from(*w), &strategy, SimTime::from_secs(1));
            t.set_window(&key, *w);
        }
        t
    }

    #[test]
    fn default_policy_validates() {
        assert!(AggregationPolicy::default().validate().is_ok());
        assert!(
            AggregationPolicy {
                aggregate_len: 32,
                ..AggregationPolicy::default()
            }
            .validate()
            .is_err(),
            "/32 aggregates nothing"
        );
        assert!(AggregationPolicy {
            min_siblings: 1,
            ..AggregationPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn agreeing_siblings_merge_at_member_minimum() {
        let t = table_with(&[("10.0.1.1", 44), ("10.0.1.2", 40), ("10.0.1.3", 47)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        let pass = agg.pass(&t);
        assert_eq!(pass.merged.len(), 1);
        let m = &pass.merged[0];
        assert_eq!(m.covering, "10.0.1.0/24".parse::<Ipv4Prefix>().unwrap());
        assert_eq!(m.window, 40, "minimum member window — never widen");
        assert_eq!(m.spread, 7);
        assert_eq!(m.members.len(), 3);
        assert_eq!(agg.window_of(&m.covering), Some(40));
    }

    #[test]
    fn divergent_siblings_do_not_merge() {
        let t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 90)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        let pass = agg.pass(&t);
        assert!(pass.merged.is_empty(), "spread 50 > band 8");
        assert!(agg.is_empty());
    }

    #[test]
    fn lone_host_does_not_merge() {
        let t = table_with(&[("10.0.1.1", 40)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert!(agg.pass(&t).merged.is_empty(), "below min_siblings");
    }

    #[test]
    fn divergence_splits_with_members_to_reinstall() {
        let mut t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert_eq!(agg.pass(&t).merged.len(), 1);

        t.set_window(&"10.0.1.2".parse().unwrap(), 90);
        let pass = agg.pass(&t);
        assert_eq!(pass.split.len(), 1);
        let s = &pass.split[0];
        assert_eq!(s.spread, 50);
        assert_eq!(
            s.members,
            vec![
                ("10.0.1.1".parse().unwrap(), 40),
                ("10.0.1.2".parse().unwrap(), 90),
            ]
        );
        assert!(agg.is_empty());
    }

    #[test]
    fn vanished_members_dissolve_the_aggregate() {
        let t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        agg.pass(&t);
        assert_eq!(agg.len(), 1);
        let empty = FinalTable::new();
        let pass = agg.pass(&empty);
        assert_eq!(pass.split.len(), 1);
        assert!(pass.split[0].members.is_empty());
        assert!(agg.is_empty());
    }

    #[test]
    fn member_drift_within_band_retunes_the_window() {
        let mut t = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        agg.pass(&t);
        // Both members drift down but stay within the band: the
        // aggregate follows the new minimum instead of dissolving.
        t.set_window(&"10.0.1.1".parse().unwrap(), 36);
        t.set_window(&"10.0.1.2".parse().unwrap(), 38);
        let pass = agg.pass(&t);
        assert!(pass.merged.is_empty() && pass.split.is_empty());
        assert_eq!(pass.retuned.len(), 1);
        assert_eq!(pass.retuned[0].window, 36);
        // An identical re-pass is a no-op.
        let pass = agg.pass(&t);
        assert!(pass.merged.is_empty() && pass.retuned.is_empty() && pass.split.is_empty());
    }

    #[test]
    fn merge_split_merge_round_trip_is_deterministic() {
        let converged = table_with(&[("10.0.1.1", 40), ("10.0.1.2", 42), ("10.0.1.3", 44)]);
        let mut diverged = converged.clone();
        diverged.set_window(&"10.0.1.3".parse().unwrap(), 90);

        let run = || {
            let mut agg = Aggregator::new(AggregationPolicy::default());
            let first = agg.pass(&converged);
            let second = agg.pass(&diverged);
            let third = agg.pass(&converged);
            (first, second, third)
        };
        let (a1, a2, a3) = run();
        let (b1, b2, b3) = run();
        assert_eq!(a1.merged, b1.merged);
        assert_eq!(a2.split, b2.split);
        assert_eq!(a3.merged, b3.merged);
        assert_eq!(
            a1.merged, a3.merged,
            "re-convergence reforms the identical aggregate"
        );
    }

    #[test]
    fn windowless_entries_are_ignored() {
        let strategy = HistoryStrategy::None;
        let mut t = FinalTable::new();
        for n in 1..=3u8 {
            // blend() without set_window leaves window == 0 (e.g. a
            // Suspend advisory): nothing to aggregate.
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n)),
                40.0,
                &strategy,
                SimTime::from_secs(1),
            );
        }
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert!(agg.pass(&t).merged.is_empty());
    }

    #[test]
    fn keys_at_or_above_aggregate_len_are_left_alone() {
        // A learned /24 (prefix granularity) is never nested into
        // another /24, and a /16 is wider than the aggregate.
        let t = table_with(&[("10.0.1.0/24", 40), ("10.1.0.0/16", 42)]);
        let mut agg = Aggregator::new(AggregationPolicy::default());
        assert!(agg.pass(&t).merged.is_empty());
    }

    mod props {
        use super::*;
        use crate::table::FinalEntry;
        use proptest::prelude::*;
        use riptide_simnet::rng::DetRng;
        use riptide_simnet::time::SimDuration;

        /// A key inside `10.{0,1}.{0..6}.0/16`: a `/16`, a `/24`, a
        /// `/25` or (most often) a `/32`, so coverings hold mixed
        /// lengths and the `/24` itself sits in its members' run.
        fn random_key(rng: &mut DetRng) -> Ipv4Prefix {
            let addr = Ipv4Addr::new(
                10,
                rng.below(2) as u8,
                rng.below(6) as u8,
                rng.below(256) as u8,
            );
            let len = [16, 24, 25, 32, 32, 32, 32, 32][rng.below(8)];
            Ipv4Prefix::new(addr, len)
        }

        /// A copy of `t` bounded at `cap`, keeping the keys `keep` allows.
        fn rebuild(t: &FinalTable, cap: usize, keep: impl Fn(&Ipv4Prefix) -> bool) -> FinalTable {
            let mut out = FinalTable::bounded(cap);
            for (k, e) in t.iter().filter(|(k, _)| keep(k)) {
                out.restore_entry(*k, e.clone());
            }
            out
        }

        fn entries(t: &FinalTable) -> Vec<(Ipv4Prefix, FinalEntry)> {
            t.iter().map(|(k, e)| (*k, e.clone())).collect()
        }

        // Several agent-tick-shaped rounds over one evolving table —
        // upserts with tied and out-of-order stamps and window-0 entries,
        // dropped /24 blocks (live aggregates whose members all vanish),
        // now and then a new capacity, expiry, grouped eviction, then
        // the aggregation pass — checking the run-length scans against
        // the map-of-`Vec`s reference models and expiry against a
        // brute-force filter. Failures name the seed and round.
        proptest! {
            #[test]
            fn scans_match_the_reference_models(seed in any::<u64>(), rounds in 1usize..10) {
                let mut rng = DetRng::from_seed(seed);
                let strategy = HistoryStrategy::None;
                let policy = AggregationPolicy::default();
                let mut agg = Aggregator::new(policy);
                let mut agg_ref = Aggregator::new(policy);
                let mut t = FinalTable::new();
                for round in 0..rounds {
                    let now = SimTime::from_secs(10 * (round as u64 + 1));
                    for _ in 0..rng.below(120) {
                        let key = random_key(&mut rng);
                        let back = [0, 0, 0, 15][rng.below(4)];
                        let at = (10 * round as u64 + rng.below(4) as u64).saturating_sub(back);
                        t.blend(key, 40.0, &strategy, SimTime::from_secs(at));
                        let window = match rng.below(8) {
                            0 => 0,
                            _ => 36 + rng.below(16) as u32,
                        };
                        t.set_window(&key, window);
                    }
                    if rng.below(3) == 0 {
                        let block = rng.below(6) as u8;
                        t = rebuild(&t, t.capacity().unwrap_or(0), |k| {
                            k.len() <= 24 || k.network().octets()[2] != block
                        });
                    }
                    if round == 0 || rng.below(3) == 0 {
                        let cap = match rng.below(2) {
                            0 => rng.below(t.len() + 1),
                            _ => t.len().saturating_sub(rng.below(8)),
                        };
                        t = rebuild(&t, cap, |_| true);
                    }
                    let at = |what: &str| format!("seed {seed} round {round}: {what}");

                    let ttl = SimDuration::from_secs(rng.below(40) as u64);
                    let stale: Vec<Ipv4Prefix> = t
                        .iter()
                        .filter(|(_, e)| now.saturating_since(e.last_updated) > ttl)
                        .map(|(k, _)| *k)
                        .collect();
                    prop_assert_eq!(t.expire(now, ttl), stale, "{}", at("expire"));

                    let mut t_ref = t.clone();
                    let (got, want) = if rng.below(2) == 0 {
                        (
                            t.enforce_capacity_grouped(agg.grouping()),
                            t_ref.enforce_capacity_grouped_reference(|k| agg_ref.covering_of(k)),
                        )
                    } else {
                        (
                            t.enforce_capacity_grouped(|k| policy.covering_of(k)),
                            t_ref.enforce_capacity_grouped_reference(|k| policy.covering_of(k)),
                        )
                    };
                    prop_assert_eq!(got, want, "{}", at("grouped eviction"));
                    prop_assert_eq!(entries(&t), entries(&t_ref), "{}", at("table"));

                    let (got, want) = (agg.pass(&t), agg_ref.pass_reference(&t));
                    prop_assert_eq!(got.merged, want.merged, "{}", at("merged"));
                    prop_assert_eq!(got.retuned, want.retuned, "{}", at("retuned"));
                    prop_assert_eq!(got.split, want.split, "{}", at("split"));
                    prop_assert!(agg.iter().eq(agg_ref.iter()), "{}", at("live aggregates"));
                }
            }
        }
    }
}
