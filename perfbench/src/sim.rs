//! The two simulator workloads: `probe-quick` and `scenario-mix`.
//!
//! Both run a `cdn::engine::RunPlan` as a batch. The untraced run times
//! whole batches until the run's time is spent. The traced run executes
//! the plan once on one worker and once on every hardware thread, then
//! replays each shard through `CdnSim::new` and one-minute
//! `CdnSim::run_for` slices so the per-shard cost can be split by arm,
//! cell and simnet counters.

use std::hint::black_box;
use std::time::Instant;

use riptide::config::RiptideConfig;
use riptide_cdn::engine::{RunPlan, RunReport, ShardData, ShardResult, ShardSpec, ShardWork};
use riptide_cdn::experiment::{probe_sim_config, ExperimentScale};
use riptide_cdn::scenario::scenario_sim_config;
use riptide_cdn::sim::{CdnSim, CdnSimConfig};
use riptide_simnet::config::TcpConfig;
use riptide_simnet::time::SimDuration;

use crate::report::{mean, median, quantile, JsonObj, Metrics, CELLS, POLICIES};
use crate::trace::{self, span};
use crate::{nproc, Opts, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    ProbeQuick,
    ScenarioMix,
}

/// Plans built per batch; the set-up time is their median.
const SETUP_REPS: usize = 25;
/// Batches every untraced run makes, however short its time.
const MIN_BATCHES: usize = 2;
/// Simulated time per traced `CdnSim::run_for` slice.
const SLICE: SimDuration = SimDuration::from_secs(60);

impl Sim {
    /// The seed whose digest is pinned, and the digest.
    pub fn pinned(self) -> (u64, &'static str) {
        match self {
            Sim::ProbeQuick => (ExperimentScale::quick().seed, "ed26325beb81bd2f"),
            Sim::ScenarioMix => (ExperimentScale::test().seed, "80bdd3eaf1c870e1"),
        }
    }

    fn scale(self, opts: &Opts) -> ExperimentScale {
        let mut scale = match (self, opts.tiny) {
            (Sim::ProbeQuick, false) => ExperimentScale::quick(),
            (Sim::ScenarioMix, false) => ExperimentScale::test(),
            (_, true) => ExperimentScale {
                duration: SimDuration::from_secs(240),
                warmup: SimDuration::from_secs(60),
                ..ExperimentScale::test()
            },
        };
        scale.seed = opts.seed;
        scale
    }

    fn plan(self, scale: &ExperimentScale, tiny: bool) -> RunPlan {
        match self {
            Sim::ProbeQuick => RunPlan::probe_comparison(scale, 1),
            Sim::ScenarioMix => RunPlan::scenario_matrix(scale, if tiny { 1 } else { 2 }),
        }
    }

    /// Worker threads of the workload's batch: one for probe-quick (no
    /// scheduler work, stable events/s), every hardware thread for
    /// scenario-mix.
    fn threads(self) -> usize {
        match self {
            Sim::ProbeQuick => 1,
            Sim::ScenarioMix => nproc(),
        }
    }

    /// The merge a user of the report runs after the batch.
    fn merge(self, report: &RunReport) {
        match self {
            Sim::ProbeQuick => {
                black_box(report.comparison());
            }
            Sim::ScenarioMix => {
                let scenarios = report.shards.iter().map(|s| s.id.scenario + 1).max();
                for s in 0..scenarios.unwrap_or(0) {
                    black_box(report.merged_probes(s));
                }
            }
        }
    }
}

/// The digest this run must reproduce, if any: an explicit expectation,
/// else the pinned one at the default seed and full size.
fn expected_digest(sim: Sim, opts: &Opts) -> Option<String> {
    let (seed, digest) = sim.pinned();
    opts.expect_digest
        .clone()
        .or_else(|| (!opts.tiny && opts.seed == seed).then(|| digest.to_string()))
}

fn riptide_of(spec: &ShardSpec) -> Option<&RiptideConfig> {
    match &spec.work {
        ShardWork::ProbeArm { riptide, .. } | ShardWork::ScenarioArm { riptide, .. } => {
            riptide.as_ref()
        }
        _ => None,
    }
}

/// Output checks for one executed shard: it simulated something, its
/// probes completed, and every probe's connection started with a window
/// the arm can produce — the stack default on control arms,
/// `[c_min, c_max]` on Riptide arms.
fn check_shard(spec: &ShardSpec, result: &ShardResult) -> Result<(), String> {
    let ShardData::Probes(probes) = &result.data else {
        return Err(format!("{}: not a probe shard", spec.label));
    };
    if result.stats.events == 0 || probes.is_empty() {
        return Err(format!("{}: no events or no completed probes", spec.label));
    }
    let (lo, hi) = match riptide_of(spec) {
        Some(cfg) => (cfg.cwnd_min, cfg.cwnd_max),
        None => {
            let default = TcpConfig::default().initial_cwnd;
            (default, default)
        }
    };
    for p in probes {
        if p.completion.is_zero() || !(lo..=hi).contains(&p.initial_cwnd) {
            return Err(format!(
                "{}: probe to site {} started at window {} (allowed {lo}..={hi}) \
                 and took {:?}",
                spec.label, p.dst_site, p.initial_cwnd, p.completion
            ));
        }
    }
    Ok(())
}

/// The untraced run: whole batches until `opts.seconds` is spent.
pub fn run(sim: Sim, opts: &Opts) -> Result<Outcome, String> {
    let scale = sim.scale(opts);
    let threads = sim.threads();
    let expected = expected_digest(sim, opts);
    let started = Instant::now();
    let (mut setup, mut walls, mut cpus, mut shard_ms) = (vec![], vec![], vec![], vec![]);
    let mut digests: Vec<String> = vec![];
    let mut failures: Vec<String> = vec![];
    let mut attempted = 0u64;
    let mut events;
    loop {
        let mut plan = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            plan = Some(black_box(sim.plan(&scale, opts.tiny)));
            setup.push(t.elapsed().as_secs_f64());
        }
        let plan = plan.expect("SETUP_REPS > 0");
        let cpu0 = crate::report::cpu_seconds()?;
        let t = Instant::now();
        let report = plan.run_with_threads(threads);
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(crate::report::cpu_seconds()? - cpu0);

        attempted += report.shards.len() as u64;
        events = report.total_events();
        for (spec, result) in plan.shards.iter().zip(&report.shards) {
            shard_ms.push(result.stats.wall_millis as f64);
            if let Err(e) = check_shard(spec, result) {
                failures.push(e);
            }
        }
        digests.push(format!("{:016x}", report.digest_fnv64()));
        let elapsed = started.elapsed().as_secs_f64();
        let batch = elapsed / walls.len() as f64;
        if walls.len() >= MIN_BATCHES && elapsed + batch > opts.seconds {
            break;
        }
    }
    if digests.iter().any(|d| *d != digests[0]) {
        failures.push(format!("batches disagree on the digest: {digests:?}"));
    }
    if let Some(want) = &expected {
        if digests[0] != *want {
            failures.push(format!("digest {} differs from pinned {want}", digests[0]));
        }
    }

    let mut m = Metrics::default();
    let wall = median(&walls);
    m.set("setup_s", median(&setup));
    m.set("wall_s", wall);
    m.set("events_per_s", events as f64 / wall);
    m.set("cpu_s", median(&cpus));
    m.set("peak_rss_mb", crate::report::peak_rss_mb()?);
    m.set("op_mean_ms", mean(&shard_ms));
    m.set("op_p90_ms", quantile(&shard_ms, 0.9));

    let mut record = JsonObj::default();
    record
        .str("operation", "shard")
        .int("threads", threads as u64)
        .int("batches", walls.len() as u64)
        .raw("batch_wall_s", format!("{walls:?}"))
        .int("events_per_batch", events)
        .int("setup_samples", setup.len() as u64)
        .int("op_samples", shard_ms.len() as u64)
        .num("shard_p50_ms", quantile(&shard_ms, 0.5))
        .str("digest", &digests[0])
        .str(
            "expected_digest",
            expected.as_deref().unwrap_or("none at this seed"),
        );
    Ok(Outcome {
        metrics: m,
        attempted,
        failures,
        record,
        spans: vec![],
    })
}

/// The simulation one traced shard replays, with its arm's name and
/// its scenario cell (scenario-mix only).
fn shard_config(spec: &ShardSpec) -> Result<(CdnSimConfig, String, Option<String>), String> {
    let mut cfg = match &spec.work {
        ShardWork::ProbeArm {
            riptide,
            tweaks,
            senders,
        } => probe_sim_config(&spec.scale, riptide.clone(), *tweaks, senders.clone()),
        ShardWork::ScenarioArm {
            riptide,
            spec: cell,
            senders,
        } => scenario_sim_config(&spec.scale, riptide.clone(), senders.clone(), cell),
        _ => return Err(format!("{}: not a probe shard", spec.label)),
    };
    cfg.telemetry = spec.telemetry;
    // Labels are `arm:siteN` or `cell/arm:siteN`.
    let head = spec.label.split(':').next().unwrap_or_default();
    let (cell, arm) = match head.split_once('/') {
        Some((cell, arm)) => (Some(cell.to_string()), arm),
        None => (None, head),
    };
    let arm = if arm == "riptide" { "ewma" } else { arm };
    Ok((cfg, arm.to_string(), cell))
}

/// What one traced shard did.
#[derive(Debug)]
struct ShardTrace {
    arm: String,
    cell: Option<String>,
    events: u64,
    /// Nanoseconds in `CdnSim::new` plus every `run_for` slice.
    sim_ns: u64,
    run_for_ns: u64,
}

/// Counters summed over traced shards.
#[derive(Debug, Default)]
struct Counters {
    events: u64,
    segments: u64,
    acks: u64,
    retransmits: u64,
    conns_opened: u64,
    transfers: u64,
    offered: u64,
    delivered: u64,
    lost_overflow: u64,
    lost_random: u64,
    lost_aqm: u64,
    marked_ecn: u64,
    observations: u64,
    route_updates: u64,
    route_expirations: u64,
    agent_errors: u64,
    table_entries: u64,
    table_evictions: u64,
    guard_trips: u64,
    installs: u64,
}

fn ns_per_event<'a>(shards: impl Iterator<Item = &'a ShardTrace>) -> f64 {
    let (ns, events) = shards.fold((0u64, 0u64), |(n, e), s| (n + s.run_for_ns, e + s.events));
    if events == 0 {
        0.0
    } else {
        ns as f64 / events as f64
    }
}

/// The traced run: per-layer metrics for one simulator workload.
pub fn traced(sim: Sim, opts: &Opts) -> Result<Outcome, String> {
    let scale = sim.scale(opts);
    let own = sim.threads();
    let other = if own == 1 { nproc() } else { 1 };
    let expected = expected_digest(sim, opts);
    let mut failures = vec![];

    trace::start();
    let plan = {
        let _s = span("setup.plan");
        sim.plan(&scale, opts.tiny)
    };
    let root = span("run");
    let timed_run = |threads: usize| {
        let _s = span("engine.run_with_threads");
        let t = Instant::now();
        let report = plan.run_with_threads(threads);
        (report, t.elapsed().as_secs_f64())
    };
    let (report, wall_own) = timed_run(own);
    let digest = {
        let _s = span("engine.digest_fnv64");
        format!("{:016x}", report.digest_fnv64())
    };
    {
        let _s = span("engine.merge");
        sim.merge(&report);
    }
    let (report_other, wall_other) = timed_run(other);
    let digest_other = {
        let _s = span("check.digest");
        format!("{:016x}", report_other.digest_fnv64())
    };
    if digest != digest_other {
        failures.push(format!(
            "digest at {own} thread(s) {digest} differs from {other} thread(s) {digest_other}"
        ));
    }
    if let Some(want) = &expected {
        if digest != *want {
            failures.push(format!("digest {digest} differs from pinned {want}"));
        }
    }
    for (spec, result) in plan.shards.iter().zip(&report.shards) {
        if let Err(e) = check_shard(spec, result) {
            failures.push(e);
        }
    }

    let mut shards = Vec::with_capacity(plan.shards.len());
    let mut c = Counters::default();
    for (spec, engine_result) in plan.shards.iter().zip(&report.shards) {
        let _shard = span("sim.shard");
        let (cfg, arm, cell) = shard_config(spec)?;
        let t = Instant::now();
        let mut cdn = {
            let _s = span("sim.new");
            CdnSim::new(cfg)
        };
        let total = spec.scale.total();
        let mut done = SimDuration::ZERO;
        let mut run_for_ns = 0u64;
        while done < total {
            let step = SLICE.min(total - done);
            let t = Instant::now();
            {
                let _s = span("sim.run_for");
                cdn.run_for(step);
            }
            run_for_ns += t.elapsed().as_nanos() as u64;
            done += step;
        }
        let sim_ns = t.elapsed().as_nanos() as u64;
        {
            let _s = span("simnet.stats");
            let world = &cdn.testbed().world;
            let ws = world.stats();
            c.events += ws.events_processed;
            c.segments += ws.segments_delivered;
            c.acks += ws.acks_delivered;
            c.retransmits += ws.retransmits;
            c.conns_opened += ws.connections_opened;
            c.transfers += ws.transfers_completed;
            let pops = &cdn.testbed().pops;
            for &a in pops {
                for &b in pops {
                    if let Some(p) = world.path_stats(a, b) {
                        c.offered += p.offered;
                        c.delivered += p.delivered;
                        c.lost_overflow += p.lost_overflow;
                        c.lost_random += p.lost_random;
                        c.lost_aqm += p.lost_aqm;
                        c.marked_ecn += p.marked_ecn;
                    }
                }
            }
            if ws.events_processed != engine_result.stats.events {
                failures.push(format!(
                    "{}: sliced replay processed {} events, the engine {}",
                    spec.label, ws.events_processed, engine_result.stats.events
                ));
            }
            shards.push(ShardTrace {
                arm,
                cell,
                events: ws.events_processed,
                sim_ns,
                run_for_ns,
            });
        }
        if cdn.riptide_enabled() {
            let _s = span("sim.reports");
            let a = cdn.agent_stats_total();
            c.observations += a.observations;
            c.route_updates += a.route_updates;
            c.route_expirations += a.route_expirations;
            c.agent_errors += a.errors;
            c.table_evictions += a.table_evictions;
            c.guard_trips += a.guard_trips;
            c.table_entries += cdn.mean_learned_window().map_or(0, |(_, n)| n as u64);
            let chaos = cdn.chaos_report();
            c.installs += chaos.installs;
            if chaos.invariant_breaches > 0 {
                failures.push(format!(
                    "{}: {} installs outside [c_min, c_max]",
                    spec.label, chaos.invariant_breaches
                ));
            }
        }
    }
    drop(root);
    let spans = trace::finish();
    let names = trace::by_name(&spans);

    let mut m = Metrics::default();
    // simnet
    m.set("simnet.events", c.events as f64);
    m.set("simnet.segments", c.segments as f64);
    m.set("simnet.acks", c.acks as f64);
    m.set("simnet.retransmits", c.retransmits as f64);
    m.set("simnet.conns_opened", c.conns_opened as f64);
    m.set("simnet.transfers", c.transfers as f64);
    m.set("simnet.offered", c.offered as f64);
    m.set("simnet.lost_overflow", c.lost_overflow as f64);
    m.set("simnet.lost_random", c.lost_random as f64);
    m.set("simnet.lost_aqm", c.lost_aqm as f64);
    m.set("simnet.marked_ecn", c.marked_ecn as f64);
    m.set(
        "simnet.goodput_ratio",
        c.segments.saturating_sub(c.retransmits) as f64 / c.segments.max(1) as f64,
    );
    m.set(
        "simnet.delivery_ratio",
        c.delivered as f64 / c.offered.max(1) as f64,
    );

    // cdn::sim
    let ms_of = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&n| n as f64 / 1e6).collect() };
    let new_ms = ms_of(&names["sim.new"].durations_ns);
    let slice_ms = ms_of(&names["sim.run_for"].durations_ns);
    m.set("sim.new_ms", median(&new_ms));
    m.set("sim.slice_p50_ms", quantile(&slice_ms, 0.5));
    m.set("sim.slice_p90_ms", quantile(&slice_ms, 0.9));
    let control = ns_per_event(shards.iter().filter(|s| s.arm == "control"));
    let riptide = ns_per_event(shards.iter().filter(|s| s.arm == "ewma"));
    m.set("sim.control_ns_per_event", control);
    m.set("sim.riptide_ns_per_event", riptide);
    m.set("sim.agent_share", 1.0 - control / riptide);
    for &policy in POLICIES {
        let arm = shards.iter().filter(|s| s.arm == policy);
        if arm.clone().next().is_some() {
            m.set(
                &format!("sim.arm_overhead.{policy}"),
                ns_per_event(arm) / control - 1.0,
            );
        }
    }
    m.not_applicable(
        "sim.arm_overhead.",
        "probe-quick runs only the deployment EWMA policy",
    );
    for &cell in CELLS {
        let in_cell = shards.iter().filter(|s| s.cell.as_deref() == Some(cell));
        if in_cell.clone().next().is_some() {
            m.set(&format!("sim.ns_per_event.{cell}"), ns_per_event(in_cell));
        }
    }
    m.not_applicable(
        "sim.ns_per_event.",
        "probe-quick runs no scenario-matrix cells",
    );

    // cdn::engine, cdn::schedule
    let busy_ms: Vec<f64> = report
        .shards
        .iter()
        .map(|s| s.stats.wall_millis as f64)
        .collect();
    let busy_s = busy_ms.iter().sum::<f64>() / 1e3;
    let workers = report.threads as f64;
    m.set("engine.shard_busy_s", busy_s);
    m.set("engine.shard_p50_ms", quantile(&busy_ms, 0.5));
    m.set("engine.shard_p90_ms", quantile(&busy_ms, 0.9));
    m.set(
        "engine.digest_ms",
        names["engine.digest_fnv64"].total_ns as f64 / 1e6,
    );
    m.set(
        "engine.merge_ms",
        names["engine.merge"].total_ns as f64 / 1e6,
    );
    m.set("schedule.idle_s", workers * wall_own - busy_s);
    m.set("schedule.efficiency", busy_s / (workers * wall_own));
    let (wall_1, wall_n) = if own == 1 {
        (wall_own, wall_other)
    } else {
        (wall_other, wall_own)
    };
    m.set("schedule.speedup", wall_1 / wall_n);

    // core, as far as the simulator exposes it
    m.set("agent.observations", c.observations as f64);
    m.set("agent.route_updates", c.route_updates as f64);
    m.set("agent.route_expirations", c.route_expirations as f64);
    m.set("agent.errors", c.agent_errors as f64);
    m.set(
        "agent.updates_per_observation",
        c.route_updates as f64 / c.observations.max(1) as f64,
    );
    m.set("table.entries", c.table_entries as f64);
    m.set("table.evictions", c.table_evictions as f64);
    m.set("guard.trips", c.guard_trips as f64);
    m.set("route.installs", c.installs as f64);
    m.not_applicable(
        "agent.tick_",
        "agent ticks run inside CdnSim::run_for, which this benchmark cannot split",
    );
    m.not_applicable("aggregate.", "the simulated arms run without aggregation");
    m.not_applicable("persist.", "the probe plans run without persistence");
    m.not_applicable("reconcile.", "the probe plans run no reconciler audits");
    m.not_applicable(
        "ss.",
        "the simulator hands agents in-process snapshots and never renders or parses ss text",
    );
    m.not_applicable(
        "route.",
        "route installs and connect-time lookups run inside CdnSim::run_for",
    );
    m.not_applicable(
        "lpm.",
        "connect-time lookups run inside World::run_until, which this benchmark cannot split",
    );

    // tracing: the replayed shards against the same shards in the
    // serial engine run, which did the same simulation untraced.
    let serial = if own == 1 { &report } else { &report_other };
    let serial_busy_ns = serial
        .shards
        .iter()
        .map(|s| s.stats.wall_millis as f64 * 1e6)
        .sum::<f64>();
    let traced_ns = shards.iter().map(|s| s.sim_ns as f64).sum::<f64>();
    m.set(
        "trace.overhead_pct",
        (traced_ns - serial_busy_ns) / serial_busy_ns * 100.0,
    );
    let coverage = crate::coverage(&spans, &names, UNATTRIBUTED);
    m.set("trace.covered_share", coverage.covered_share);

    let mut record = JsonObj::default();
    record
        .str("operation", "shard")
        .int("threads", own as u64)
        .int("comparison_threads", other as u64)
        .str("digest", &digest)
        .str(
            "expected_digest",
            expected.as_deref().unwrap_or("none at this seed"),
        )
        .int("traced_shards", shards.len() as u64)
        .int("slices", names["sim.run_for"].count as u64)
        .raw("unattributed", coverage.unattributed_json)
        .raw("not_applicable", m.not_applicable_json());
    Ok(Outcome {
        metrics: m,
        attempted: plan.shards.len() as u64,
        failures,
        record,
        spans,
    })
}

/// Spans whose self time no single layer owns, and what they hold.
const UNATTRIBUTED: &[(&str, &str)] = &[
    (
        "engine.run_with_threads",
        "whole shards on the worker pool: CdnSim::new, World::run_until, agent ticks, scheduling",
    ),
    (
        "sim.run_for",
        "CdnSim::run_for: World::run_until (event queue, link admission, TCP), agent ticks, probe and organic scheduling",
    ),
    ("sim.shard", "benchmark glue between traced calls"),
    ("run", "benchmark glue between traced calls"),
];
