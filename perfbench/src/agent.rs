//! The `agent-poll` workload: `riptided`'s poll path with no simulator.
//!
//! A closed loop of back-to-back polls. Each poll hands seeded `ss -i`
//! text for one busy CDN node to `SockTable::parse`, ticks a
//! `RiptideAgent` into a `SharedRouteController` over a `RouteTable`,
//! appends the poll's route changes to an in-memory state journal (a
//! full `snapshot_state` + encode every `SNAPSHOT_EVERY` polls, as
//! `riptided --state-file` does on disk), and then answers a Zipf batch
//! of `RouteTable::initcwnd_for` lookups, the question the kernel asks
//! when a connection opens.
//!
//! Destinations are drawn Zipf(1.07) from `MegaCdnConfig::quick`'s
//! 1,048,576-address plan, so the learned table grows, ages out (TTL),
//! hits its capacity bound, aggregates and splits within one batch. A
//! seeded minority of destinations retransmit hard enough to trip the
//! loss guard.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

use riptide::agent::{AgentStats, RiptideAgent};
use riptide::aggregate::AggregationPolicy;
use riptide::config::RiptideConfig;
use riptide::control::{ControlError, RouteController, SharedRouteController};
use riptide::guard::GuardConfig;
use riptide::observe::{CwndObservation, FnObserver, WindowObserver};
use riptide::persist::{decode_state, replay, JournalOp, JournalRecord};
use riptide::reconcile::is_riptide_route;
use riptide_cdn::megacdn::MegaCdnConfig;
use riptide_cdn::workload::Zipf;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::RouteTable;
use riptide_linuxnet::ss::SockTable;
use riptide_simnet::rng::{stream_seed, DetRng};
use riptide_simnet::time::SimTime;

use crate::report::{cpu_seconds, mean, median, peak_rss_mb, quantile, JsonObj, Metrics};
use crate::trace::{self, span};
use crate::{Opts, Outcome};

/// Polls between full snapshot rewrites. One poll in five carries a
/// snapshot, so the snapshot cost sits inside the poll p90 rather than
/// at its edge, where p90 would jump between the two kinds of poll.
const SNAPSHOT_EVERY: u64 = 5;
/// Destinations (per thousand) whose connections retransmit about one
/// segment in nine: above the guard's 5% threshold.
const LOSSY_PER_MILLE: u64 = 20;
/// The benchmarked node's own address, outside the fleet's 10/8.
const LOCAL: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
/// RNG stream for the poll contents.
const STREAM_POLLS: u64 = 0x504f_4c4c; // "POLL"

/// The size of one batch.
struct Shape {
    fleet: MegaCdnConfig,
    sockets: usize,
    polls: u64,
    lookups: usize,
    capacity: usize,
}

impl Shape {
    fn of(opts: &Opts) -> Shape {
        if opts.tiny {
            Shape {
                fleet: MegaCdnConfig {
                    seed: opts.seed,
                    ..MegaCdnConfig::test()
                },
                sockets: 1_000,
                polls: 100,
                lookups: 1_000,
                capacity: 8_192,
            }
        } else {
            Shape {
                fleet: MegaCdnConfig {
                    seed: opts.seed,
                    ..MegaCdnConfig::quick()
                },
                sockets: 10_000,
                polls: 100,
                lookups: 20_000,
                capacity: 8_192,
            }
        }
    }

    /// The deployment defaults plus every bounded-state feature the
    /// poll path has: aggregation, a table capacity and the loss guard.
    fn config(&self) -> Result<RiptideConfig, String> {
        RiptideConfig::builder()
            .aggregation(AggregationPolicy::default())
            .table_capacity(self.capacity)
            .guard(GuardConfig::default())
            .build()
            .map_err(|e| format!("agent-poll config: {e}"))
    }
}

/// Writes the seeded `ss -i` text of each poll straight into a buffer;
/// building `SockEntry` rows and rendering them costs several times more.
struct Generator<'a> {
    shape: &'a Shape,
    zipf: Zipf,
    rng: DetRng,
}

impl<'a> Generator<'a> {
    fn new(shape: &'a Shape) -> Self {
        Generator {
            shape,
            zipf: shape.fleet.popularity(),
            rng: DetRng::for_stream(shape.fleet.seed, STREAM_POLLS),
        }
    }

    fn draw(&mut self) -> usize {
        self.shape
            .fleet
            .rank_to_index(self.zipf.sample(&mut self.rng))
    }

    /// Fills `text` with poll `poll`'s sockets and `lookups` with the
    /// destinations of the connections opened after it.
    fn poll(&mut self, poll: u64, text: &mut String, lookups: &mut Vec<Ipv4Addr>) {
        text.clear();
        lookups.clear();
        for _ in 0..self.shape.sockets {
            let index = self.draw();
            self.row(index, poll, text);
        }
        for _ in 0..self.shape.lookups {
            let index = self.draw();
            lookups.push(self.shape.fleet.addr_of_index(index));
        }
    }

    /// One socket. Its cumulative counters are a function of the
    /// destination and the poll, so successive polls read as the same
    /// connections making progress.
    fn row(&mut self, index: usize, poll: u64, out: &mut String) {
        let fleet = &self.shape.fleet;
        let (pop, host) = (index / fleet.hosts_per_pop, index % fleet.hosts_per_pop);
        let h = stream_seed(fleet.seed, index as u64);
        out.push_str(match self.rng.below(100) {
            0..=2 => "SYN-SENT ",
            3 => "CLOSE-WAIT ",
            _ => "ESTAB ",
        });
        push_addr(out, LOCAL);
        out.push(' ');
        push_addr(out, fleet.host_addr(pop, host));
        let cwnd = u64::from(fleet.window_for(pop, host, true)) + self.rng.below(3) as u64;
        let rtt_us = 1_000 + (h >> 8) % 180_000;
        let rate = 96_000 + (h >> 32) % 512_000;
        let acked = (poll + 1) * rate;
        out.push_str("\n\t cubic wscale:7,7 rto:");
        push_u64(out, 200 + rtt_us / 1_000);
        out.push_str(" rtt:");
        push_ms(out, rtt_us);
        out.push('/');
        push_ms(out, rtt_us / 2);
        out.push_str(" mss:1448 cwnd:");
        push_u64(out, cwnd);
        if h & 1 == 1 {
            out.push_str(" ssthresh:");
            push_u64(out, cwnd * 2);
        }
        out.push_str(" bytes_acked:");
        push_u64(out, acked);
        out.push_str(" segs_out:");
        push_u64(out, acked / 1448 + poll);
        if (h >> 16) % 1000 < LOSSY_PER_MILLE {
            out.push_str(" retrans:0/");
            push_u64(out, (poll + 1) * (rate / 1448 / 8 + 1));
        }
        out.push('\n');
    }
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

fn push_addr(out: &mut String, addr: Ipv4Addr) {
    for (i, octet) in addr.octets().into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        push_u64(out, u64::from(octet));
    }
}

/// Microseconds as milliseconds with three decimals, as `ss` prints RTTs.
fn push_ms(out: &mut String, us: u64) {
    push_u64(out, us / 1_000);
    out.push('.');
    let frac = us % 1_000;
    if frac < 100 {
        out.push('0');
    }
    if frac < 10 {
        out.push('0');
    }
    push_u64(out, frac);
}

/// The poll's socket table as the agent's observer; the span separates
/// the agent's row filtering from the rest of its tick.
struct TracedObserver(SockTable);

impl WindowObserver for TracedObserver {
    fn observe(&mut self) -> Vec<CwndObservation> {
        let _s = span("agent.observe");
        self.0.observe()
    }
}

/// `riptided`'s controller, with a span per route command and a count
/// of installs outside `[lo, hi]` (the agent must never issue one).
struct TracedController {
    inner: SharedRouteController,
    lo: u32,
    hi: u32,
    installs: u64,
    out_of_bounds: u64,
}

impl RouteController for TracedController {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        let _s = span("route.install");
        self.installs += 1;
        if !(self.lo..=self.hi).contains(&window) {
            self.out_of_bounds += 1;
        }
        self.inner.set_initcwnd(key, window)
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        let _s = span("route.withdraw");
        self.inner.clear_initcwnd(key)
    }
}

/// `riptided --state-file` kept in memory: a snapshot followed by the
/// journal records of every poll since.
struct StateImage {
    bytes: Vec<u8>,
    snapshot_bytes: usize,
    last_installed: BTreeMap<Ipv4Prefix, u32>,
    polls_since_snapshot: u64,
}

impl StateImage {
    fn new(agent: &RiptideAgent, now: SimTime) -> Self {
        let mut image = StateImage {
            bytes: vec![],
            snapshot_bytes: 0,
            last_installed: BTreeMap::new(),
            polls_since_snapshot: 0,
        };
        image.write_snapshot(agent, now);
        image
    }

    fn write_snapshot(&mut self, agent: &RiptideAgent, now: SimTime) {
        self.bytes = agent.snapshot_state(now).encode();
        self.snapshot_bytes = self.bytes.len();
        self.last_installed = agent.installed_view().clone();
        self.polls_since_snapshot = 0;
    }

    fn append_journal(&mut self, agent: &RiptideAgent, now: SimTime) {
        let cur = agent.installed_view();
        let mut records = Vec::new();
        for &key in self.last_installed.keys() {
            if !cur.contains_key(&key) {
                records.push(JournalRecord {
                    at: now,
                    key,
                    op: JournalOp::Withdraw,
                });
            }
        }
        for (&key, &window) in cur {
            if self.last_installed.get(&key) != Some(&window) {
                records.push(JournalRecord {
                    at: now,
                    key,
                    op: JournalOp::Install { window },
                });
            }
        }
        if records.is_empty() {
            return;
        }
        for r in &records {
            r.encode_into(&mut self.bytes);
        }
        self.last_installed = cur.clone();
    }

    fn after_poll(&mut self, agent: &RiptideAgent, now: SimTime) {
        self.polls_since_snapshot += 1;
        if self.polls_since_snapshot >= SNAPSHOT_EVERY {
            let _s = span("persist.snapshot");
            self.write_snapshot(agent, now);
        } else {
            let _s = span("persist.journal");
            self.append_journal(agent, now);
        }
    }
}

/// What one batch of polls measured.
struct Batch {
    setup_s: f64,
    /// Polls plus lookup batches: the timed section.
    wall_s: f64,
    cpu_s: f64,
    poll_ms: Vec<f64>,
    rows: u64,
    text_bytes: u64,
    stats: AgentStats,
    table_entries: usize,
    installs: u64,
    route_entries: usize,
    lpm_mem_bytes: usize,
    snapshot_bytes: usize,
    /// Routes of the agent's view that `restore_state` alone does not
    /// bring back (covering routes, until the next aggregation pass).
    restore_gaps: usize,
    /// Learned entries the first poll after that restore evicts.
    restart_evictions: usize,
    lookups: u64,
    failures: Vec<String>,
}

/// Runs one batch from an empty agent. Opens spans throughout; they
/// are recorded only inside a traced run.
fn batch(shape: &Shape) -> Result<Batch, String> {
    let t = Instant::now();
    let config = shape.config()?;
    let interval = config.update_interval;
    let (lo, hi) = (config.cwnd_min, config.cwnd_max);
    let mut agent = RiptideAgent::new(config.clone()).map_err(|e| e.to_string())?;
    let table = Rc::new(RefCell::new(RouteTable::new()));
    let mut ctl = TracedController {
        inner: SharedRouteController::new(Rc::clone(&table)),
        lo,
        hi,
        installs: 0,
        out_of_bounds: 0,
    };
    let mut image = StateImage::new(&agent, SimTime::ZERO);
    let mut gen = Generator::new(shape);
    let (mut text, mut lookups) = (String::new(), Vec::new());
    let mut setup_s = t.elapsed().as_secs_f64();

    let mut failures = vec![];
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut poll_ms = Vec::with_capacity(shape.polls as usize);
    let (mut rows, mut text_bytes) = (0u64, 0u64);
    let (mut lookup_sum, mut lookup_out_of_bounds) = (0u64, 0u64);
    let mut now = SimTime::ZERO;
    for poll in 0..shape.polls {
        now += interval;
        let t = Instant::now();
        {
            let _s = span("setup.generate");
            gen.poll(poll, &mut text, &mut lookups);
        }
        setup_s += t.elapsed().as_secs_f64();
        text_bytes += text.len() as u64;

        let cpu0 = cpu_seconds()?;
        let t = Instant::now();
        {
            let _poll = span("poll");
            let parsed = {
                let _s = span("ss.parse");
                SockTable::parse(&text)
            };
            let sockets = match parsed {
                Ok(s) => s,
                Err(e) => {
                    failures.push(format!("poll {poll}: {e}"));
                    continue;
                }
            };
            rows += sockets.len() as u64;
            let report = {
                let _s = span("agent.tick");
                agent.tick(now, &mut TracedObserver(sockets), &mut ctl)
            };
            if let Some(e) = report.errors.first() {
                failures.push(format!("poll {poll}: route control failed: {e}"));
            }
            image.after_poll(&agent, now);
        }
        poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
        {
            let _s = span("lpm.lookup");
            let routes = table.borrow();
            for &addr in &lookups {
                if let Some(w) = routes.initcwnd_for(addr) {
                    lookup_sum += u64::from(w);
                    if !(lo..=hi).contains(&w) {
                        lookup_out_of_bounds += 1;
                    }
                }
            }
        }
        wall_s += t.elapsed().as_secs_f64();
        cpu_s += cpu_seconds()? - cpu0;
    }
    black_box(lookup_sum);

    // Output checks, outside the timed section.
    let _check = span("check.batch");
    if ctl.out_of_bounds > 0 || lookup_out_of_bounds > 0 {
        failures.push(format!(
            "{} installs and {lookup_out_of_bounds} lookups outside [{lo}, {hi}]",
            ctl.out_of_bounds
        ));
    }
    let kernel = table.borrow().clone();
    let stray = kernel
        .iter()
        .filter(|r| is_riptide_route(&r.attrs))
        .filter(|r| !r.attrs.initcwnd.is_some_and(|w| (lo..=hi).contains(&w)))
        .count();
    if stray > 0 {
        failures.push(format!("{stray} kernel routes outside [{lo}, {hi}]"));
    }
    let audit = {
        let _s = span("reconcile.audit");
        agent.reconcile(&kernel, &mut ctl)
    };
    if !audit.converged() {
        failures.push(format!(
            "reconcile audit did not converge: {} repairs, {} errors",
            audit.repairs(),
            audit.errors.len()
        ));
    }
    let (mut restored, mut fresh_ctl) = {
        let _s = span("persist.restore");
        let state = decode_state(&image.bytes).map_err(|e| format!("state image: {e}"))?;
        let merged = replay(&state.snapshot, &state.journal);
        let mut fresh = RiptideAgent::new(config).map_err(|e| e.to_string())?;
        let mut fresh_ctl = SharedRouteController::new(Rc::new(RefCell::new(RouteTable::new())));
        fresh.restore_state(&merged, now, &mut fresh_ctl);
        (fresh, fresh_ctl)
    };
    // `restore_state` reinstalls exactly the routes that have a learned
    // entry; covering (aggregate) routes have none and are counted.
    let view = restored.installed_view();
    let mut restore_gaps = 0;
    let mut wrong = view
        .keys()
        .filter(|k| !agent.installed_view().contains_key(k))
        .count();
    for (key, window) in agent.installed_view() {
        match (agent.table().get(key), view.get(key)) {
            (None, None) => restore_gaps += 1,
            (_, got) if got == Some(window) => {}
            _ => wrong += 1,
        }
    }
    if wrong > 0 {
        failures.push(format!(
            "restore_state brought back {wrong} routes wrong or extra (of {})",
            agent.installed_view().len()
        ));
    }
    // The first poll after a restart, here an empty one at the same
    // instant: its capacity pass runs before aggregation re-forms, so
    // the members of every aggregate count one by one.
    let settle = restored.tick(now, &mut FnObserver(Vec::new), &mut fresh_ctl);

    let routes = table.borrow();
    Ok(Batch {
        setup_s,
        wall_s,
        cpu_s,
        poll_ms,
        rows,
        text_bytes,
        stats: agent.stats(),
        table_entries: agent.table().len(),
        installs: ctl.installs,
        route_entries: routes.len(),
        lpm_mem_bytes: routes.lpm_mem_bytes(),
        snapshot_bytes: image.snapshot_bytes,
        restore_gaps,
        restart_evictions: settle.evicted.len(),
        lookups: shape.polls * shape.lookups as u64,
        failures,
    })
}

/// The untraced run: batches until `opts.seconds` is spent.
///
/// The first batch is a warm-up, checked but not measured: it runs
/// about a tenth slower while the allocator takes its memory from the
/// system, a cost a long-running daemon pays once.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let shape = Shape::of(opts);
    let started = Instant::now();
    let warm_up = batch(&shape)?;
    let mut batches = vec![];
    loop {
        batches.push(batch(&shape)?);
        let elapsed = started.elapsed().as_secs_f64();
        let per_batch = elapsed / (batches.len() + 1) as f64;
        if batches.len() >= 2 && elapsed + per_batch > opts.seconds {
            break;
        }
    }
    let pick = |f: fn(&Batch) -> f64| -> Vec<f64> { batches.iter().map(f).collect() };
    let poll_ms: Vec<f64> = batches.iter().flat_map(|b| b.poll_ms.clone()).collect();
    let wall = median(&pick(|b| b.wall_s));

    let mut m = Metrics::default();
    m.set("setup_s", median(&pick(|b| b.setup_s)));
    m.set("wall_s", wall);
    m.set("events_per_s", batches[0].rows as f64 / wall);
    m.set("cpu_s", median(&pick(|b| b.cpu_s)));
    m.set("peak_rss_mb", peak_rss_mb()?);
    m.set("op_mean_ms", mean(&poll_ms));
    m.set("op_p90_ms", quantile(&poll_ms, 0.9));

    let mut record = JsonObj::default();
    record
        .str("operation", "poll")
        .int("threads", 1)
        .int("warm_up_batches", 1)
        .int("batches", batches.len() as u64)
        .raw("batch_wall_s", format!("{:?}", pick(|b| b.wall_s)))
        .int("polls_per_batch", shape.polls)
        .int("sockets_per_poll", shape.sockets as u64)
        .int("op_samples", poll_ms.len() as u64)
        .num("poll_p50_ms", quantile(&poll_ms, 0.5))
        .int("setup_samples", batches.len() as u64)
        .int("rows_per_batch", batches[0].rows)
        .int("learned_entries", batches[0].table_entries as u64)
        .int("routes", batches[0].route_entries as u64)
        .int("restore_state_gaps", batches[0].restore_gaps as u64)
        .int("restart_evictions", batches[0].restart_evictions as u64);
    Ok(Outcome {
        metrics: m,
        attempted: (batches.len() as u64 + 1) * shape.polls,
        failures: warm_up
            .failures
            .into_iter()
            .chain(batches.into_iter().flat_map(|b| b.failures))
            .collect(),
        record,
        spans: vec![],
    })
}

/// The traced run: a warm-up batch, one batch untraced, then the same
/// batch traced. The first batch of a process runs slower while the
/// allocator takes its memory from the system.
pub fn traced(opts: &Opts) -> Result<Outcome, String> {
    let shape = Shape::of(opts);
    let warm_up = batch(&shape)?;
    let plain = batch(&shape)?;
    trace::start();
    let b = batch(&shape);
    let spans = trace::finish();
    let b = b?;
    let names = trace::by_name(&spans);
    let ms = |ns: u64| ns as f64 / 1e6;
    let durations_ms = |name: &str| -> Vec<f64> {
        names
            .get(name)
            .map(|t| t.durations_ns.iter().map(|&n| ms(n)).collect())
            .unwrap_or_default()
    };
    let total_ns = |name: &str| names.get(name).map_or(0, |t| t.total_ns);
    let count = |name: &str| names.get(name).map_or(0, |t| t.count);

    let mut m = Metrics::default();
    let tick_self: Vec<f64> = names
        .get("agent.tick")
        .map(|t| t.self_ns_each.iter().map(|&n| ms(n)).collect())
        .unwrap_or_default();
    m.set("agent.tick_p50_ms", quantile(&tick_self, 0.5));
    m.set("agent.tick_p90_ms", quantile(&tick_self, 0.9));
    let s = b.stats;
    m.set("agent.observations", s.observations as f64);
    m.set("agent.route_updates", s.route_updates as f64);
    m.set("agent.route_expirations", s.route_expirations as f64);
    m.set("agent.errors", s.errors as f64);
    m.set(
        "agent.updates_per_observation",
        s.route_updates as f64 / s.observations.max(1) as f64,
    );
    m.set("aggregate.merges", s.aggregate_merges as f64);
    m.set("aggregate.splits", s.aggregate_splits as f64);
    m.set("table.entries", b.table_entries as f64);
    m.set("table.evictions", s.table_evictions as f64);
    m.set("guard.trips", s.guard_trips as f64);
    m.set(
        "persist.snapshot_ms",
        median(&durations_ms("persist.snapshot")),
    );
    m.set("persist.bytes", b.snapshot_bytes as f64);
    m.set(
        "persist.journal_us",
        median(&durations_ms("persist.journal")) * 1e3,
    );
    m.set("persist.restore_ms", ms(total_ns("persist.restore")));
    m.set("reconcile.audit_ms", ms(total_ns("reconcile.audit")));
    m.set("ss.parse_ms_p50", median(&durations_ms("ss.parse")));
    m.set("ss.rows_per_poll", b.rows as f64 / shape.polls as f64);
    m.set(
        "ss.bytes_per_poll",
        b.text_bytes as f64 / shape.polls as f64,
    );
    m.set(
        "route.install_us",
        total_ns("route.install") as f64 / count("route.install").max(1) as f64 / 1e3,
    );
    m.set("route.installs", b.installs as f64);
    m.set("route.entries", b.route_entries as f64);
    m.set(
        "lpm.lookup_ns",
        total_ns("lpm.lookup") as f64 / b.lookups.max(1) as f64,
    );
    m.set("lpm.mem_bytes", b.lpm_mem_bytes as f64);
    m.set(
        "trace.overhead_pct",
        (b.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    );
    let coverage = crate::coverage(&spans, &names, UNATTRIBUTED);
    m.set("trace.covered_share", coverage.covered_share);
    m.not_applicable("simnet.", "agent-poll runs no simulator");
    m.not_applicable("sim.", "agent-poll runs no simulator");
    m.not_applicable("engine.", "agent-poll runs no sweep engine");
    m.not_applicable("schedule.", "agent-poll runs no worker pool");

    let mut record = JsonObj::default();
    record
        .str("operation", "poll")
        .int("threads", 1)
        .int("polls", shape.polls)
        .int("sockets_per_poll", shape.sockets as u64)
        .int("tick_samples", tick_self.len() as u64)
        .int("snapshot_samples", count("persist.snapshot") as u64)
        .int("journal_samples", count("persist.journal") as u64)
        .int("route_withdrawals", count("route.withdraw") as u64)
        .int("restore_state_gaps", b.restore_gaps as u64)
        .int("restart_evictions", b.restart_evictions as u64)
        .raw("unattributed", coverage.unattributed_json)
        .raw("not_applicable", m.not_applicable_json());
    let mut failures = warm_up.failures;
    failures.extend(plain.failures);
    failures.extend(b.failures);
    Ok(Outcome {
        metrics: m,
        attempted: 3 * shape.polls,
        failures,
        record,
        spans,
    })
}

/// Spans whose self time no single layer owns.
const UNATTRIBUTED: &[(&str, &str)] = &[(
    "poll",
    "benchmark glue between the traced calls of one poll",
)];
