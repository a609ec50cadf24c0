//! Simulator performance: events/sec and wall-clock for the fixed
//! probe-comparison plan, measured serially and swept over
//! worker-thread counts, with the run digest pinned so a perf run
//! doubles as a behaviour-preservation check and a proof that the
//! work-stealing scheduler is thread-count invariant.
//!
//! ```text
//! cargo run --release --bin simperf -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode measures the plan **serially** (stable events/sec,
//!   no pool scheduling noise), then sweeps threads over powers of two
//!   up to `--threads` (default: `max(4, hardware threads)`), asserts
//!   every point merges to the serial digest, and rewrites
//!   `BENCH_simperf.json`. The serial run is the curve's threads=1
//!   point. The `seed_*` baseline (the pre-optimisation tree's numbers)
//!   is carried forward from the checked-in `BENCH_simperf.json` when
//!   that file was recorded at the same scale, and left out otherwise;
//!   it is never read from `--out`.
//! * `--check` regression mode for CI compares against the baseline
//!   instead of rewriting it. It runs the plan once serially and once
//!   at [`FLOOR_THREADS`], and exits nonzero when:
//!   - the serial digest differs from the baseline's (behaviour drift
//!     — always fatal);
//!   - events/sec falls below [`REGRESSION_FLOOR`] × the baseline's;
//!   - the threads=1 and threads=[`FLOOR_THREADS`] digests differ
//!     (steal-order divergence — always fatal);
//!   - on a machine with at least [`FLOOR_THREADS`] hardware threads,
//!     the speedup at [`FLOOR_THREADS`] is under [`FLOOR_SPEEDUP`]. On
//!     smaller machines this floor is skipped (a 1-core runner cannot
//!     exhibit parallel speedup), but the digest gates always run.

use std::process::ExitCode;
use std::time::Instant;

use riptide_bench::{
    banner, json_field, parse_args_with, run_gate, write_bench_json, Baseline, Cli, RunOptions,
};
use riptide_cdn::engine::{threads_from, RunPlan};

const BENCH_FILE: &str = "BENCH_simperf.json";
/// A `--check` run fails when events/sec drops below this fraction of
/// the recorded baseline.
const REGRESSION_FLOOR: f64 = 0.8;
/// The thread count the scaling floor is measured at.
const FLOOR_THREADS: usize = 4;
/// Minimum speedup over threads=1 that `--check` demands at
/// [`FLOOR_THREADS`] on a machine with that many hardware threads.
const FLOOR_SPEEDUP: f64 = 2.0;

const CLI: Cli = Cli {
    flags: &["--scale", "--seeds", "--threads", "--check", "--out"],
    scale: "quick",
    seeds: 1,
};

/// The sweep's thread counts: powers of two from 1 to `max`, plus
/// `max` itself when it is not a power of two.
fn sweep_points(max: usize) -> Vec<usize> {
    let mut points = Vec::new();
    let mut t = 1usize;
    while t <= max {
        points.push(t);
        t *= 2;
    }
    if *points.last().expect("at least threads=1") != max {
        points.push(max);
    }
    points
}

struct Point {
    threads: usize,
    wall_ms: u64,
    events: u64,
    events_per_sec: f64,
    digest_fnv: String,
}

fn measure(plan: &RunPlan, threads: usize) -> Point {
    eprintln!(
        "running {} shards on {threads} thread(s)...",
        plan.shards.len()
    );
    let started = Instant::now();
    let report = plan.run_with_threads(threads);
    let wall_ms = started.elapsed().as_millis().max(1) as u64;
    let events = report.total_events();
    Point {
        threads,
        wall_ms,
        events,
        events_per_sec: events as f64 * 1000.0 / wall_ms as f64,
        digest_fnv: format!("{:016x}", report.digest_fnv64()),
    }
}

/// Measures the serial point, then the wider ones — [`FLOOR_THREADS`]
/// under `--check`, the whole sweep otherwise — failing on any
/// digest that differs from the serial run's.
fn run(opts: &RunOptions, plan: &RunPlan) -> Result<(), String> {
    let recorded = Baseline::read_if_check(opts, BENCH_FILE)?;
    let serial = measure(plan, 1);
    if let Some(recorded) = &recorded {
        recorded.expect("digest_fnv", &serial.digest_fnv)?;
        let baseline_eps: f64 = recorded
            .field("events_per_sec")
            .and_then(|v| v.parse().ok())
            .ok_or("baseline records no events_per_sec")?;
        println!(
            "# check: digest ok; {:.0} events/sec vs baseline {baseline_eps:.0} ({:.0}% floor)",
            serial.events_per_sec,
            REGRESSION_FLOOR * 100.0
        );
        if serial.events_per_sec < REGRESSION_FLOOR * baseline_eps {
            return Err(format!(
                "events/sec regressed more than {:.0}%: {:.0} vs baseline {baseline_eps:.0}",
                (1.0 - REGRESSION_FLOOR) * 100.0,
                serial.events_per_sec
            ));
        }
    }

    let wider = if recorded.is_some() {
        vec![FLOOR_THREADS]
    } else {
        // `threads_from(None)` is the hardware thread count.
        let max = opts
            .threads
            .unwrap_or_else(|| threads_from(None).max(FLOOR_THREADS));
        sweep_points(max).split_off(1)
    };
    let mut curve = vec![serial];
    for threads in wider {
        let point = measure(plan, threads);
        if point.digest_fnv != curve[0].digest_fnv {
            return Err(format!(
                "threads=1 and threads={threads} diverged ({} vs {}); \
                 the scheduler broke merge invariance",
                point.digest_fnv, curve[0].digest_fnv
            ));
        }
        curve.push(point);
    }
    if recorded.is_some() {
        return scaling_floor(&curve);
    }
    record(opts, plan, &curve);
    Ok(())
}

/// The `--check` scaling gate over the `[1, FLOOR_THREADS]` curve.
fn scaling_floor(curve: &[Point]) -> Result<(), String> {
    let speedup = curve[0].wall_ms as f64 / curve[1].wall_ms as f64;
    let hw = threads_from(None);
    println!(
        "# check: digests identical; threads={FLOOR_THREADS} speedup {speedup:.2}x \
         on {hw} hardware thread(s)"
    );
    if hw < FLOOR_THREADS {
        println!(
            "# check: scaling floor skipped ({hw} hardware thread(s) < {FLOOR_THREADS}); \
             digest gates still enforced"
        );
    } else if speedup < FLOOR_SPEEDUP {
        return Err(format!(
            "SCALING REGRESSION — threads={FLOOR_THREADS} speedup {speedup:.2}x \
             is below the {FLOOR_SPEEDUP:.1}x floor"
        ));
    }
    Ok(())
}

/// The pre-optimisation `(seed_wall_ms, seed_events_per_sec)` from the
/// checked-in baseline, when it was recorded at `scale`. Never read
/// from `--out`, so a scratch run cannot become its own seed.
fn seed_baseline(scale: &str) -> Option<(u64, f64)> {
    let text = std::fs::read_to_string(BENCH_FILE).ok()?;
    if json_field(&text, "scale")? != scale {
        return None;
    }
    Some((
        json_field(&text, "seed_wall_ms")?.parse().ok()?,
        json_field(&text, "seed_events_per_sec")?.parse().ok()?,
    ))
}

fn record(opts: &RunOptions, plan: &RunPlan, curve: &[Point]) {
    let serial = &curve[0];
    let seed = seed_baseline(&opts.scale_name);
    let seed_fields = seed.map_or(String::new(), |(seed_wall_ms, seed_eps)| {
        format!(
            "  \"seed_wall_ms\": {seed_wall_ms},\n  \"seed_events_per_sec\": {seed_eps:.0},\n  \
             \"speedup_vs_seed\": {:.2},\n",
            seed_wall_ms as f64 / serial.wall_ms as f64
        )
    });
    let rows: Vec<String> = curve
        .iter()
        .map(|p| {
            let speedup = serial.wall_ms as f64 / p.wall_ms as f64;
            format!(
                "    {{\"threads\": {}, \"wall_ms\": {}, \"events_per_sec\": {:.0}, \
                 \"speedup\": {:.2}, \"efficiency\": {:.2}}}",
                p.threads,
                p.wall_ms,
                p.events_per_sec,
                speedup,
                speedup / p.threads as f64
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"simperf-probe-comparison\",\n  \
         \"scale\": \"{}\",\n  \"seeds\": {},\n  \"shards\": {},\n  \
         \"hardware_threads\": {},\n  \"events\": {},\n  \"wall_ms\": {},\n  \
         \"events_per_sec\": {:.0},\n  \"digest_fnv\": \"{}\",\n{seed_fields}  \
         \"digests_identical\": true,\n  \"floor_threads\": {FLOOR_THREADS},\n  \
         \"floor_speedup\": {FLOOR_SPEEDUP:.1},\n  \"curve\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        opts.seeds,
        plan.shards.len(),
        threads_from(None),
        serial.events,
        serial.wall_ms,
        serial.events_per_sec,
        serial.digest_fnv,
        rows.join(",\n")
    );
    write_bench_json(opts, BENCH_FILE, &json);
    let best = curve
        .iter()
        .min_by_key(|p| p.wall_ms)
        .expect("at least one point");
    println!(
        "# {} events; serial {} ms = {:.0} events/sec; best {} ms at threads={} ({:.2}x); \
         digest {} at every point",
        serial.events,
        serial.wall_ms,
        serial.events_per_sec,
        best.wall_ms,
        best.threads,
        serial.wall_ms as f64 / best.wall_ms as f64,
        serial.digest_fnv
    );
}

fn main() -> ExitCode {
    let opts = parse_args_with(&CLI);
    banner(
        "Simulator performance",
        "events/sec, wall-clock and thread curve for the probe-comparison plan, digest pinned",
    );
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds as u32);
    run_gate(|| run(&opts, &plan))
}
