//! Telemetry smoke benchmark: runs one probe-comparison plan with the
//! metrics bundle attached and checks the observability layer's three
//! load-bearing claims end to end —
//!
//! 1. the merged snapshot is thread-count invariant,
//! 2. key counters actually moved (the bundle is wired, not decorative),
//! 3. telemetry is zero-overhead: stripping the `metrics=` tokens from
//!    the instrumented digest recovers the uninstrumented digest byte
//!    for byte.
//!
//! Results land in `BENCH_telemetry.json`.
//!
//! ```text
//! cargo run --release --bin telemetry -- --scale test --seeds 1
//! ```

use riptide_bench::{banner, parse_args, resolved_threads, write_bench_json};
use riptide_cdn::engine::RunPlan;

fn main() {
    let opts = parse_args();
    banner(
        "Telemetry",
        "metrics snapshot invariance and zero-overhead check for one probe plan",
    );
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds.max(1) as u32);
    let instrumented = plan.clone().with_telemetry();
    let threads = resolved_threads(&opts).max(2);

    eprintln!(
        "running {} instrumented shards on 1 and {threads} thread(s)...",
        instrumented.shards.len()
    );
    let serial = instrumented.run_with_threads(1);
    let parallel = instrumented.run_with_threads(threads);
    let thread_invariant = serial.digest() == parallel.digest()
        && serial.merged_metrics() == parallel.merged_metrics();
    assert!(thread_invariant, "merged metrics diverged across pools");

    eprintln!("running the uninstrumented control...");
    let plain = plan.run_with_threads(threads);
    let stripped: String = serial
        .digest()
        .lines()
        .map(|l| match l.find(" metrics=") {
            Some(cut) => format!("{}\n", &l[..cut]),
            None => format!("{l}\n"),
        })
        .collect();
    let zero_overhead = stripped == plain.digest() && plain.merged_metrics().is_empty();
    assert!(zero_overhead, "telemetry perturbed the simulation digest");

    let merged = serial.merged_metrics();
    let count = |name: &str| merged.value(name).unwrap_or(0);
    let ticks = count("riptide_ticks_total");
    let observations = count("riptide_observations_total");
    let route_updates = count("riptide_route_updates_total");
    let expirations = count("riptide_route_expirations_total");
    assert!(
        ticks > 0 && observations > 0 && route_updates > 0,
        "key counters stayed at zero: ticks={ticks} observations={observations} \
         route_updates={route_updates}"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"telemetry-probe-plan\",\n  \
         \"shards\": {},\n  \"threads\": {},\n  \
         \"thread_invariant\": {},\n  \"zero_overhead\": {},\n  \
         \"riptide_ticks_total\": {},\n  \"riptide_observations_total\": {},\n  \
         \"riptide_route_updates_total\": {},\n  \"riptide_route_expirations_total\": {},\n  \
         \"metric_families\": {}\n}}\n",
        instrumented.shards.len(),
        threads,
        thread_invariant,
        zero_overhead,
        ticks,
        observations,
        route_updates,
        expirations,
        merged.len()
    );
    write_bench_json(&opts, "BENCH_telemetry.json", &json);
    println!(
        "# {} shards: thread-invariant metrics, zero-overhead digests, \
         {route_updates} route updates across {ticks} agent ticks",
        instrumented.shards.len()
    );
}
