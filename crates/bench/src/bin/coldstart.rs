//! Cold-start ramp-up: how fast a crash-restarted PoP agent climbs back
//! to 90% of its pre-crash installed-window mass, with durability off
//! (relearn from scratch), local snapshot+journal restore, and
//! snapshot+gossip anti-entropy fleet sync.
//!
//! Sweeps machine-crash rates over the three-arm §IV-B2 probe setup
//! ([`RunPlan::coldstart_sweep`]) — all arms seed-paired, so every mode
//! sees the *same* crash schedule — and reports per rate the tracked
//! restarts, recoveries and mean ramp seconds of each mode. Asserts the
//! durability claims:
//!
//! * at a zero crash rate the persistence-off arm reproduces the
//!   fault-free Riptide probe arm bit for bit, and the snapshot arm's
//!   probes are identical to the persistence-off arm's (journalling and
//!   snapshotting are pure bookkeeping until a crash consumes them);
//! * under crashes the snapshot arms restore routes and ramp back
//!   measurably faster than relearning cold.
//!
//! Writes a machine-readable summary to `BENCH_coldstart.json`.
//!
//! ```text
//! cargo run --release --bin coldstart -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode runs the sweep and rewrites `BENCH_coldstart.json`.
//! * `--check` regression mode for CI: re-runs the sweep and compares
//!   the run digest against the recorded baseline (**drift is fatal**)
//!   instead of rewriting it.
//! * In **every** mode the run fails unless, at each positive crash
//!   rate, every arm tracked restarts and both warm arms beat the cold
//!   arm's mean ramp by at least [`FLOOR_IMPROVEMENT`].

use std::process::ExitCode;

use riptide_bench::{
    assert_reproduces_probe_comparison, banner, execute_plan, parse_args_with, run_gate,
    write_bench_json, Baseline, Cli, RunOptions,
};
use riptide_cdn::engine::{RunPlan, RunReport};
use riptide_cdn::sim::ColdstartReport;

const BENCH_FILE: &str = "BENCH_coldstart.json";
/// Crash rates swept; the last entry is the rate `--check` gates on.
const RATES: [f64; 2] = [0.0, 0.05];
/// Minimum cold-over-warm mean-ramp ratio `--check` demands of both
/// warm arms at the top crash rate. A restored table is live the tick
/// the agent comes back, so in practice the ratio is far larger.
const FLOOR_IMPROVEMENT: f64 = 1.5;

const MODES: [&str; 3] = ["cold", "snapshot", "snapshot+gossip"];

const CLI: Cli = Cli {
    flags: &["--scale", "--seeds", "--threads", "--check", "--out"],
    scale: "test",
    seeds: 2,
};

/// The three per-mode merged reports of one crash-rate index.
fn mode_reports(report: &RunReport, rate_idx: usize) -> [ColdstartReport; 3] {
    let base = 3 * rate_idx as u32;
    [
        report.merged_coldstart_report(base),
        report.merged_coldstart_report(base + 1),
        report.merged_coldstart_report(base + 2),
    ]
}

/// Mean ramp seconds, or `-1` when the arm never completed a ramp —
/// bench JSON stays one scalar per field for the flat scanner.
fn ramp_or_neg(r: &ColdstartReport) -> f64 {
    r.mean_ramp_secs().unwrap_or(-1.0)
}

/// Gate one warm arm against the cold arm at the top rate: pass when
/// the cold arm never recovered at all (a warm recovery beats an
/// unfinished cold ramp outright), else demand the mean-ramp ratio.
fn warm_beats_cold(
    cold: &ColdstartReport,
    warm: &ColdstartReport,
    arm: &str,
) -> Result<(), String> {
    let Some(warm_mean) = warm.mean_ramp_secs() else {
        return Err(format!("{arm} arm completed no ramp — nothing to gate"));
    };
    match cold.mean_ramp_secs() {
        None => {
            assert!(
                cold.unrecovered > 0,
                "cold arm has no ramps at a positive crash rate"
            );
            Ok(())
        }
        Some(cold_mean) => {
            let ratio = cold_mean / warm_mean.max(1e-9);
            if ratio < FLOOR_IMPROVEMENT {
                return Err(format!(
                    "RAMP REGRESSION — {arm} arm ramps {warm_mean:.2}s vs cold \
                     {cold_mean:.2}s ({ratio:.2}x, floor {FLOOR_IMPROVEMENT:.1}x)"
                ));
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_args_with(&CLI);
    banner(
        "Cold start",
        "restart ramp-up with persistence off / snapshot / snapshot+gossip",
    );
    run_gate(|| run(&opts))
}

fn run(opts: &RunOptions) -> Result<(), String> {
    let recorded = Baseline::read_if_check(opts, BENCH_FILE)?;
    let plan = RunPlan::coldstart_sweep(&opts.scale, &RATES, opts.seeds as u32);
    let report = execute_plan(opts, &plan);
    let digest_fnv = format!("{:016x}", report.digest_fnv64());
    if let Some(recorded) = &recorded {
        recorded.expect("digest_fnv", &digest_fnv)?;
    }

    // Digest-neutrality gate: at a zero crash rate the persistence-off
    // arm must be bit-identical to the fault-free Riptide probe arm,
    // and the snapshot arm must probe identically to it — durability is
    // pure bookkeeping until a crash consumes it. (Gossip legitimately
    // differs: merged entries jump-start connections.)
    assert_reproduces_probe_comparison(
        opts,
        "zero-rate cold",
        &[(1, report.merged_coldstart_probes(0))],
    );
    assert_eq!(
        report.merged_coldstart_probes(1),
        report.merged_coldstart_probes(0),
        "snapshot bookkeeping changed probe outcomes without any crash"
    );
    println!("# zero-rate cold arm bit-identical to the fault-free probe comparison");
    println!("# zero-rate snapshot arm probes identical to the cold arm");

    println!(
        "{:>6} {:>16} {:>9} {:>11} {:>11} {:>10} {:>10} {:>9}",
        "rate", "mode", "restarts", "recoveries", "mean_ramp_s", "restored", "snapshots", "journal"
    );
    let mut rows = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let reports = mode_reports(&report, i);
        for (mode, r) in MODES.iter().zip(&reports) {
            println!(
                "{:>6} {:>16} {:>9} {:>11} {:>11} {:>10} {:>10} {:>9}",
                rate,
                mode,
                r.restarts_tracked,
                r.recoveries,
                r.mean_ramp_secs().map_or("-".into(), |s| format!("{s:.2}")),
                r.restored_routes,
                r.snapshots_written,
                r.journal_records,
            );
        }
        let [cold, snap, gossip] = &reports;
        if rate > 0.0 {
            println!(
                "#   rate {rate}: gossip rounds {} / pairs {} / shipped {} / accepted {} / \
                 digests matched {} / backoffs {}",
                gossip.gossip_rounds,
                gossip.gossip_pairs,
                gossip.entries_shipped,
                gossip.entries_accepted,
                gossip.digests_matched,
                gossip.gossip_backoff_skips,
            );
            for (arm, r) in MODES.iter().zip(&reports) {
                if r.restarts_tracked == 0 {
                    return Err(format!(
                        "{arm} arm tracked no restarts at rate {rate} — the crash schedule \
                         went missing"
                    ));
                }
            }
            warm_beats_cold(cold, snap, "snapshot")
                .and_then(|()| warm_beats_cold(cold, gossip, "snapshot+gossip"))
                .map_err(|why| format!("rate {rate}: {why}"))?;
        }
        rows.push(format!(
            "    {{\"rate\": {rate}, \"cold_ramp_s\": {:.3}, \"snapshot_ramp_s\": {:.3}, \
             \"gossip_ramp_s\": {:.3}, \"cold_unrecovered\": {}, \"restored_routes\": {}, \
             \"entries_accepted\": {}}}",
            ramp_or_neg(cold),
            ramp_or_neg(snap),
            ramp_or_neg(gossip),
            cold.unrecovered,
            snap.restored_routes + gossip.restored_routes,
            gossip.entries_accepted,
        ));
    }

    if recorded.is_some() {
        println!(
            "# check: digest identical ({digest_fnv}); warm arms beat the cold ramp at every \
             positive rate (floor {FLOOR_IMPROVEMENT:.1}x)"
        );
        return Ok(());
    }

    let [cold, snap, gossip] = mode_reports(&report, RATES.len() - 1);
    let json = format!(
        "{{\n  \"benchmark\": \"coldstart-sweep\",\n  \"scale\": \"{}\",\n  \
         \"seeds\": {},\n  \"sites\": {},\n  \"simulated_secs\": {},\n  \
         \"shards\": {},\n  \"digest_fnv\": \"{}\",\n  \
         \"floor_improvement\": {:.1},\n  \"zero_rate_bit_identical\": true,\n  \
         \"top_rate_restarts\": {},\n  \"rates\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        opts.seeds,
        opts.scale.sites,
        opts.scale.total().as_secs_f64().round() as u64,
        plan.shards.len(),
        digest_fnv,
        FLOOR_IMPROVEMENT,
        cold.restarts_tracked + snap.restarts_tracked + gossip.restarts_tracked,
        rows.join(",\n")
    );
    write_bench_json(opts, BENCH_FILE, &json);
    println!("# warm arms beat the cold ramp at every positive rate");
    Ok(())
}
