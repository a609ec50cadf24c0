//! Policy-ablation arena: every registered learning policy races over
//! the seed-paired probe grid, with the run digest pinned so the arena
//! doubles as a behaviour-preservation gate.
//!
//! ```text
//! cargo run --release --bin policy_arena -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode runs [`RunPlan::policy_ablation`] — a control arm
//!   plus one arm per [`registered_policies`] entry, all seed-paired —
//!   and rewrites `BENCH_policyarena.json` with the per-policy
//!   gain-vs-harm frontier (median completion time per probe size vs
//!   the paired control arm).
//! * `--check` regression mode: re-runs and compares against the
//!   checked-in `BENCH_policyarena.json` instead of rewriting it.
//!   Exits nonzero when the digest differs (behaviour drift in any
//!   policy — always fatal).
//! * In **every** mode the default-EWMA arm must reproduce
//!   [`RunPlan::probe_comparison`]'s control and treatment outcomes
//!   bit for bit — the trait seam must cost nothing — and the run
//!   aborts if it does not.
//!
//! [`registered_policies`]: riptide::policy::registered_policies

use std::process::ExitCode;

use riptide::policy::registered_policies;
use riptide_bench::{
    assert_reproduces_probe_comparison, banner, execute_plan, median_gains_pct, parse_args_with,
    run_gate, write_bench_json, Baseline, Cli, RunOptions,
};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::sim::ProbeOutcome;
use riptide_cdn::workload::ProbeConfig;

const BENCH_FILE: &str = "BENCH_policyarena.json";

const CLI: Cli = Cli {
    flags: &["--scale", "--seeds", "--threads", "--check", "--out"],
    scale: "quick",
    seeds: 1,
};

/// One arena arm's frontier point: per-size median gains vs the paired
/// control arm, their mean, and the worst (most harmful) size.
struct Frontier {
    arm: String,
    gains_pct: Vec<f64>,
    mean_gain_pct: f64,
    worst_harm_pct: f64,
}

fn frontier(
    arm: &str,
    control: &[ProbeOutcome],
    treated: &[ProbeOutcome],
    sizes: &[u64],
) -> Frontier {
    let gains = median_gains_pct(control, treated, sizes);
    let mean = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
    let worst = gains.iter().map(|g| -g).fold(f64::NEG_INFINITY, f64::max);
    Frontier {
        arm: arm.to_string(),
        gains_pct: gains,
        mean_gain_pct: mean,
        worst_harm_pct: worst,
    }
}

fn main() -> ExitCode {
    let opts = parse_args_with(&CLI);
    banner(
        "Policy arena",
        "every registered learning policy over the seed-paired probe grid, digest pinned",
    );
    run_gate(|| run(&opts))
}

fn run(opts: &RunOptions) -> Result<(), String> {
    let recorded = Baseline::read_if_check(opts, BENCH_FILE)?;
    let plan = RunPlan::policy_ablation(&opts.scale, opts.seeds as u32);
    let report = execute_plan(opts, &plan);
    let digest_fnv = format!("{:016x}", report.digest_fnv64());

    // The trait seam must cost nothing: the arena's control and
    // default-EWMA arms (scenarios 0 and 1) must reproduce the plain
    // probe comparison outcome for outcome, every run, every mode.
    assert_reproduces_probe_comparison(
        opts,
        "arena",
        &[(0, report.merged_probes(0)), (1, report.merged_probes(1))],
    );
    println!("# ewma arm bit-identical to the probe comparison");

    // Per-policy gain-vs-harm frontier against the paired control arm.
    let sizes = ProbeConfig::default().sizes;
    let control = report.merged_probes(0);
    let mut arms = vec!["control".to_string()];
    arms.extend(
        registered_policies()
            .iter()
            .map(|(name, _)| if *name == "ewma" { "riptide" } else { name }.to_string()),
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>11} {:>11}",
        "policy", "g10k_%", "g50k_%", "g100k_%", "mean_gain%", "worst_harm%"
    );
    let mut frontiers = Vec::new();
    for (s, arm) in arms.iter().enumerate().skip(1) {
        let treated = report.merged_probes(s as u32);
        let f = frontier(arm, &control, &treated, &sizes);
        println!(
            "{:>14} {:>10.1} {:>10.1} {:>10.1} {:>11.1} {:>11.1}",
            f.arm,
            f.gains_pct.first().copied().unwrap_or(f64::NAN),
            f.gains_pct.get(1).copied().unwrap_or(f64::NAN),
            f.gains_pct.get(2).copied().unwrap_or(f64::NAN),
            f.mean_gain_pct,
            f.worst_harm_pct,
        );
        frontiers.push(f);
    }

    if let Some(recorded) = recorded {
        recorded.expect("digest_fnv", &digest_fnv)?;
        println!(
            "# check: digest ok ({digest_fnv}), {} policy arms",
            frontiers.len()
        );
        return Ok(());
    }

    let rows: Vec<String> = frontiers
        .iter()
        .map(|f| {
            let gains: Vec<String> = f.gains_pct.iter().map(|g| format!("{g:.2}")).collect();
            format!(
                "    {{\"policy\": \"{}\", \"gain_pct_by_size\": [{}], \
                 \"mean_gain_pct\": {:.2}, \"worst_harm_pct\": {:.2}}}",
                f.arm,
                gains.join(", "),
                f.mean_gain_pct,
                f.worst_harm_pct
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"policy-arena\",\n  \"scale\": \"{}\",\n  \
         \"seeds\": {},\n  \"shards\": {},\n  \
         \"ewma_bit_identical\": true,\n  \"digest_fnv\": \"{}\",\n  \
         \"probe_sizes\": {:?},\n  \"policies\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        opts.seeds,
        plan.shards.len(),
        digest_fnv,
        sizes,
        rows.join(",\n")
    );
    write_bench_json(opts, BENCH_FILE, &json);
    println!(
        "# frontier recorded for {} policies; digest {digest_fnv}",
        frontiers.len()
    );
    Ok(())
}
