//! Scenario matrix: every registered learning policy raced across the
//! [`scenario_catalog`] regimes (RED/ECN queues, lossy last mile,
//! flash crowds, paced senders), seed-paired, with the run digest
//! pinned so the matrix doubles as a behaviour-preservation gate.
//!
//! ```text
//! cargo run --release --bin scenarios -- [--scale test|quick|paper]
//!     [--seeds N] [--threads N] [--check] [--out PATH]
//! ```
//!
//! * Default mode runs [`RunPlan::scenario_matrix`] and rewrites
//!   `BENCH_scenarios.json` with per-scenario policy rankings (mean
//!   median-completion gain vs each cell's paired control arm).
//! * `--check` regression mode: re-runs and compares against the
//!   checked-in baseline instead of rewriting it. Digest drift is
//!   fatal, as are the two separation claims below.
//! * In **every** mode three claims are enforced:
//!   1. the baseline cell's control and default-EWMA arms reproduce
//!      [`RunPlan::probe_comparison`] bit for bit (the scenario seam
//!      must cost nothing when every knob is off);
//!   2. at least two non-baseline scenarios rank the policies
//!      differently than the baseline regime does — the matrix
//!      actually separates what the flat §IV regime could not;
//!   3. on the lossy-edge cell the loss-utility policy out-gains
//!      default EWMA — loss-blind averaging must pay for its
//!      aggression where random loss punishes big windows.
//!
//! [`scenario_catalog`]: riptide_cdn::scenario::scenario_catalog

use std::process::ExitCode;

use riptide_bench::{
    assert_reproduces_probe_comparison, banner, execute_plan, mean_gain_pct, parse_args_with,
    run_gate, write_bench_json, Baseline, Cli, RunOptions,
};
use riptide_cdn::engine::RunPlan;
use riptide_cdn::scenario::scenario_catalog;
use riptide_cdn::workload::ProbeConfig;

const BENCH_FILE: &str = "BENCH_scenarios.json";

const CLI: Cli = Cli {
    flags: &["--scale", "--seeds", "--threads", "--check", "--out"],
    scale: "test",
    seeds: 2,
};

/// One matrix cell's outcome: each policy arm's mean gain vs the
/// cell's paired control, and the resulting ranking (best first, ties
/// broken by arm name so the order is a pure function of the data).
struct CellResult {
    name: &'static str,
    arm_gains: Vec<(String, f64)>,
    ranking: Vec<String>,
}

fn main() -> ExitCode {
    let opts = parse_args_with(&CLI);
    banner(
        "Scenario matrix",
        "every registered policy across RED/ECN, lossy-edge, flash-crowd and paced regimes",
    );
    run_gate(|| run(&opts))
}

fn run(opts: &RunOptions) -> Result<(), String> {
    let recorded = Baseline::read_if_check(opts, BENCH_FILE)?;
    let plan = RunPlan::scenario_matrix(&opts.scale, opts.seeds as u32);
    let report = execute_plan(opts, &plan);
    let digest_fnv = format!("{:016x}", report.digest_fnv64());

    // Claim 1: with every scenario knob off, the matrix's baseline cell
    // is the plain probe comparison, outcome for outcome.
    assert_reproduces_probe_comparison(
        opts,
        "baseline cell",
        &[(0, report.merged_probes(0)), (1, report.merged_probes(1))],
    );
    println!("# baseline cell bit-identical to the probe comparison");

    let sizes = ProbeConfig::default().sizes;
    let arms = RunPlan::scenario_arms();
    let arms_per = arms.len();
    let catalog = scenario_catalog(&opts.scale);
    let mut cells = Vec::new();
    for (c, spec) in catalog.iter().enumerate() {
        let base = (arms_per * c) as u32;
        let control = report.merged_probes(base);
        let mut arm_gains = Vec::new();
        for (arm_idx, (arm, _)) in arms.iter().enumerate().skip(1) {
            let treated = report.merged_probes(base + arm_idx as u32);
            arm_gains.push((arm.clone(), mean_gain_pct(&control, &treated, &sizes)));
        }
        let mut ranking = arm_gains.clone();
        ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        cells.push(CellResult {
            name: spec.name,
            arm_gains,
            ranking: ranking.into_iter().map(|(a, _)| a).collect(),
        });
    }

    println!(
        "{:>12} {:>46}  ranking",
        "scenario", "mean_gain% per policy arm"
    );
    for cell in &cells {
        let gains: Vec<String> = cell
            .arm_gains
            .iter()
            .map(|(a, g)| format!("{a}={g:.1}"))
            .collect();
        println!(
            "{:>12} {:>46}  {}",
            cell.name,
            gains.join(" "),
            cell.ranking.join(">")
        );
    }

    // Claim 2: the matrix separates the policies — at least two
    // non-baseline regimes produce a different ranking than baseline.
    let divergent: Vec<&str> = cells[1..]
        .iter()
        .filter(|c| c.ranking != cells[0].ranking)
        .map(|c| c.name)
        .collect();
    assert!(
        divergent.len() >= 2,
        "only {} scenario(s) re-ranked the policies ({divergent:?}); \
         the matrix adds no information over the flat regime",
        divergent.len()
    );
    println!(
        "# {} of {} scenarios rank the policies differently than baseline: {}",
        divergent.len(),
        cells.len() - 1,
        divergent.join(", ")
    );

    // Claim 3: where random loss punishes aggressive windows, the
    // loss-aware policy must out-gain loss-blind EWMA.
    let lossy = cells
        .iter()
        .find(|c| c.name == "lossy-edge")
        .expect("catalog has a lossy-edge cell");
    let gain_of = |arm: &str| {
        lossy
            .arm_gains
            .iter()
            .find(|(a, _)| a == arm)
            .map(|(_, g)| *g)
            .expect("arm present")
    };
    let (lu, ewma) = (gain_of("loss-utility"), gain_of("riptide"));
    assert!(
        lu > ewma,
        "loss-utility ({lu:.2}%) must beat EWMA ({ewma:.2}%) on the lossy edge"
    );
    println!("# lossy-edge: loss-utility {lu:.1}% > ewma {ewma:.1}%");

    if let Some(recorded) = recorded {
        recorded.expect("digest_fnv", &digest_fnv)?;
        println!(
            "# check: digest ok ({digest_fnv}), {} cells, {} divergent",
            cells.len(),
            divergent.len()
        );
        return Ok(());
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let gains: Vec<String> = c
                .arm_gains
                .iter()
                .map(|(a, g)| format!("{{\"policy\": \"{a}\", \"mean_gain_pct\": {g:.2}}}"))
                .collect();
            let ranking: Vec<String> = c.ranking.iter().map(|a| format!("\"{a}\"")).collect();
            format!(
                "    {{\"scenario\": \"{}\", \"ranking\": [{}], \"arms\": [{}]}}",
                c.name,
                ranking.join(", "),
                gains.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"scenario-matrix\",\n  \"scale\": \"{}\",\n  \
         \"seeds\": {},\n  \"shards\": {},\n  \
         \"baseline_bit_identical\": true,\n  \"digest_fnv\": \"{}\",\n  \
         \"ranking_divergent_cells\": {},\n  \
         \"lossy_edge_loss_utility_beats_ewma\": true,\n  \
         \"probe_sizes\": {:?},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        opts.scale_name,
        opts.seeds,
        plan.shards.len(),
        digest_fnv,
        divergent.len(),
        sizes,
        rows.join(",\n")
    );
    write_bench_json(opts, BENCH_FILE, &json);
    println!(
        "# scenario matrix recorded for {} cells; digest {digest_fnv}",
        cells.len()
    );
    Ok(())
}
