//! Shared plumbing for the figure/table regeneration binaries and the
//! CI gate binaries.
//!
//! Every binary parses its command line through [`parse_args_with`]
//! (figures through [`parse_args`]). A binary passes a [`Cli`]: the
//! subset of these flags it reads, plus its own defaults.
//!
//! ```text
//! --scale test|quick|paper   run size
//! --seed N                   RNG seed override
//! --points N                 CDF resolution when printing series
//! --seeds N                  pool N independent replications
//! --threads N                worker threads (default: RIPTIDE_THREADS
//!                            or all cores)
//! --manifest PATH            write the JSON-lines run manifest here
//! --check                    compare against the checked-in
//!                            BENCH_*.json baseline instead of
//!                            rewriting it (gate binaries)
//! --out PATH                 write the BENCH_*.json summary here
//!                            instead of the checked-in default (CI
//!                            smoke runs point this at a scratch dir
//!                            so baselines stay clean); under --check,
//!                            the baseline to compare against
//! ```
//!
//! Simulation-backed binaries run through the parallel experiment
//! engine (`riptide_cdn::engine`): work is sharded per (arm × sender ×
//! replicate) and executed on a worker pool, and results are
//! bit-identical whatever the thread count.
//!
//! Output is plain aligned text with a `# comment` header naming the
//! figure, so runs can be diffed and redirected into EXPERIMENTS.md.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use riptide_cdn::engine::{self, RunPlan, RunReport};
use riptide_cdn::experiment::ExperimentScale;
use riptide_cdn::sim::ProbeOutcome;
use riptide_cdn::stats::{Cdf, PercentileGain};

/// A binary's command line: the flags it reads and its defaults.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The flags the binary accepts, in `--help` order.
    pub flags: &'static [&'static str],
    /// Default `--scale`: `test`, `quick` or `paper`.
    pub scale: &'static str,
    /// Default `--seeds`.
    pub seeds: usize,
}

/// The figure and table binaries' command line.
pub const FIGURE: Cli = Cli {
    flags: &[
        "--scale",
        "--seed",
        "--points",
        "--seeds",
        "--threads",
        "--manifest",
        "--out",
    ],
    scale: "quick",
    seeds: 1,
};

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The `--scale` name the run used (`test`, `quick` or `paper`).
    pub scale_name: String,
    /// The experiment scale.
    pub scale: ExperimentScale,
    /// Points per printed CDF series.
    pub points: usize,
    /// Independent replications (distinct seeds) pooled into one result.
    pub seeds: usize,
    /// Worker threads; `None` defers to `RIPTIDE_THREADS` or the
    /// machine's core count.
    pub threads: Option<usize>,
    /// Where to write the JSON-lines run manifest, if anywhere.
    pub manifest: Option<PathBuf>,
    /// Override for the binary's `BENCH_*.json` output path; `None`
    /// keeps the checked-in default next to the workspace root.
    pub out: Option<PathBuf>,
    /// `--check`: compare against the baseline instead of rewriting it.
    pub check: bool,
}

impl RunOptions {
    /// The options a run gets when no flag is given.
    fn defaults(cli: &Cli) -> RunOptions {
        RunOptions {
            scale_name: cli.scale.to_string(),
            scale: scale_named(cli.scale),
            points: 20,
            seeds: cli.seeds,
            threads: None,
            manifest: None,
            out: None,
            check: false,
        }
    }
}

fn scale_named(name: &str) -> ExperimentScale {
    match name {
        "test" => ExperimentScale::test(),
        "quick" => ExperimentScale::quick(),
        "paper" => ExperimentScale::paper(),
        other => panic!("unknown scale {other:?} (test|quick|paper)"),
    }
}

/// The running binary's name, for `--help` and gate failure messages.
fn program_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem())
        .map_or_else(|| "bench".into(), |s| s.to_string_lossy().into_owned())
}

/// The `--help` line for `cli`'s flags.
fn usage(cli: &Cli) -> String {
    let mut line = format!("usage: {}", program_name());
    for flag in cli.flags {
        let operand = match *flag {
            "--scale" => " test|quick|paper",
            "--check" => "",
            "--manifest" | "--out" => " PATH",
            _ => " N",
        };
        line.push_str(&format!(" [{flag}{operand}]"));
    }
    line
}

/// Parses `std::env::args` with the figure binaries' [`FIGURE`] command
/// line.
///
/// # Panics
///
/// As [`parse_args_with`].
pub fn parse_args() -> RunOptions {
    parse_args_with(&FIGURE)
}

/// Parses `std::env::args` into [`RunOptions`], accepting only `cli`'s
/// flags and starting from its defaults.
///
/// # Panics
///
/// Panics with a usage message on unknown flags or malformed values —
/// appropriate for a CLI entry point.
pub fn parse_args_with(cli: &Cli) -> RunOptions {
    let mut opts = RunOptions::defaults(cli);
    let mut seed = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            println!("{}", usage(cli));
            std::process::exit(0);
        }
        if !cli.flags.contains(&arg.as_str()) {
            panic!("unknown argument {arg:?}; try --help");
        }
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let name = value();
                opts.scale = scale_named(&name);
                opts.scale_name = name;
            }
            "--seed" => seed = Some(value().parse().expect("--seed takes a number")),
            "--points" => opts.points = value().parse().expect("--points takes a number"),
            "--seeds" => {
                // Parsed as u32, the width the plans take, so no cast truncates it.
                let seeds: u32 = value().parse().expect("--seeds takes a positive number");
                opts.seeds = seeds as usize;
                assert!(opts.seeds >= 1, "--seeds must be at least 1");
            }
            "--threads" => {
                let n: usize = value().parse().expect("--threads takes a positive number");
                assert!(n >= 1, "--threads must be at least 1");
                opts.threads = Some(n);
            }
            "--manifest" => opts.manifest = Some(PathBuf::from(value())),
            "--out" => opts.out = Some(PathBuf::from(value())),
            "--check" => opts.check = true,
            other => unreachable!("Cli lists {other:?} but the parser has no case for it"),
        }
    }
    if let Some(seed) = seed {
        opts.scale.seed = seed;
    }
    opts
}

/// Pulls `"key": <value>` out of a flat bench JSON file: the first
/// occurrence, with surrounding quotes stripped. A string scan
/// suffices because the keys read this way are top-level scalars, one
/// per line, above any nested rows (the workspace has no JSON
/// dependency).
pub fn json_field(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find([',', '\n', '}'])
        .expect("bench JSON values end the line");
    Some(rest[..end].trim().trim_matches('"').to_string())
}

/// A gate's checked-in `BENCH_*.json` baseline, read for `--check`.
#[derive(Debug)]
pub struct Baseline {
    path: PathBuf,
    text: String,
}

impl Baseline {
    /// Under `--check`, reads the baseline to compare against — the
    /// `--out` path when given, else `default` — and checks that it
    /// was recorded with this run's parameters; `None` otherwise.
    ///
    /// # Errors
    ///
    /// When the file cannot be read, or when a run-parameter key it
    /// records (`scale`, `seeds`) differs from `opts`; the message
    /// names the key and both values.
    pub fn read_if_check(opts: &RunOptions, default: &str) -> Result<Option<Baseline>, String> {
        if !opts.check {
            return Ok(None);
        }
        let path = out_file(opts, default);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Baseline::parse(path, text, opts).map(Some)
    }

    fn parse(path: PathBuf, text: String, opts: &RunOptions) -> Result<Baseline, String> {
        let baseline = Baseline { path, text };
        for (key, measured) in [
            ("scale", opts.scale_name.clone()),
            ("seeds", opts.seeds.to_string()),
        ] {
            if baseline.field(key).is_some() {
                baseline.expect(key, &measured)?;
            }
        }
        Ok(baseline)
    }

    /// The value the baseline records under `key`, if any.
    pub fn field(&self, key: &str) -> Option<String> {
        json_field(&self.text, key)
    }

    /// Checks that the baseline records `measured` under `key`.
    ///
    /// # Errors
    ///
    /// When the recorded value differs or is missing; the message names
    /// the key, the recorded value and the measured one.
    pub fn expect(&self, key: &str, measured: &str) -> Result<(), String> {
        let recorded = self.field(key).unwrap_or_else(|| "<missing>".into());
        if recorded == measured {
            return Ok(());
        }
        Err(format!(
            "{}: {key} differs: baseline records {recorded}, this run measured {measured}",
            self.path.display()
        ))
    }
}

/// Runs a gate's body and turns its outcome into the exit code: a
/// failure prints `<binary>: <why>` and exits nonzero.
pub fn run_gate(body: impl FnOnce() -> Result<(), String>) -> ExitCode {
    match body() {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{}: {why}", program_name());
            ExitCode::FAILURE
        }
    }
}

/// Median completion time in ms of the `size`-byte probes, or `None`
/// when there are none.
pub fn median_ms(probes: &[ProbeOutcome], size: u64) -> Option<f64> {
    let cdf = Cdf::new(
        probes
            .iter()
            .filter(|p| p.size == size)
            .map(|p| p.completion.as_millis_f64()),
    );
    (!cdf.is_empty()).then(|| cdf.median())
}

/// Per-size median gain in percent of `treated` over `control`, for
/// every size both arms probed.
pub fn median_gains_pct(
    control: &[ProbeOutcome],
    treated: &[ProbeOutcome],
    sizes: &[u64],
) -> Vec<f64> {
    sizes
        .iter()
        .filter_map(
            |&size| match (median_ms(control, size), median_ms(treated, size)) {
                (Some(c), Some(t)) => Some((c - t) / c * 100.0),
                _ => None,
            },
        )
        .collect()
}

/// Mean of [`median_gains_pct`]; 0 when no size was probed by both arms.
pub fn mean_gain_pct(control: &[ProbeOutcome], treated: &[ProbeOutcome], sizes: &[u64]) -> f64 {
    let gains = median_gains_pct(control, treated, sizes);
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// Asserts that a plan's knob-off arms reproduce the plain probe
/// comparison outcome for outcome. Each entry pairs a probe-comparison
/// arm (0 control, 1 Riptide) with the plan's merged outcomes for it.
///
/// # Panics
///
/// Panics naming `what` and the arm on the first divergence.
pub fn assert_reproduces_probe_comparison(
    opts: &RunOptions,
    what: &str,
    arms: &[(u32, Vec<ProbeOutcome>)],
) {
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds as u32);
    let reference = execute_plan(opts, &plan);
    for (arm, outcomes) in arms {
        assert!(
            *outcomes == reference.merged_probes(*arm),
            "{what}: the {} arm diverged from the probe comparison",
            ["control", "riptide"][*arm as usize]
        );
    }
}

/// The `BENCH_*.json` path a binary should write: the `--out` override
/// when given, else `default` (the checked-in baseline location).
pub fn out_file(opts: &RunOptions, default: &str) -> PathBuf {
    opts.out.clone().unwrap_or_else(|| PathBuf::from(default))
}

/// Writes a bench summary to [`out_file`]'s resolution of the path,
/// and echoes it to stdout.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(opts: &RunOptions, default: &str, json: &str) {
    let path = out_file(opts, default);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    print!("{json}");
}

/// The worker-pool size these options resolve to.
pub fn resolved_threads(opts: &RunOptions) -> usize {
    opts.threads.unwrap_or_else(engine::default_threads)
}

/// Executes a plan on the configured worker pool, writing the run
/// manifest when `--manifest` was given.
///
/// # Panics
///
/// Panics if the manifest path cannot be written.
pub fn execute_plan(opts: &RunOptions, plan: &RunPlan) -> RunReport {
    let threads = resolved_threads(opts);
    eprintln!(
        "running {} ({} shards) on {} thread{}...",
        plan.name,
        plan.shards.len(),
        threads,
        if threads == 1 { "" } else { "s" }
    );
    let report = plan.run_with_threads(threads);
    if let Some(path) = &opts.manifest {
        std::fs::write(path, report.manifest_jsonl())
            .unwrap_or_else(|e| panic!("writing manifest {}: {e}", path.display()));
        eprintln!("manifest written to {}", path.display());
    }
    report
}

/// Prints a figure banner.
pub fn banner(figure: &str, what: &str) {
    println!("# {figure}: {what}");
}

/// Prints one CDF as `label, value, cumulative_probability` rows.
pub fn print_cdf_series(label: &str, cdf: &Cdf, points: usize) {
    if cdf.is_empty() {
        println!("{label:>16}  (no samples)");
        return;
    }
    for (value, p) in cdf.series(points) {
        println!("{label:>16}  {value:>12.2}  {p:>6.3}");
    }
}

/// Prints a one-line summary of a CDF.
pub fn print_cdf_summary(label: &str, cdf: &Cdf) {
    if cdf.is_empty() {
        println!("{label:>16}  (no samples)");
        return;
    }
    println!(
        "{label:>16}  n={:<7} min={:<10.2} p25={:<10.2} p50={:<10.2} p75={:<10.2} p90={:<10.2} max={:<10.2}",
        cdf.len(),
        cdf.min(),
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.90),
        cdf.max()
    );
}

/// Prints a Fig. 15/16-style gain table.
pub fn print_gain_table(label: &str, gains: &[PercentileGain]) {
    println!("# {label}");
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "percentile", "control_ms", "riptide_ms", "gain_%"
    );
    for g in gains {
        println!(
            "{:>10} {:>14.1} {:>14.1} {:>9.1}",
            g.percentile,
            g.baseline,
            g.treated,
            g.gain * 100.0
        );
    }
}

/// Runs the paired probe experiment through the parallel engine —
/// sharded per (arm × sender × replicate), seed-paired across arms —
/// and pools the outcomes.
pub fn pooled_probe_comparison(opts: &RunOptions) -> riptide_cdn::experiment::ProbeComparison {
    let plan = RunPlan::probe_comparison(&opts.scale, opts.seeds as u32);
    execute_plan(opts, &plan).comparison()
}

/// Runs the paired probe experiment and prints a Figs. 12–14-style
/// report for one probe size: per sender PoP, per RTT bucket, control vs
/// Riptide completion-time CDF summaries.
pub fn run_probe_time_figure(opts: &RunOptions, size: u64, figure: &str, paper_note: &str) {
    use riptide_cdn::experiment::{completion_by_bucket, probe_sender_sites};

    banner(
        figure,
        &format!(
            "{} KB probe completion times by destination RTT bucket",
            size / 1000
        ),
    );
    eprintln!("running control and riptide arms...");
    let cmp = pooled_probe_comparison(opts);
    let senders = probe_sender_sites(&opts.scale);
    for &sender in &senders {
        let ctl = completion_by_bucket(&cmp.control, sender, size);
        let rip = completion_by_bucket(&cmp.riptide, sender, size);
        println!("\n## sender site {sender}");
        println!(
            "{:>12} {:>10} {:>9} {:>10} {:>10} {:>10}",
            "bucket", "arm", "n", "p50_ms", "p75_ms", "p90_ms"
        );
        for (bucket, cdf) in &ctl {
            print_bucket_row(&bucket.to_string(), "control", cdf);
            if let Some(r) = rip.get(bucket) {
                print_bucket_row(&bucket.to_string(), "riptide", r);
            }
        }
    }
    println!("\n# paper: {paper_note}");
}

fn print_bucket_row(bucket: &str, arm: &str, cdf: &Cdf) {
    if cdf.is_empty() {
        println!("{bucket:>12} {arm:>10}  (no samples)");
        return;
    }
    println!(
        "{:>12} {:>10} {:>9} {:>10.1} {:>10.1} {:>10.1}",
        bucket,
        arm,
        cdf.len(),
        cdf.median(),
        cdf.quantile(0.75),
        cdf.quantile(0.90)
    );
}

/// Runs the paired probe experiment and prints a Figs. 15/16-style
/// per-percentile gain report for one probe size, for both sender PoPs.
pub fn run_gain_figure(opts: &RunOptions, size: u64, figure: &str, paper_note: &str) {
    use riptide_cdn::experiment::{gain_by_percentile, probe_sender_sites};

    banner(
        figure,
        &format!(
            "fraction of completion-time gain by percentile, {} KB probes",
            size / 1000
        ),
    );
    eprintln!("running control and riptide arms...");
    let cmp = pooled_probe_comparison(opts);
    for &sender in &probe_sender_sites(&opts.scale) {
        let gains = gain_by_percentile(&cmp, sender, size);
        print_gain_table(&format!("sender site {sender}"), &gains);
        let best = gains
            .iter()
            .max_by(|a, b| a.gain.total_cmp(&b.gain))
            .expect("non-empty gain table");
        println!(
            "# best gain {:.1}% at p{}\n",
            best.gain * 100.0,
            best.percentile
        );
    }
    println!("# paper: {paper_note}");
}

/// Log-spaced file sizes between `lo` and `hi` bytes, inclusive.
pub fn log_spaced_sizes(lo: u64, hi: u64, points: usize) -> Vec<u64> {
    assert!(lo > 0 && hi > lo && points >= 2, "bad sweep bounds");
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    (0..points)
        .map(|i| (l + (h - l) * i as f64 / (points - 1) as f64).exp().round() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_spacing_endpoints_and_monotonicity() {
        let s = log_spaced_sizes(1_000, 10_000_000, 9);
        assert_eq!(s.len(), 9);
        assert_eq!(s[0], 1_000);
        assert_eq!(*s.last().unwrap(), 10_000_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "bad sweep bounds")]
    fn log_spacing_rejects_degenerate() {
        let _ = log_spaced_sizes(10, 10, 5);
    }

    /// Every `BENCH_*.json` key a gate's `--check` or record mode reads.
    const GATE_KEYS: [(&str, &[&str]); 5] = [
        (
            "BENCH_simperf.json",
            &[
                "scale",
                "seeds",
                "digest_fnv",
                "events_per_sec",
                "seed_wall_ms",
                "seed_events_per_sec",
            ],
        ),
        ("BENCH_coldstart.json", &["scale", "seeds", "digest_fnv"]),
        (
            "BENCH_megacdn.json",
            &["scale", "lookup_digest", "roundtrip_digest"],
        ),
        ("BENCH_policyarena.json", &["scale", "seeds", "digest_fnv"]),
        ("BENCH_scenarios.json", &["scale", "seeds", "digest_fnv"]),
    ];

    fn checked_in(file: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    fn options(scale: &'static str, seeds: usize) -> RunOptions {
        RunOptions::defaults(&Cli {
            flags: &[],
            scale,
            seeds,
        })
    }

    #[test]
    fn every_gate_key_parses_from_its_checked_in_baseline() {
        for (file, keys) in GATE_KEYS {
            let text = checked_in(file);
            for key in keys {
                let value =
                    json_field(&text, key).unwrap_or_else(|| panic!("{file} records no {key}"));
                let ok = match *key {
                    "scale" => ["test", "quick", "paper"].contains(&value.as_str()),
                    "seeds" => value.parse::<usize>().is_ok_and(|n| n >= 1),
                    k if k.ends_with("digest") || k.ends_with("_fnv") => {
                        value.len() == 16 && u64::from_str_radix(&value, 16).is_ok()
                    }
                    _ => value.parse::<f64>().is_ok_and(|v| v > 0.0),
                };
                assert!(ok, "{file}: {key} = {value:?} does not parse");
            }
        }
    }

    #[test]
    fn a_wrong_baseline_names_the_key_and_both_values() {
        let text = checked_in("BENCH_coldstart.json");
        let opts = options("test", 2);
        let path = PathBuf::from("BENCH_coldstart.json");
        let digest = json_field(&text, "digest_fnv").unwrap();

        let ok = Baseline::parse(path.clone(), text.clone(), &opts).unwrap();
        ok.expect("digest_fnv", &digest).unwrap();

        let flipped = format!(
            "{}{}",
            if digest.starts_with('0') { '1' } else { '0' },
            &digest[1..]
        );
        let drifted =
            Baseline::parse(path.clone(), text.replace(&digest, &flipped), &opts).unwrap();
        let why = drifted.expect("digest_fnv", &digest).unwrap_err();
        for part in ["digest_fnv", flipped.as_str(), digest.as_str()] {
            assert!(why.contains(part), "{why:?} lacks {part:?}");
        }
        let bare = Baseline::parse(path.clone(), "{}".into(), &opts).unwrap();
        let why = bare.expect("digest_fnv", &digest).unwrap_err();
        assert!(why.contains("baseline records <missing>"), "{why}");

        for (key, recorded, measured, opts) in [
            ("scale", "test", "quick", options("quick", 2)),
            ("seeds", "2", "3", options("test", 3)),
        ] {
            let why = Baseline::parse(path.clone(), text.clone(), &opts).unwrap_err();
            for part in [key, recorded, measured] {
                assert!(why.contains(part), "{why:?} lacks {part:?}");
            }
        }
    }
}
