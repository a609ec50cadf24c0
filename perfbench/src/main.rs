//! The repository benchmark.
//!
//! ```text
//! perfbench --workload probe-quick|scenario-mix|agent-poll --seed N
//!           --seconds S --trace 0|1 [--scale full|tiny]
//!           [--expect-digest HEX] [--spans-out PATH]
//! ```
//!
//! Prints one JSON record line (provenance, sample counts, digests,
//! checks and, when traced, what the trace could not attribute), then
//! the result line: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones. Exits 1 when an output
//! check fails and 2 on a usage or environment error.
//! `perfbench/README.md` defines every metric.

mod agent;
mod report;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::{JsonObj, Metrics, END_TO_END, PER_LAYER};
use sim::Sim;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sim(Sim),
    AgentPoll,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("probe-quick", Workload::Sim(Sim::ProbeQuick)),
        ("scenario-mix", Workload::Sim(Sim::ScenarioMix)),
        ("agent-poll", Workload::AgentPoll),
    ];

    /// The seed each workload defaults to: the simulator workloads use
    /// the seed their digest is pinned at, agent-poll the mega-CDN
    /// generator's own default.
    fn default_seed(self) -> u64 {
        match self {
            Workload::Sim(s) => s.pinned().0,
            Workload::AgentPoll => riptide_cdn::megacdn::MegaCdnConfig::quick().seed,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    workload: Workload,
    workload_name: String,
    pub seed: u64,
    pub seconds: f64,
    traced: bool,
    pub tiny: bool,
    pub expect_digest: Option<String>,
    spans_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut tiny) =
        (None, None, 10.0_f64, false, false);
    let (mut expect_digest, mut spans_out) = (None, None);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::ALL
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or(format!("unknown workload {name:?}"))?;
                workload = Some((name, w.1));
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale takes full or tiny, not {other:?}")),
                }
            }
            "--expect-digest" => expect_digest = Some(value()?),
            "--spans-out" => spans_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let (workload_name, workload) = workload.ok_or("--workload is required")?;
    Ok(Opts {
        seed: seed.unwrap_or(workload.default_seed()),
        workload,
        workload_name,
        seconds,
        traced,
        tiny,
        expect_digest,
        spans_out,
    })
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What one run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: shards, or polls.
    pub attempted: u64,
    /// Every failed output check, described.
    pub failures: Vec<String>,
    /// Workload-specific facts for the record line.
    pub record: JsonObj,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

pub struct Coverage {
    pub covered_share: f64,
    /// Unattributed span name → `{"share": .., "holds": ..}`.
    pub unattributed_json: String,
}

/// How much of the timed section the trace attributes to a layer.
///
/// The timed section is every root span except set-up (`setup.*`) and
/// output checks (`check.*`). A span's self time is attributed to its
/// layer unless its name is in `unattributed`: spans whose self time
/// mixes layers this benchmark cannot split from outside the program.
pub fn coverage(
    spans: &[trace::Span],
    names: &BTreeMap<&'static str, trace::NameTotals>,
    unattributed: &[(&str, &str)],
) -> Coverage {
    let selfs = trace::self_times(spans);
    let mut timed = vec![false; spans.len()];
    let mut timed_ns = 0u64;
    let mut dark_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        timed[i] = match s.parent {
            Some(p) => timed[p],
            None => !s.name.starts_with("setup.") && !s.name.starts_with("check."),
        };
        if !timed[i] {
            continue;
        }
        if s.parent.is_none() {
            timed_ns += s.duration_ns();
        }
        if unattributed.iter().any(|(n, _)| *n == s.name) {
            *dark_ns.entry(s.name).or_default() += selfs[i];
        }
    }
    let total = timed_ns.max(1) as f64;
    let mut detail = JsonObj::default();
    for &(name, holds) in unattributed {
        if names.contains_key(name) {
            let share = dark_ns.get(name).copied().unwrap_or(0) as f64 / total;
            detail.raw(
                name,
                format!(
                    "{{\"share\": {}, \"holds\": {}}}",
                    report::num(share),
                    report::quote(holds)
                ),
            );
        }
    }
    Coverage {
        covered_share: 1.0 - dark_ns.values().sum::<u64>() as f64 / total,
        unattributed_json: detail.render(),
    }
}

/// Machine provenance handed in by `run.py` (git rev, rustc, CPU),
/// which sees the checkout and the toolchain the binary was built with.
fn provenance(opts: &Opts) -> String {
    let mut p = JsonObj::default();
    let env = std::env::var("PERFBENCH_PROVENANCE").unwrap_or_default();
    let env = env.trim();
    if env.starts_with('{') && env.ends_with('}') {
        p.raw("machine", env.to_string());
    } else {
        p.str("machine", "unknown: run through perfbench/run.py");
    }
    p.int("nproc", nproc() as u64)
        .str("workload", &opts.workload_name)
        .int("seed", opts.seed)
        .int("default_seed", opts.workload.default_seed())
        .str("scale", if opts.tiny { "tiny" } else { "full" })
        .bool("traced", opts.traced);
    p.render()
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (opts.workload, opts.traced) {
        (Workload::Sim(s), false) => sim::run(s, &opts),
        (Workload::Sim(s), true) => sim::traced(s, &opts),
        (Workload::AgentPoll, false) => agent::run(&opts),
        (Workload::AgentPoll, true) => agent::traced(&opts),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.spans_out {
        if let Err(e) = trace::write_jsonl(&outcome.spans, path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let catalog = if opts.traced { PER_LAYER } else { END_TO_END };
    let metrics = match outcome.metrics.render(catalog) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = outcome.failures.is_empty();
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let mut record = outcome.record;
    record.raw("provenance", provenance(&opts)).raw(
        "failures",
        format!(
            "[{}]",
            outcome
                .failures
                .iter()
                .map(|f| report::quote(f))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    println!("{{\"record\": {}}}", record.render());
    // A failed check fails every operation of the run.
    let failed = if correct { 0 } else { outcome.attempted };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
