//! Metric catalog, result rendering and process counters.
//!
//! The catalog below is the benchmark's contract with `BENCHMARK.json`:
//! an untraced run prints every end-to-end metric and a traced run every
//! per-layer metric, each with its unit. A metric that has no meaning on
//! a workload is printed as 0 and named, with the reason, in the run's
//! record line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_mean_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// The scenario-matrix cells, in catalog order.
pub const CELLS: &[&str] = &[
    "baseline",
    "red-drop",
    "red-ecn",
    "lossy-edge",
    "flash-crowd",
    "paced",
];

/// The learning-policy arms, by registered policy name.
pub const POLICIES: &[&str] = &["ewma", "ewma-fast", "p25", "p75", "loss-utility"];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // simnet
    ("simnet.events", "count"),
    ("simnet.segments", "count"),
    ("simnet.acks", "count"),
    ("simnet.retransmits", "count"),
    ("simnet.conns_opened", "count"),
    ("simnet.transfers", "count"),
    ("simnet.offered", "count"),
    ("simnet.lost_overflow", "count"),
    ("simnet.lost_random", "count"),
    ("simnet.lost_aqm", "count"),
    ("simnet.marked_ecn", "count"),
    ("simnet.goodput_ratio", "ratio"),
    ("simnet.delivery_ratio", "ratio"),
    // cdn::sim
    ("sim.new_ms", "ms"),
    ("sim.slice_p50_ms", "ms"),
    ("sim.slice_p90_ms", "ms"),
    ("sim.control_ns_per_event", "ns"),
    ("sim.riptide_ns_per_event", "ns"),
    ("sim.agent_share", "ratio"),
    ("sim.ns_per_event.baseline", "ns"),
    ("sim.ns_per_event.red-drop", "ns"),
    ("sim.ns_per_event.red-ecn", "ns"),
    ("sim.ns_per_event.lossy-edge", "ns"),
    ("sim.ns_per_event.flash-crowd", "ns"),
    ("sim.ns_per_event.paced", "ns"),
    ("sim.arm_overhead.ewma", "ratio"),
    ("sim.arm_overhead.ewma-fast", "ratio"),
    ("sim.arm_overhead.p25", "ratio"),
    ("sim.arm_overhead.p75", "ratio"),
    ("sim.arm_overhead.loss-utility", "ratio"),
    // cdn::engine, cdn::schedule
    ("engine.shard_busy_s", "s"),
    ("engine.shard_p50_ms", "ms"),
    ("engine.shard_p90_ms", "ms"),
    ("engine.digest_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("schedule.idle_s", "s"),
    ("schedule.efficiency", "ratio"),
    ("schedule.speedup", "ratio"),
    // core
    ("agent.tick_p50_ms", "ms"),
    ("agent.tick_p90_ms", "ms"),
    ("agent.observations", "count"),
    ("agent.route_updates", "count"),
    ("agent.route_expirations", "count"),
    ("agent.errors", "count"),
    ("agent.updates_per_observation", "ratio"),
    ("aggregate.merges", "count"),
    ("aggregate.splits", "count"),
    ("table.entries", "count"),
    ("table.evictions", "count"),
    ("guard.trips", "count"),
    ("persist.snapshot_ms", "ms"),
    ("persist.bytes", "B"),
    ("persist.journal_us", "us"),
    ("persist.restore_ms", "ms"),
    ("reconcile.audit_ms", "ms"),
    // linuxnet
    ("ss.parse_ms_p50", "ms"),
    ("ss.rows_per_poll", "count"),
    ("ss.bytes_per_poll", "B"),
    ("route.install_us", "us"),
    ("route.installs", "count"),
    ("route.entries", "count"),
    ("lpm.lookup_ns", "ns"),
    ("lpm.mem_bytes", "B"),
    // the tracing itself
    ("trace.overhead_pct", "%"),
    ("trace.covered_share", "ratio"),
];

/// Metric values for one run, checked against a catalog when rendered.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Metric name → why it does not apply to this workload.
    not_applicable: BTreeMap<&'static str, String>,
}

impl Metrics {
    /// Records `name = value`. `name` must be in one of the catalogs.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values.insert(name, value);
    }

    /// Marks every catalog metric whose name starts with `prefix` and
    /// that has no value yet as not applicable, for `why`.
    pub fn not_applicable(&mut self, prefix: &str, why: &str) {
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            if name.starts_with(prefix) && !self.values.contains_key(name) {
                self.not_applicable.insert(name, why.to_string());
            }
        }
    }

    /// The not-applicable metrics and their reasons, as a JSON object.
    pub fn not_applicable_json(&self) -> String {
        let mut o = JsonObj::default();
        for (name, why) in &self.not_applicable {
            o.str(name, why);
        }
        o.render()
    }

    /// The `metrics` object over `catalog`, or the first problem: a
    /// metric neither measured nor marked not applicable, or a value
    /// that is not a finite number.
    pub fn render(&self, catalog: &[(&str, &str)]) -> Result<String, String> {
        let mut o = JsonObj::default();
        for &(name, unit) in catalog {
            let value = match (
                self.values.get(name),
                self.not_applicable.contains_key(name),
            ) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            o.raw(
                name,
                format!("{{\"value\": {}, \"unit\": {}}}", num(value), quote(unit)),
            );
        }
        Ok(o.render())
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between order statistics. 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat`. The kernel reports them in `USER_HZ` ticks, which
/// Linux fixes at 100 per second for user space.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; the fields after its
    // closing parenthesis start at field 3 (state).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime is field 14 and stime field 15 of the whole line.
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object built field by field, in insertion order.
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    pub fn raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, quote(value))
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, num(value))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn render_requires_every_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(m.render(END_TO_END).is_err());
        m.not_applicable("", "test");
        let out = m.render(END_TO_END).expect("every metric accounted for");
        assert!(out.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(out.contains("\"wall_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        m.set("wall_s", f64::NAN);
        assert!(m.render(END_TO_END).is_err());
    }

    #[test]
    fn proc_counters_read() {
        assert!(cpu_seconds().expect("cpu") >= 0.0);
        assert!(peak_rss_mb().expect("rss") > 0.0);
    }
}
