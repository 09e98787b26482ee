//! Metric definitions, the per-repetition record a worker process hands
//! back to the coordinating process, and the final result line.

use palo_codec::json::{push_json_f64, push_json_str, Json};
use std::fmt::Write as _;

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run of every workload.
/// Each is defined on all three workloads. Timings other than set-up are
/// not among them: on the 2-vCPU reference host the same work runs
/// 15–40% faster or slower from one minute to the next, so throughput and
/// latency spread more between runs than the largest allowed bound. They
/// are reported unbounded, in the results file and per layer.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("correct_ratio", "ratio", "higher"),
];

/// The suite's nests, in `Benchmark::all()` order (3mm contributes three
/// stages). Per-nest simulator metrics are keyed by these names.
pub const SUITE_NESTS: [&str; 14] = [
    "convlayer",
    "doitgen",
    "matmul",
    "3mm_e",
    "3mm_f",
    "3mm_g",
    "gemm",
    "trmm",
    "syrk",
    "syr2k",
    "tpm",
    "tp",
    "copy",
    "mask",
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer that does no work on a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str, better: &'static str| {
        out.push((name.to_string(), unit, better));
    };
    push("exec.walker.ns_per_line", "ns", "lower");
    push("cachesim.ns_per_line", "ns", "lower");
    for nest in SUITE_NESTS {
        push(&format!("exec.walker.ns_per_line.{nest}"), "ns", "lower");
    }
    for nest in SUITE_NESTS {
        push(&format!("cachesim.ns_per_line.{nest}"), "ns", "lower");
    }
    for (name, unit, better) in [
        ("cachesim.mlines_per_s", "Mlines/s", "higher"),
        ("cachesim.lines", "count", "lower"),
        ("cachesim.events", "count", "lower"),
        ("cachesim.lines_per_event", "ratio", "higher"),
        ("cachesim.cycles_skipped", "count", "higher"),
        ("cachesim.l1.demand_misses", "count", "lower"),
        ("cachesim.l2.demand_misses", "count", "lower"),
        ("cachesim.l1.pf_accuracy", "ratio", "higher"),
        ("cachesim.l2.pf_accuracy", "ratio", "higher"),
        ("cachesim.mem.fills", "count", "lower"),
        ("sim.sched_ms_geomean", "sim_ms", "lower"),
        ("core.classify.ms", "ms", "lower"),
        ("core.optimize.ms", "ms", "lower"),
        ("core.model.paper.ms", "ms", "lower"),
        ("baselines.tss.ms", "ms", "lower"),
        ("baselines.tts.ms", "ms", "lower"),
        ("core.degrade.ms", "ms", "lower"),
        ("core.simulate.ms", "ms", "lower"),
        ("core.search.evaluated", "count", "lower"),
        ("core.search.pruned_ratio", "ratio", "higher"),
        ("sched.lower.ms", "ms", "lower"),
        ("exec.validate.ms", "ms", "lower"),
        ("store.hit_ratio", "ratio", "higher"),
        ("store.hits", "count", "higher"),
        ("store.misses", "count", "lower"),
        ("store.mem.evictions", "count", "lower"),
        ("store.disk.bytes_written", "bytes", "lower"),
        ("store.anomalies", "count", "lower"),
        ("store.warm_replay_ms", "ms", "lower"),
        ("codec.decode_ns_per_byte", "ns", "lower"),
        ("serve.submit_us.p50", "us", "lower"),
        ("serve.queue_wait_ms.p99", "ms", "lower"),
        ("serve.service_ms.p50", "ms", "lower"),
        ("serve.p50_ms", "ms", "lower"),
        ("serve.p99_ms", "ms", "lower"),
        ("serve.interactive_p99_ms", "ms", "lower"),
        ("serve.slo_ratio", "ratio", "higher"),
        ("serve.shed_ratio", "ratio", "lower"),
        ("serve.utilization", "ratio", "lower"),
        ("serve.levels.yellow", "count", "lower"),
        ("serve.levels.red", "count", "lower"),
        ("serve.gen_lag_ms.max", "ms", "lower"),
        ("serve.repeat_share", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ] {
        push(name, unit, better);
    }
    out
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// What one worker process measured in one repetition of a workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Set-up times, one per set-up performed.
    pub setup_s: Vec<f64>,
    /// Per-operation latencies.
    pub latency_ms: Vec<f64>,
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed or answered wrongly.
    pub failed: u64,
    /// Peak resident set of the worker process.
    pub peak_rss_mb: f64,
    /// Workload-level figures (named workload metrics, counts), untraced.
    pub facts: Vec<(String, f64)>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(String, f64)>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Rep {
    /// Records one check: counts it as attempted, and as failed (with
    /// `what` as the reason) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds a workload-level figure.
    pub fn fact(&mut self, name: &str, value: f64) {
        self.facts.push((name.to_string(), value));
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// The value of a fact, if recorded.
    pub fn get_fact(&self, name: &str) -> Option<f64> {
        self.facts.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// One JSON line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_list(&mut out, "setup_s", &self.setup_s);
        out.push(',');
        push_list(&mut out, "latency_ms", &self.latency_ms);
        for (k, v) in [
            ("attempted", self.attempted as f64),
            ("failed", self.failed as f64),
            ("peak_rss_mb", self.peak_rss_mb),
        ] {
            let _ = write!(out, ",\"{k}\":");
            push_json_f64(&mut out, v);
        }
        for (k, map) in [("facts", &self.facts), ("layers", &self.layers)] {
            let _ = write!(out, ",\"{k}\":{{");
            for (i, (name, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, name);
                out.push(':');
                push_json_f64(&mut out, *v);
            }
            out.push('}');
        }
        out.push_str(",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, f);
        }
        out.push_str("]}");
        out
    }

    /// Parses [`Rep::to_json`]'s output.
    pub fn from_json(line: &str) -> Result<Rep, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let num = |k: &str| -> Result<f64, String> {
            v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("missing number {k}"))
        };
        let list = |k: &str| -> Result<Vec<f64>, String> {
            match v.get(k) {
                Some(Json::Arr(xs)) => xs
                    .iter()
                    .map(|x| x.as_f64().ok_or_else(|| format!("non-number in {k}")))
                    .collect(),
                _ => Err(format!("missing list {k}")),
            }
        };
        let map = |k: &str| -> Result<Vec<(String, f64)>, String> {
            match v.get(k) {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(name, x)| {
                        x.as_f64()
                            .map(|f| (name.clone(), f))
                            .ok_or_else(|| format!("non-number {k}.{name}"))
                    })
                    .collect(),
                _ => Err(format!("missing object {k}")),
            }
        };
        let failures = match v.get("failures") {
            Some(Json::Arr(xs)) => {
                xs.iter().filter_map(|x| x.as_str().map(str::to_string)).collect()
            }
            _ => return Err("missing failures".into()),
        };
        Ok(Rep {
            setup_s: list("setup_s")?,
            latency_ms: list("latency_ms")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            peak_rss_mb: num("peak_rss_mb")?,
            facts: map("facts")?,
            layers: map("layers")?,
            failures,
        })
    }
}

fn push_list(out: &mut String, key: &str, values: &[f64]) {
    let _ = write!(out, "\"{key}\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f64(out, *v);
    }
    out.push(']');
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, ");
    out.push_str("\"metrics\": {");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(&mut out, name);
        out.push_str(": {\"value\": ");
        push_json_f64(&mut out, *value);
        out.push_str(", \"unit\": ");
        push_json_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _, _)| n));
        for n in &names {
            assert!(valid_name(n), "illegal metric name {n:?}");
            assert!(n.len() <= 64, "metric name too long: {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("p99%"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let v = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            match v.get(key) {
                Some(Json::Arr(xs)) => xs
                    .iter()
                    .map(|x| {
                        let s =
                            |k: &str| x.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                        (s("name"), s("unit"), s("better"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let e2e: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn a_rep_round_trips_through_json() {
        let mut rep = Rep {
            setup_s: vec![0.25, 0.5],
            latency_ms: vec![1.5],
            peak_rss_mb: 10.0,
            ..Rep::default()
        };
        rep.check(true, || unreachable!());
        rep.check(false, || "a \"quoted\" failure".into());
        rep.fact("cold_suite_s", 17.5);
        rep.layer("cachesim.lines", 123.0);
        assert_eq!(Rep::from_json(&rep.to_json()), Ok(rep));
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[("setup_s".into(), 0.5, "s")]);
        let v = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &v else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
