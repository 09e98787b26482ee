//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-cold|analytic-sweep|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each repetition of a workload runs in a
//! fresh worker process (this binary re-executed with `--worker`), so
//! process-wide memos such as `palo_core::emu`'s start cold every time.
//! With `--trace 0` the coordinating process repeats the workload until
//! `--seconds` have passed and [`MIN_REPS`] have run (serve-mix runs one
//! repetition of that length), times set-up in [`SETUP_PROCESSES`] more
//! processes, and prints the end-to-end metrics; with `--trace 1` it
//! runs [`TRACE_PAIRS`] interleaved untraced/traced pairs and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; a stamped copy of every result goes to `.perfbench/results/`.

mod golden;
mod layers;
mod metrics;
mod serve;
mod span;
mod stats;
mod suite;
mod sweep;

use metrics::{Rep, END_TO_END};
use palo_core::{CacheStats, ModelKind, PipelineReport, SearchStats};
use palo_ir::LoopNest;
use span::Tracer;
use stats::{median, ratio};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The workloads.
const WORKLOADS: [&str; 3] = ["suite-cold", "analytic-sweep", "serve-mix"];

/// Set-ups timed per process; each process reports their median.
const SETUPS: usize = 9;

/// Extra processes per untraced run that only set up. A process's set-up
/// settles at one of two levels about 40% apart (which one varies from
/// process to process on the 2-vCPU reference host), so `setup_s` is the
/// mean over many processes of each one's median.
const SETUP_PROCESSES: usize = 8;

/// Repetitions an untraced run makes at least (serve-mix makes one of
/// `--seconds`). A single worker's peak resident set varies by a few
/// percent with how its two workers' simulations overlap; the median of
/// two narrows that.
const MIN_REPS: usize = 2;

/// Untraced/traced repetition pairs in a traced run.
const TRACE_PAIRS: usize = 2;

/// Where results, spans and scratch cache directories go, relative to
/// the checkout root.
const OUT_DIR: &str = ".perfbench";

/// What a worker process is asked to do.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Repetition index within the run (names scratch files).
    pub rep: usize,
    /// Seconds of offered load (serve-mix).
    pub seconds: f64,
    /// Whether spans are recorded.
    pub traced: bool,
    /// Whether the per-layer probes run after the measured phase (one
    /// traced repetition per run).
    pub probe: bool,
    /// Whether the process only sets up and reports its set-up times.
    pub setup_only: bool,
    /// The workload's name.
    pub workload: &'static str,
}

impl Ctx {
    /// A fresh, empty scratch directory under [`OUT_DIR`].
    pub fn scratch_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = PathBuf::from(OUT_DIR).join("scratch").join(format!(
            "{}-{}-{name}",
            std::process::id(),
            self.rep
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Writes the recorded spans as NDJSON under [`OUT_DIR`]`/spans` and
    /// counts them.
    pub fn write_spans(&self, tracer: &Tracer, rep: &mut Rep) -> Result<(), String> {
        let spans = tracer.spans();
        rep.layer("trace.spans", spans.len() as f64);
        let dir = PathBuf::from(OUT_DIR).join("spans");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.ndjson", self.workload, self.seed));
        std::fs::write(&path, span::to_ndjson(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A small seeded generator (SplitMix64): the benchmark's only source of
/// randomness, so a seed fixes every input.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Largest nest first, as the batch driver claims: one long simulation
/// overlaps the rest instead of running last.
pub fn claim_order(nests: &[LoopNest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nests.len()).collect();
    order.sort_by(|&a, &b| {
        nests[b].iteration_count().cmp(&nests[a].iteration_count()).then(a.cmp(&b))
    });
    order
}

/// The span name of the optimize pass under `model`: the paper model is
/// palo-core's own, the TSS/TTS models are the baselines'.
pub fn optimize_span(model: ModelKind) -> &'static str {
    match model {
        ModelKind::Paper => "core.model.paper",
        ModelKind::Tss => "baselines.tss",
        ModelKind::Tts => "baselines.tts",
        ModelKind::Simulated => "core.model.sim",
    }
}

/// Records one `Session::run` that started at `start` as a `request`
/// span, with one child span per pass request laid end to end in
/// execution order. The session times every `Session::execute` call
/// itself (`PipelineReport::timings`), so a traced run executes exactly
/// the code an untraced one does; tracing only adds these records.
pub fn trace_run(tracer: &Tracer, request: u64, start: Instant, report: &PipelineReport) {
    if !tracer.enabled() {
        return;
    }
    let root = tracer.record("request", start, start + report.elapsed, None, request);
    let mut at = start;
    for t in &report.timings {
        let name = match t.pass {
            "classify" => "core.classify",
            "optimize" => optimize_span(report.model),
            "degrade" => "core.degrade",
            "lower" => "sched.lower",
            "validate" => "exec.validate",
            "simulate" => "core.simulate",
            _ => "core.other",
        };
        tracer.record(name, at, at + t.elapsed, root, request);
        at += t.elapsed;
    }
}

/// Per-pass self time from the spans of [`trace_run`].
pub fn pass_layers(rep: &mut Rep, tracer: &Tracer) {
    let times = span::layer_times(&tracer.spans());
    let ms = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let models = ["core.model.paper", "baselines.tss", "baselines.tts", "core.model.sim"];
    rep.layer("core.optimize.ms", models.iter().map(|m| ms(m)).sum());
    for (metric, span) in [
        ("core.classify.ms", "core.classify"),
        ("core.model.paper.ms", "core.model.paper"),
        ("baselines.tss.ms", "baselines.tss"),
        ("baselines.tts.ms", "baselines.tts"),
        ("core.degrade.ms", "core.degrade"),
        ("sched.lower.ms", "sched.lower"),
        ("exec.validate.ms", "exec.validate"),
        ("core.simulate.ms", "core.simulate"),
    ] {
        rep.layer(metric, ms(span));
    }
}

/// Candidate-search counters.
pub fn search_layers(rep: &mut Rep, s: &SearchStats) {
    let tried = (s.candidates_evaluated + s.candidates_pruned) as f64;
    rep.layer("core.search.evaluated", s.candidates_evaluated as f64);
    rep.layer("core.search.pruned_ratio", ratio(s.candidates_pruned as f64, tried));
}

/// Artifact-store counters.
pub fn store_layers(rep: &mut Rep, c: &CacheStats) {
    rep.layer("store.hit_ratio", c.hit_rate());
    rep.layer("store.hits", c.hits as f64);
    rep.layer("store.misses", c.misses as f64);
    rep.layer("store.mem.evictions", c.mem.evictions as f64);
    rep.layer("store.disk.bytes_written", c.disk.bytes_written as f64);
    rep.layer("store.anomalies", c.anomalies as f64);
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    worker: Option<usize>,
    probe: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload = WORKLOADS.into_iter().find(|w| *w == workload).ok_or_else(|| {
        format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})")
    })?;
    let num = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or_else(|| format!("missing {flag}"))?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range 1..=600"));
    }
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let worker =
        get("--worker").map(|w| w.parse().map_err(|e| format!("--worker: {e}"))).transpose()?;
    let probe = argv.iter().any(|a| a == "--probe");
    let setup_only = argv.iter().any(|a| a == "--setup-only");
    Ok(Args { workload, seed, seconds, trace, worker, probe, setup_only })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.worker {
        Some(rep) => worker(&args, rep),
        None => coordinate(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker mode: one repetition, its record as the last stdout line.
fn worker(args: &Args, rep: usize) -> Result<(), String> {
    let ctx = Ctx {
        seed: args.seed,
        rep,
        seconds: args.seconds as f64,
        traced: args.trace,
        probe: args.trace && args.probe,
        setup_only: args.setup_only,
        workload: args.workload,
    };
    let mut out = match args.workload {
        "suite-cold" => suite::run(&ctx)?,
        "analytic-sweep" => sweep::run(&ctx)?,
        _ => serve::run(&ctx)?,
    };
    out.peak_rss_mb = peak_rss_mb();
    println!("{}", out.to_json());
    Ok(())
}

/// Runs one repetition in a fresh process, with the worker flags
/// `extra`, and waits for it.
fn spawn_rep(args: &Args, rep: usize, traced: bool, extra: &[&str]) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--worker", &rep.to_string()])
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("worker {rep} exited with {}", output.status));
    }
    let line = stdout.lines().last().ok_or("worker printed nothing")?;
    Rep::from_json(line).map_err(|e| format!("worker {rep}: bad record: {e}"))
}

/// The facts, with the median taken across repetitions.
fn median_facts(reps: &[Rep]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (name, _) in &reps[0].facts {
        let values: Vec<f64> = reps.iter().filter_map(|r| r.get_fact(name)).collect();
        out.push((name.clone(), median(&values)));
    }
    out
}

fn coordinate(args: &Args) -> Result<(), String> {
    // Fail before doing any work when the checkout lacks the inputs.
    golden::golden_lines()?;
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        // The second pair runs its traced repetition first, so drift over
        // the run favours neither side. The overhead is the median over
        // pairs of the traced median operation latency over the untraced
        // one, minus one; the per-layer metrics come from the last traced
        // repetition, the only one that runs the probes.
        let mut overheads = Vec::new();
        for pair in 0..TRACE_PAIRS {
            let probe: &[&str] = if pair + 1 == TRACE_PAIRS { &["--probe"] } else { &[] };
            let index = 2 * pair;
            let (untraced, traced) = if pair % 2 == 0 {
                let u = spawn_rep(args, index, false, &[])?;
                (u, spawn_rep(args, index + 1, true, probe)?)
            } else {
                let t = spawn_rep(args, index, true, probe)?;
                (spawn_rep(args, index + 1, false, &[])?, t)
            };
            overheads
                .push(ratio(median(&traced.latency_ms), median(&untraced.latency_ms)) - 1.0);
            reps.push(untraced);
            traced_reps.push(traced);
        }
        let overhead = median(&overheads);
        let layers = &traced_reps.last().ok_or("no traced repetition ran")?.layers;
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let value = if name == "trace.overhead_ratio" {
                    overhead
                } else {
                    layers.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
                };
                (name, value, unit)
            })
            .collect()
    } else {
        loop {
            reps.push(spawn_rep(args, reps.len(), false, &[])?);
            if args.workload == "serve-mix"
                || (reps.len() >= MIN_REPS
                    && started.elapsed().as_secs_f64() >= args.seconds as f64)
            {
                break;
            }
        }
        let mut setups: Vec<f64> = reps.iter().map(|r| median(&r.setup_s)).collect();
        for i in 0..SETUP_PROCESSES {
            let rep = spawn_rep(args, reps.len() + i, false, &["--setup-only"])?;
            setups.push(median(&rep.setup_s));
        }
        let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
        let failed: u64 = reps.iter().map(|r| r.failed).sum();
        let values = [
            setups.iter().sum::<f64>() / setups.len() as f64,
            median(&reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
            ratio((attempted - failed) as f64, attempted as f64),
        ];
        END_TO_END.iter().zip(values).map(|(m, v)| (m.name.to_string(), v, m.unit)).collect()
    };

    if let Some((bad, _, _)) = metrics.iter().find(|(name, _, _)| !metrics::valid_name(name)) {
        return Err(format!("illegal metric name {bad:?}"));
    }
    let all: Vec<&Rep> = reps.iter().chain(&traced_reps).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    for r in &all {
        for f in &r.failures {
            eprintln!("perfbench: check failed: {f}");
        }
    }
    let latencies = all.iter().map(|r| r.latency_ms.len()).sum();
    let report = render_report(args, &reps, all.len(), &metrics, latencies, started);
    eprint!("{report}");
    let dir = PathBuf::from(OUT_DIR).join("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let _ = std::fs::write(path, &report);
    }
    let _ = std::fs::remove_dir_all(PathBuf::from(OUT_DIR).join("scratch"));
    println!("{}", metrics::result_line(failed == 0, attempted.max(1), failed, &metrics));
    Ok(())
}

/// The stamp: what produced these numbers, on what host.
fn stamp(args: &Args, reps: usize) -> Vec<(&'static str, String)> {
    // Git must not search above the checkout: an exported tree has no
    // `.git`, and a parent directory's repository is not this one.
    let ceiling = std::env::current_dir().ok().and_then(|d| d.parent().map(PathBuf::from));
    let sha = std::env::var("PERFBENCH_GIT_SHA").ok().or_else(|| {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling.unwrap_or_default())
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_sha", sha.unwrap_or_else(|| "unknown".into())),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("batch_workers", suite::WORKERS.to_string()),
        ("serve_workers", serve::WORKERS.to_string()),
        ("search_threads", "1".into()),
        ("generator_threads", "1".into()),
        ("repetitions", reps.to_string()),
        ("setup_only_processes", if args.trace { 0 } else { SETUP_PROCESSES }.to_string()),
        ("fresh_process_per_repetition", "true".into()),
    ]
}

/// A JSON report: stamp, result metrics with sample counts, and the
/// workload facts (median across the untraced repetitions `reps`, of
/// `total` run).
fn render_report(
    args: &Args,
    reps: &[Rep],
    total: usize,
    metrics: &[(String, f64, &'static str)],
    latency_samples: usize,
    started: Instant,
) -> String {
    use palo_codec::json::{push_json_f64, push_json_str};
    let mut out = String::from("{\n  \"stamp\": {");
    for (i, (k, v)) in stamp(args, total).iter().enumerate() {
        out.push_str(if i > 0 { ", " } else { "" });
        push_json_str(&mut out, k);
        out.push_str(": ");
        push_json_str(&mut out, v);
    }
    let _ = write!(out, "}},\n  \"elapsed_s\": ");
    push_json_f64(&mut out, started.elapsed().as_secs_f64());
    let _ = write!(out, ",\n  \"latency_samples\": {latency_samples},\n  \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_json_str(&mut out, name);
        out.push_str(": {\"value\": ");
        push_json_f64(&mut out, *value);
        let _ = write!(out, ", \"unit\": \"{unit}\"}}");
    }
    out.push_str("\n  },\n  \"facts\": {");
    for (i, (name, value)) in median_facts(reps).iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        push_json_str(&mut out, name);
        out.push_str(": ");
        push_json_f64(&mut out, *value);
    }
    out.push_str("\n  }\n}\n");
    out
}
