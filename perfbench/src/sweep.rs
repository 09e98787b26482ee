//! `analytic-sweep`: optimize-only requests for the 14 nests at three
//! sizes, on six platforms, under three cost models — one session per
//! model × platform, all writing one fresh cache directory — followed by
//! a replay of the whole sweep through fresh sessions on that directory.

use crate::golden::{decision_line, golden_line, golden_lines};
use crate::metrics::Rep;
use crate::span::Tracer;
use crate::stats::ratio;
use crate::suite::{self, WORKERS};
use crate::{pass_layers, search_layers, store_layers, trace_run, Ctx};
use palo_arch::{presets, Architecture};
use palo_core::{
    search::parallel_map_in, CacheConfig, CacheStats, ModelKind, PipelineConfig, SearchStats,
    Session,
};
use palo_ir::LoopNest;
use palo_suite::Benchmark;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The six platforms, labelled as in the golden decision file. The
/// analytic path never simulates, so these are the Table-3 and zoo
/// presets the golden decisions were taken on.
pub fn platforms() -> Vec<(&'static str, Architecture)> {
    vec![
        ("5930k", presets::intel_i7_5930k()),
        ("6700", presets::intel_i7_6700()),
        ("a15", presets::arm_cortex_a15()),
        ("zen2", presets::amd_zen2()),
        ("n1", presets::arm_neoverse_n1()),
        ("nopf", presets::intel_i7_6700_no_prefetch()),
    ]
}

/// The three analytic models.
pub const MODELS: [ModelKind; 3] = [ModelKind::Paper, ModelKind::Tss, ModelKind::Tts];

/// A benchmark's scaled main dimension (what `Benchmark::build` varies).
fn scaled_dim(b: Benchmark) -> usize {
    match b {
        Benchmark::Convlayer => 32,
        Benchmark::Doitgen => 96,
        Benchmark::Syrk | Benchmark::Syr2k => 384,
        Benchmark::Tpm | Benchmark::Tp | Benchmark::Copy | Benchmark::Mask => 1024,
        _ => 512,
    }
}

/// The three sizes: the scaled dimension times these factors, rounded to
/// a multiple of 8. Seeded sizes made the sweep's work itself vary with
/// the seed (53–78 decisions/s across five seeds), so the sizes are fixed.
const FACTORS: [f64; 3] = [1.0, 0.75, 1.25];

/// One request of the sweep.
pub struct Input {
    /// The benchmark's short name.
    pub kernel: &'static str,
    /// The stage within the benchmark.
    pub stage: usize,
    /// Whether this is the scaled size (the golden decisions' size).
    pub scaled: bool,
    /// The nest.
    pub nest: LoopNest,
}

/// The 14 nests at three sizes each.
pub fn inputs() -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    for b in Benchmark::all() {
        for f in FACTORS {
            let scaled = f == 1.0;
            let built = if scaled {
                b.build_scaled()
            } else {
                b.build(((scaled_dim(b) as f64 * f / 8.0).round() as usize * 8).max(8))
            };
            let nests = built.map_err(|e| format!("{}: {e}", b.name()))?;
            for (stage, nest) in nests.into_iter().enumerate() {
                out.push(Input { kernel: b.name(), stage, scaled, nest });
            }
        }
    }
    Ok(out)
}

fn config(model: ModelKind, dir: &Path) -> PipelineConfig {
    let mut config = suite::config();
    config.simulate = false;
    config.optimizer.model = model;
    config.cache = CacheConfig { dir: Some(dir.to_path_buf()), ..CacheConfig::default() };
    config
}

/// One session per model × platform, all on `dir`.
fn open_sessions(dir: &Path) -> Result<Vec<(ModelKind, &'static str, Session)>, String> {
    let mut out = Vec::new();
    for model in MODELS {
        for (label, arch) in platforms() {
            let session = Session::new(&arch, config(model, dir)).map_err(|e| e.to_string())?;
            out.push((model, label, session));
        }
    }
    Ok(out)
}

/// Decision lines (or error text) of one pass over every session, with
/// per-request latencies, summed store counters and search counters.
struct Sweep {
    lines: Vec<Result<String, String>>,
    latency_ms: Vec<f64>,
    cache: CacheStats,
    search: SearchStats,
}

/// One pass: every (session, nest) request on one pool of [`WORKERS`],
/// longest first, so no worker idles at a session boundary. Results
/// come back session-major, in input order.
fn sweep(
    sessions: &[(ModelKind, &'static str, Session)],
    inputs: &[Input],
    tracer: &Tracer,
) -> Sweep {
    let n = inputs.len();
    let requests: Vec<(usize, usize)> =
        (0..sessions.len()).flat_map(|s| (0..n).map(move |i| (s, i))).collect();
    let mut order: Vec<usize> = (0..requests.len()).collect();
    // Deepest nests first (their searches are the longest: convlayer's
    // seven loops cost the most), then largest, so a long search never
    // starts last while the other worker idles.
    order.sort_by_key(|&r| {
        let nest = &inputs[requests[r].1].nest;
        (std::cmp::Reverse((nest.vars().len(), nest.iteration_count())), r)
    });
    let before: Vec<CacheStats> = sessions.iter().map(|(_, _, s)| s.cache_stats()).collect();
    let results = parallel_map_in(WORKERS, &order, &requests, |&(s, i)| {
        let session = &sessions[s].2;
        let nest = &inputs[i].nest;
        let start = Instant::now();
        let out = session.run(nest);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Ok(o) = &out {
            trace_run(tracer, (s * n + i) as u64, start, &o.report);
        }
        (out.map(|o| (o.decision, o.report.search)).map_err(|e| e.to_string()), ms)
    });
    let mut out = Sweep {
        lines: Vec::new(),
        latency_ms: Vec::new(),
        cache: CacheStats::default(),
        search: SearchStats::default(),
    };
    for (&(s, i), (result, ms)) in requests.iter().zip(results) {
        let input = &inputs[i];
        out.latency_ms.push(ms);
        out.lines.push(result.and_then(|(decision, search)| {
            if let Some(st) = &search {
                out.search.absorb(st);
            }
            decision
                .map(|d| decision_line(input.kernel, input.stage, sessions[s].1, &d))
                .ok_or_else(|| format!("{}: no decision", input.nest.name()))
        }));
    }
    for ((_, _, session), before) in sessions.iter().zip(&before) {
        out.cache.absorb(&session.cache_stats().since(before));
    }
    out
}

/// Every artifact file under the cache directory.
fn artifact_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "art") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// Runs one repetition.
pub fn run(ctx: &Ctx) -> Result<Rep, String> {
    let golden = golden_lines()?;
    let mut rep = Rep::default();

    let mut setup = None;
    for k in 0..crate::SETUPS {
        let t = Instant::now();
        let dir = ctx.scratch_dir(&format!("sweep-{k}"))?;
        let inputs = inputs()?;
        let sessions = open_sessions(&dir)?;
        rep.setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old_dir, _, _)) = setup.replace((dir, inputs, sessions)) {
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (dir, inputs, sessions) = setup.ok_or("no set-up ran")?;
    if ctx.setup_only {
        drop(sessions);
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(rep);
    }

    // Measured phase 1: the cold sweep, every decision computed and
    // written through to disk.
    let tracer = Tracer::new(ctx.traced);
    let t = Instant::now();
    let cold = sweep(&sessions, &inputs, &tracer);
    let cold_s = t.elapsed().as_secs_f64();
    drop(sessions);

    // Measured phase 2: fresh sessions replay the sweep from disk.
    let replay_sessions = open_sessions(&dir)?;
    let t = Instant::now();
    let warm = sweep(&replay_sessions, &inputs, &Tracer::new(false));
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;

    let decisions = cold.lines.len();
    for (i, (c, w)) in cold.lines.iter().zip(&warm.lines).enumerate() {
        let input = &inputs[i % inputs.len()];
        let name = input.nest.name();
        match c {
            Ok(line) => {
                rep.check(true, String::new);
                rep.check(w.as_ref() == Ok(line), || {
                    format!("{name}: warm replay {w:?} differs from cold {line:?}")
                });
                if input.scaled && i < inputs.len() * platforms().len() {
                    // Paper-model rows at the scaled size are the golden
                    // rows.
                    let want = golden_line(&golden, line.split(':').next().unwrap_or(""));
                    rep.check(want == Some(line), || {
                        format!("{name}: decision {line:?} differs from golden {want:?}")
                    });
                }
            }
            Err(e) => rep.check(false, || format!("{name}: cold request failed: {e}")),
        }
    }
    rep.check(warm.cache.misses == 0 && warm.cache.anomalies == 0, || {
        format!(
            "warm replay recomputed {} requests with {} anomalies",
            warm.cache.misses, warm.cache.anomalies
        )
    });
    rep.latency_ms = cold.latency_ms;
    rep.fact("throughput_per_s", ratio(decisions as f64, cold_s));
    rep.fact("decisions", decisions as f64);
    rep.fact("decisions_per_s", ratio(decisions as f64, cold_s));
    rep.fact("warm_replay_ms", warm_ms);
    rep.fact("store.hits", warm.cache.hits as f64);
    rep.fact("store.misses", warm.cache.misses as f64);

    if ctx.traced {
        let mut store = cold.cache;
        store.absorb(&warm.cache);
        store_layers(&mut rep, &store);
        rep.layer("store.warm_replay_ms", warm_ms);
        search_layers(&mut rep, &cold.search);
        pass_layers(&mut rep, &tracer);
        if ctx.probe {
            codec_layer(&dir, &tracer, &mut rep)?;
        }
        ctx.write_spans(&tracer, &mut rep)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rep)
}

/// Times `palo_codec::frame::decode_frame` over every artifact the sweep
/// wrote: nanoseconds per framed byte.
fn codec_layer(dir: &Path, tracer: &Tracer, rep: &mut Rep) -> Result<(), String> {
    let blobs: Vec<Vec<u8>> = artifact_files(dir)
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    let bytes: usize = blobs.iter().map(Vec::len).sum();
    let t = Instant::now();
    let mut bad = 0;
    for (i, blob) in blobs.iter().enumerate() {
        let ok = tracer.in_span("codec.decode_frame", None, i as u64, |_| {
            palo_codec::frame::decode_frame(std::hint::black_box(blob)).is_ok()
        });
        bad += usize::from(!ok);
    }
    let ns = t.elapsed().as_secs_f64() * 1e9;
    rep.check(bad == 0 && !blobs.is_empty(), || {
        format!("{bad} of {} stored artifacts failed to decode", blobs.len())
    });
    rep.layer("codec.decode_ns_per_byte", ratio(ns, bytes as f64));
    Ok(())
}
