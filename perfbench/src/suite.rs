//! `suite-cold`: the 14-nest suite at its scaled sizes on the `6700`
//! preset, through a fresh session with an empty store and full
//! simulation.

use crate::golden::{decision_line, golden_line, golden_lines};
use crate::layers::{self, SimCounts};
use crate::metrics::{Rep, SUITE_NESTS};
use crate::span::Tracer;
use crate::stats::{geomean, ratio};
use crate::{claim_order, pass_layers, trace_run, Ctx};
use palo_arch::{presets, Architecture};
use palo_core::{
    search::parallel_map_in, Optimizer, PipelineConfig, PipelineOutcome, SearchStats, Session,
};
use palo_ir::LoopNest;
use palo_suite::Benchmark;
use std::time::Instant;

/// Platform label, as in the golden decision file.
pub const PLATFORM: &str = "6700";
/// Batch workers: one per core of the 2-core reference host.
pub const WORKERS: usize = 2;

/// The `6700` preset with the reproduction's scaled L3, as `palo-opt`
/// and `palo-serve` use it.
pub fn arch() -> Architecture {
    presets::repro::intel_i7_6700()
}

/// One pipeline request of the suite.
pub struct Input {
    /// The benchmark's short name.
    pub kernel: &'static str,
    /// The stage within the benchmark (3mm has three).
    pub stage: usize,
    /// The nest.
    pub nest: LoopNest,
}

/// The pipeline configuration every workload uses: the search runs
/// inline in the worker that claimed the nest, so the process never has
/// more compute threads than workers.
pub fn config() -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.optimizer.search.threads = Some(1);
    config
}

/// The suite at scaled sizes.
pub fn inputs() -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    for b in Benchmark::all() {
        let nests = b.build_scaled().map_err(|e| format!("{}: {e}", b.name()))?;
        for (stage, nest) in nests.into_iter().enumerate() {
            out.push(Input { kernel: b.name(), stage, nest });
        }
    }
    Ok(out)
}

/// Nests replayed both run-compressed and scalar: small sizes of four
/// differently shaped kernels, so the differential costs well under a
/// second.
const DIFFERENTIAL: [(Benchmark, usize); 4] = [
    (Benchmark::Matmul, 64),
    (Benchmark::Syr2k, 48),
    (Benchmark::Doitgen, 24),
    (Benchmark::Tp, 128),
];

/// One outcome of the measured phase and its wall time in milliseconds.
pub type Timed = (Result<PipelineOutcome, String>, f64);

/// The measured phase: every nest through `Session::run` on `workers`
/// threads, largest first as the batch driver claims them, each run
/// recorded as spans when `tracer` is on. Outcomes come back in input
/// order.
pub fn measure(
    session: &Session,
    nests: &[LoopNest],
    workers: usize,
    tracer: &Tracer,
) -> Vec<Timed> {
    let ids: Vec<usize> = (0..nests.len()).collect();
    parallel_map_in(workers, &claim_order(nests), &ids, |&i| {
        let start = Instant::now();
        let out = session.run(&nests[i]);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Ok(o) = &out {
            trace_run(tracer, i as u64, start, &o.report);
        }
        (out.map_err(|e| e.to_string()), ms)
    })
}

/// Optimize-only decision lines for `inputs` on `arch`, from a fresh
/// session that does not simulate, on one thread (it runs after the
/// measured phase and takes well under a second).
fn decisions(arch: &Architecture, inputs: &[Input]) -> Result<Vec<Option<String>>, String> {
    let mut config = config();
    config.simulate = false;
    let session = Session::new(arch, config).map_err(|e| e.to_string())?;
    let nests: Vec<LoopNest> = inputs.iter().map(|i| i.nest.clone()).collect();
    Ok(measure(&session, &nests, 1, &Tracer::new(false))
        .into_iter()
        .zip(inputs)
        .map(|((out, _), input)| {
            let d = out.ok()?.decision?;
            Some(decision_line(input.kernel, input.stage, PLATFORM, &d))
        })
        .collect())
}

/// Runs one repetition.
pub fn run(ctx: &Ctx) -> Result<Rep, String> {
    let arch = arch();
    let golden = golden_lines()?;
    let mut rep = Rep::default();

    let mut setup = None;
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        let inputs = inputs()?;
        let session = Session::new(&arch, config()).map_err(|e| e.to_string())?;
        rep.setup_s.push(t.elapsed().as_secs_f64());
        setup = Some((inputs, session));
    }
    let (inputs, session) = setup.ok_or("no set-up ran")?;
    if ctx.setup_only {
        return Ok(rep);
    }
    let nests: Vec<LoopNest> = inputs.iter().map(|i| i.nest.clone()).collect();

    // The measured phase: one cold pass over the suite.
    let tracer = Tracer::new(ctx.traced);
    let t = Instant::now();
    let results = measure(&session, &nests, WORKERS, &tracer);
    let wall = t.elapsed().as_secs_f64();

    // Each decision must equal an optimize-only decision on the same
    // preset. The golden rows were taken on the unscaled `6700` preset,
    // so they are checked against optimize-only decisions on that preset.
    let same_preset = decisions(&arch, &inputs)?;
    let golden_preset = decisions(&presets::intel_i7_6700(), &inputs)?;

    let mut counts = SimCounts::default();
    let mut sim_s = 0.0;
    let mut sched_ms = Vec::new();
    let mut searched = SearchStats::default();
    let mut lowered = Vec::new();
    for (i, (input, (result, ms))) in inputs.iter().zip(&results).enumerate() {
        let name = input.nest.name();
        let head = format!("{}[{}] @ {PLATFORM}", input.kernel, input.stage);
        let want = golden_line(&golden, &head);
        rep.check(want.is_some() && golden_preset[i].as_ref() == want, || {
            format!("{name}: decision {:?} differs from golden {want:?}", golden_preset[i])
        });
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                rep.check(false, || format!("{name}: pipeline failed: {e}"));
                continue;
            }
        };
        rep.latency_ms.push(*ms);
        sim_s += out
            .report
            .timings
            .iter()
            .filter(|p| p.pass == "simulate")
            .map(|p| p.elapsed.as_secs_f64())
            .sum::<f64>();
        let got = out
            .decision
            .as_ref()
            .map(|d| decision_line(input.kernel, input.stage, PLATFORM, d));
        rep.check(got.is_some() && got == same_preset[i], || {
            format!("{name}: decision {got:?} differs from optimize-only {:?}", same_preset[i])
        });
        match &out.report.estimate {
            Some(e) => {
                counts.absorb(e);
                sched_ms.push(e.ms);
            }
            None => rep.check(false, || format!("{name}: no simulated estimate")),
        }
        if let Some(s) = &out.report.search {
            searched.absorb(s);
        }
        lowered.push((input, out.lowered.clone()));
    }
    rep.fact("throughput_per_s", ratio(nests.len() as f64, wall));
    rep.fact("cold_suite_s", wall);
    rep.fact("sim_mlines_per_s", ratio(counts.lines as f64, sim_s) / 1e6);
    rep.fact("sched_sim_ms_geomean", geomean(&sched_ms));
    let cache = session.cache_stats();
    rep.fact("store.hits", cache.hits as f64);
    rep.fact("store.misses", cache.misses as f64);
    counts.report(&mut rep, ctx.traced);

    differential(&arch, &tracer, &mut rep)?;

    if ctx.traced {
        rep.layer("cachesim.mlines_per_s", ratio(counts.lines as f64, sim_s) / 1e6);
        rep.layer("sim.sched_ms_geomean", geomean(&sched_ms));
        crate::search_layers(&mut rep, &searched);
        crate::store_layers(&mut rep, &cache);
        pass_layers(&mut rep, &tracer);
        if ctx.probe {
            probe_layers(&arch, &lowered, &tracer, &mut rep)?;
        }
        ctx.write_spans(&tracer, &mut rep)?;
    }
    Ok(rep)
}

/// Walker and simulator cost per nest, outside the measured phase.
fn probe_layers(
    arch: &Architecture,
    lowered: &[(&Input, palo_sched::LoweredNest)],
    tracer: &Tracer,
    rep: &mut Rep,
) -> Result<(), String> {
    let nests: Vec<LoopNest> = lowered.iter().map(|(i, _)| i.nest.clone()).collect();
    let ids: Vec<usize> = (0..lowered.len()).collect();
    let probes = parallel_map_in(WORKERS, &claim_order(&nests), &ids, |&i| {
        layers::probe(&lowered[i].0.nest, &lowered[i].1, arch, tracer, i as u64)
    });
    let (mut lines, mut walker_ns, mut sim_ns) = (0u64, 0.0, 0.0);
    let mut per_nest = Vec::new();
    for ((input, _), probe) in lowered.iter().zip(probes) {
        let p = probe?;
        lines += p.lines;
        walker_ns += p.walker_ns;
        sim_ns += p.sim_ns;
        per_nest.push((input.nest.name().to_string(), p));
    }
    rep.layer("exec.walker.ns_per_line", ratio(walker_ns, lines as f64));
    rep.layer("cachesim.ns_per_line", ratio((sim_ns - walker_ns).max(0.0), lines as f64));
    for nest in SUITE_NESTS {
        let p = per_nest.iter().find(|(n, _)| n == nest).map(|(_, p)| *p);
        rep.layer(
            &format!("exec.walker.ns_per_line.{nest}"),
            p.map_or(0.0, |p| p.walker_ns_per_line()),
        );
        rep.layer(
            &format!("cachesim.ns_per_line.{nest}"),
            p.map_or(0.0, |p| p.cachesim_ns_per_line()),
        );
    }
    Ok(())
}

/// Run-compressed against scalar replay on [`DIFFERENTIAL`]: one check
/// per nest.
fn differential(arch: &Architecture, tracer: &Tracer, rep: &mut Rep) -> Result<(), String> {
    let optimizer = Optimizer::new(arch);
    for (i, (bench, size)) in DIFFERENTIAL.iter().enumerate() {
        let nests = bench.build(*size).map_err(|e| e.to_string())?;
        for nest in &nests {
            let decision = optimizer.try_optimize(nest).map_err(|e| e.to_string())?;
            let lowered = decision.schedule().lower(nest).map_err(|e| e.to_string())?;
            let (compressed, scalar) =
                layers::differential(nest, &lowered, arch, tracer, 1000 + i as u64)?;
            rep.check(compressed == scalar, || {
                format!("{}@{size}: run-compressed stats differ from scalar", nest.name())
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_cachesim::LevelStats;

    /// Everything deterministic a cold single-worker pass reports.
    fn counts(traced: bool) -> (SimCounts, Vec<LevelStats>, u64, u64, u64) {
        let mut nests = Vec::new();
        for b in [Benchmark::Matmul, Benchmark::Syr2k, Benchmark::Tp, Benchmark::Copy] {
            nests.extend(b.build(24).unwrap());
        }
        let session = Session::new(&arch(), config()).unwrap();
        let tracer = Tracer::new(traced);
        let estimates: Vec<_> = measure(&session, &nests, 1, &tracer)
            .into_iter()
            .map(|(out, _)| out.unwrap().report.estimate.unwrap())
            .collect();
        if traced {
            // One request span and at least classify, optimize, degrade,
            // lower and simulate under it, per nest.
            assert!(tracer.spans().len() >= 6 * nests.len());
        }
        let mut sim = SimCounts::default();
        let mut levels = Vec::new();
        for e in &estimates {
            sim.absorb(e);
            levels.extend(e.stats.levels.iter().copied());
        }
        let geo = geomean(&estimates.iter().map(|e| e.ms).collect::<Vec<_>>()).to_bits();
        // A second, warm pass in the same single-worker session.
        measure(&session, &nests, 1, &Tracer::new(false));
        let cache = session.cache_stats();
        (sim, levels, geo, cache.hits, cache.misses)
    }

    #[test]
    fn deterministic_counts_repeat_exactly_across_runs() {
        let first = counts(false);
        assert!(first.0.lines > 0 && first.0.events > 0);
        assert_eq!(first, counts(false), "two untraced runs disagree");
        assert_eq!(first, counts(true), "a traced run disagrees");
    }
}
