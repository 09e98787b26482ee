//! Simulator-layer probes: the trace walker alone, walker plus cache
//! simulator, and the run-compressed against scalar differential.

use crate::metrics::Rep;
use crate::span::Tracer;
use crate::stats::ratio;
use palo_arch::Architecture;
use palo_cachesim::{CountingSink, Hierarchy, HierarchyStats};
use palo_exec::{estimate_time_with, trace_into, trace_stream, TimeEstimate, TraceOptions};
use palo_ir::LoopNest;
use palo_sched::LoweredNest;
use std::time::Instant;

/// Walker and simulator cost of one lowered nest.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Lines the walk issues.
    pub lines: u64,
    /// Nanoseconds of `trace_stream` into a [`CountingSink`].
    pub walker_ns: f64,
    /// Nanoseconds of `estimate_time_with` (walker plus simulator).
    pub sim_ns: f64,
}

impl Probe {
    /// Walker nanoseconds per line.
    pub fn walker_ns_per_line(&self) -> f64 {
        ratio(self.walker_ns, self.lines as f64)
    }

    /// Simulator nanoseconds per line: the difference between the two
    /// calls, floored at zero.
    pub fn cachesim_ns_per_line(&self) -> f64 {
        ratio((self.sim_ns - self.walker_ns).max(0.0), self.lines as f64)
    }
}

/// Times the walker alone and the walker plus simulator on one lowered
/// nest, each inside its own span.
pub fn probe(
    nest: &LoopNest,
    lowered: &LoweredNest,
    arch: &Architecture,
    tracer: &Tracer,
    request: u64,
) -> Result<Probe, String> {
    let opts = TraceOptions::default();
    let mut sink = CountingSink::new(arch.l1().line_size);
    let t = Instant::now();
    tracer
        .in_span("exec.trace_stream", None, request, |_| {
            trace_stream(nest, lowered, &mut sink, &opts)
        })
        .map_err(|e| format!("{}: walk failed: {e}", nest.name()))?;
    let walker_ns = t.elapsed().as_secs_f64() * 1e9;
    let t = Instant::now();
    tracer
        .in_span("exec.estimate_time_with", None, request, |_| {
            estimate_time_with(nest, lowered, arch, &opts)
        })
        .map_err(|e| format!("{}: simulation failed: {e}", nest.name()))?;
    let sim_ns = t.elapsed().as_secs_f64() * 1e9;
    Ok(Probe { lines: sink.lines(), walker_ns, sim_ns })
}

/// Replays `lowered` on a fresh hierarchy with run compression on and
/// off, and returns both statistics (equal when the replay engine is
/// correct).
pub fn differential(
    nest: &LoopNest,
    lowered: &LoweredNest,
    arch: &Architecture,
    tracer: &Tracer,
    request: u64,
) -> Result<(HierarchyStats, HierarchyStats), String> {
    let replay = |run_compressed: bool| -> Result<HierarchyStats, String> {
        let mut hier = Hierarchy::try_from_architecture(arch).map_err(|e| e.to_string())?;
        let opts = TraceOptions { run_compressed, ..TraceOptions::default() };
        trace_into(nest, lowered, &mut hier, &opts).map_err(|e| e.to_string())?;
        Ok(tracer.in_span("cachesim.stats", None, request, |_| {
            let _ = hier.replay_stats();
            hier.stats().clone()
        }))
    };
    Ok((replay(true)?, replay(false)?))
}

/// Deterministic simulator counts summed over a set of estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// Line accesses replayed (including skipped steady-state cycles).
    pub lines: u64,
    /// Batched access events.
    pub events: u64,
    /// Steady-state cycles skipped analytically.
    pub cycles_skipped: u64,
    /// L1 and L2 demand misses.
    pub demand_misses: [u64; 2],
    /// L1 and L2 prefetch hits.
    pub prefetch_hits: [u64; 2],
    /// L1 and L2 prefetch fills.
    pub prefetch_fills: [u64; 2],
    /// Lines filled from memory (demand plus prefetch).
    pub mem_fills: u64,
}

impl SimCounts {
    /// Adds one estimate's counters.
    pub fn absorb(&mut self, e: &TimeEstimate) {
        self.lines += e.replay.run_lines;
        self.events += e.replay.runs;
        self.cycles_skipped += e.replay.cycles_skipped;
        for (level, s) in e.stats.levels.iter().take(2).enumerate() {
            self.demand_misses[level] += s.demand_misses;
            self.prefetch_hits[level] += s.prefetch_hits;
            self.prefetch_fills[level] += s.prefetch_fills;
        }
        self.mem_fills += e.stats.mem_demand_fills + e.stats.mem_prefetch_fills;
    }

    /// Records the counts as workload facts (compared across runs by the
    /// determinism test) and, when `traced`, as per-layer metrics.
    pub fn report(&self, rep: &mut Rep, traced: bool) {
        let rows = [
            ("cachesim.lines", self.lines as f64),
            ("cachesim.events", self.events as f64),
            ("cachesim.lines_per_event", ratio(self.lines as f64, self.events as f64)),
            ("cachesim.cycles_skipped", self.cycles_skipped as f64),
            ("cachesim.l1.demand_misses", self.demand_misses[0] as f64),
            ("cachesim.l2.demand_misses", self.demand_misses[1] as f64),
            (
                "cachesim.l1.pf_accuracy",
                ratio(self.prefetch_hits[0] as f64, self.prefetch_fills[0] as f64),
            ),
            (
                "cachesim.l2.pf_accuracy",
                ratio(self.prefetch_hits[1] as f64, self.prefetch_fills[1] as f64),
            ),
            ("cachesim.mem.fills", self.mem_fills as f64),
        ];
        for (name, value) in rows {
            rep.fact(name, value);
            if traced {
                rep.layer(name, value);
            }
        }
    }
}
