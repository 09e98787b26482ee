//! Streaming consumers of line-granular access traces.
//!
//! The trace walker in `palo-exec` never materializes a trace: it pushes
//! each batched access event into a [`LineSink`] as it is generated.
//! [`Hierarchy`] is the production sink (full cache simulation);
//! [`CountingSink`] is the zero-cost one used to size a trace, dry-run a
//! schedule, or bound work before committing to simulation.
//!
//! Two event shapes exist: byte ranges ([`LineSink::access_range`], the
//! original contract) and run-compressed constant-stride line runs
//! ([`LineSink::access_run`]). A sink sees every line of the trace; none
//! is skipped or extrapolated.

use crate::hierarchy::{AccessKind, AccessRun, Hierarchy};

/// A consumer of line-granular memory traffic.
///
/// The contract mirrors [`Hierarchy`]'s batched entry points: one
/// [`LineSink::access_range`] call touches every line overlapping
/// `[addr, addr + bytes)` exactly once, one [`LineSink::access_run`]
/// call touches `count` lines a fixed line-stride apart, and
/// [`LineSink::lines_issued`] reports the running total — the trace
/// walker's line-budget guard reads it between batches, so
/// implementations must keep it current.
pub trait LineSink {
    /// Consumes one contiguous access run of `bytes` bytes at `addr`.
    fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind);

    /// Consumes one constant-stride line run. The default expands the run
    /// into per-line [`LineSink::access_range`] calls, so custom sinks
    /// keep working unchanged; [`Hierarchy`] overrides it with the
    /// run-compressed engine.
    fn access_run(&mut self, run: &AccessRun) {
        let bits = self.line_size().max(1).trailing_zeros();
        let mut line = run.start_line;
        for _ in 0..run.count {
            self.access_range(line << bits, 1, run.kind);
            line = line.wrapping_add_signed(run.stride_lines);
        }
    }

    /// Total lines consumed so far (drives resource-budget guards).
    fn lines_issued(&self) -> u64;

    /// Line size in bytes the sink accounts with.
    fn line_size(&self) -> usize;
}

impl LineSink for Hierarchy {
    fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        Hierarchy::access_range(self, addr, bytes, kind);
    }

    fn access_run(&mut self, run: &AccessRun) {
        Hierarchy::access_run(self, run);
    }

    fn lines_issued(&self) -> u64 {
        self.stats().total_accesses
    }

    fn line_size(&self) -> usize {
        Hierarchy::line_size(self)
    }
}

/// A sink that only counts: how many lines (and batched access events) a
/// walk would issue, without simulating a cache. Used by the autotuner
/// and the bench harness to size traces cheaply.
#[derive(Debug, Clone)]
pub struct CountingSink {
    line_bits: u32,
    lines: u64,
    runs: u64,
}

impl CountingSink {
    /// A counter for `line_size`-byte lines (must be a power of two).
    pub fn new(line_size: usize) -> Self {
        let ls = line_size.max(1).next_power_of_two();
        CountingSink { line_bits: ls.trailing_zeros(), lines: 0, runs: 0 }
    }

    /// Lines counted so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Batched access events (ranges and runs) counted so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

impl LineSink for CountingSink {
    fn access_range(&mut self, addr: u64, bytes: u64, _kind: AccessKind) {
        if bytes == 0 {
            return;
        }
        let first = addr >> self.line_bits;
        let last = (addr + bytes - 1) >> self.line_bits;
        self.runs += 1;
        self.lines += last - first + 1;
    }

    fn access_run(&mut self, run: &AccessRun) {
        if run.count == 0 {
            return;
        }
        self.runs += 1;
        self.lines += run.count;
    }

    fn lines_issued(&self) -> u64 {
        self.lines
    }

    fn line_size(&self) -> usize {
        1 << self.line_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;

    #[test]
    fn counting_sink_matches_hierarchy_accounting() {
        let mut h = Hierarchy::from_architecture(&presets::intel_i7_6700());
        let mut c = CountingSink::new(LineSink::line_size(&h));
        for (addr, bytes) in [(32u64, 256u64), (0, 0), (4096, 1), (4095, 2)] {
            LineSink::access_range(&mut h, addr, bytes, AccessKind::Load);
            c.access_range(addr, bytes, AccessKind::Load);
        }
        assert_eq!(c.lines_issued(), h.lines_issued());
        assert_eq!(c.runs(), 3); // the empty run is not counted
    }

    #[test]
    fn counting_sink_run_event_counts_lines() {
        let mut h = Hierarchy::from_architecture(&presets::intel_i7_6700());
        let mut c = CountingSink::new(LineSink::line_size(&h));
        let run =
            AccessRun { start_line: 100, stride_lines: -7, count: 33, kind: AccessKind::Load };
        LineSink::access_run(&mut h, &run);
        LineSink::access_run(&mut c, &run);
        assert_eq!(c.lines_issued(), h.lines_issued());
        assert_eq!(c.lines_issued(), 33);
        assert_eq!(c.runs(), 1);
    }

    #[test]
    fn counting_sink_rounds_line_size() {
        let c = CountingSink::new(48);
        assert_eq!(LineSink::line_size(&c), 64);
    }
}
