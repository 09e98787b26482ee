//! The Simulate pass: cache-hierarchy trace simulation of the accepted
//! schedule under the run's remaining resource budget.

use super::{Pass, PassCx};
use crate::error::{catch_panic, PaloError};
use crate::fingerprint::{Fingerprint, FingerprintBuilder};
use palo_exec::{estimate_time_with, TimeEstimate, TraceOptions};
use palo_ir::LoopNest;
use palo_sched::LoweredNest;

/// The simulated time estimate of a lowered schedule.
#[derive(Debug, Clone)]
pub struct SimulateArtifact {
    /// Estimated milliseconds plus the full hierarchy statistics.
    pub estimate: TimeEstimate,
}

/// Traces the lowered nest on the cache simulator ([`estimate_time_with`])
/// under the remaining [`ResourceBudget`](crate::ResourceBudget).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatePass;

impl Pass for SimulatePass {
    type Input<'a> = (&'a LoopNest, &'a LoweredNest);
    type Output = SimulateArtifact;

    fn name(&self) -> &'static str {
        "simulate"
    }

    fn version(&self) -> u32 {
        // v2: run-compressed replay engine (bit-identical statistics, so
        // cached v1 artifacts would still be *correct* — bumped anyway so
        // the artifact's new `replay` telemetry is always populated).
        2
    }

    /// Key: nest + lowered structure + architecture + the run's effective
    /// trace-line budget. A request under an effective wall-clock
    /// **deadline** — session-wide or per-request
    /// ([`RunOverrides`](crate::RunOverrides)) — is uncacheable
    /// (`None`): the effective deadline is "whatever is left of this
    /// run", which no stable key can express — serving a cached complete
    /// trace where this run would have aborted (or vice versa) would
    /// desynchronize cached and uncached runs.
    fn fingerprint(
        &self,
        cx: &PassCx<'_>,
        (nest, lowered): &Self::Input<'_>,
    ) -> Option<Fingerprint> {
        let budget = cx.ctl.budget();
        if budget.deadline.is_some() {
            return None;
        }
        Some(
            FingerprintBuilder::pass(self.name(), self.version())
                .nest(nest)
                .value(*lowered)
                .arch(cx.arch)
                .value(&budget.max_trace_lines)
                .finish(),
        )
    }

    fn run(
        &self,
        cx: &PassCx<'_>,
        (nest, lowered): &Self::Input<'_>,
    ) -> Result<Self::Output, PaloError> {
        let budget = cx.ctl.budget();
        let deadline = budget.deadline.map(|d| d.saturating_sub(cx.ctl.start().elapsed()));
        let max_lines =
            if cx.ctl.faults().trace_overflow { Some(0) } else { budget.max_trace_lines };
        let opts = TraceOptions { max_lines, deadline, run_compressed: true };
        let estimate =
            catch_panic("simulator", || estimate_time_with(nest, lowered, cx.arch, &opts))??;
        Ok(SimulateArtifact { estimate })
    }
}
