//! The fault-tolerant optimization pipeline (facade).
//!
//! [`Pipeline`] runs the full optimize → lower → validate → simulate flow
//! as a *guarded* computation: every stage reports through
//! [`PaloError`](crate::PaloError) instead of panicking, and when the
//! proposed schedule cannot be used the pipeline walks a **degradation
//! ladder** instead of failing outright:
//!
//! 1. [`Rung::Proposed`] — the optimizer's (or caller's) schedule;
//! 2. [`Rung::Stripped`] — the same schedule with the execution hints
//!    (`vectorize`, `parallel`, `store_nt`) removed, keeping the loop
//!    structure ([`Schedule::without_execution_hints`]);
//! 3. [`Rung::Baseline`] — the paper's §5.1 baseline (column loop rotated
//!    innermost, vectorized, outer loop parallelized, nothing tiled);
//! 4. [`Rung::Naive`] — the empty schedule, i.e. the program-order nest,
//!    which every valid nest can lower.
//!
//! The achieved rung and every failure encountered on the way down are
//! recorded in the [`PipelineReport`], so degradation is observable, not
//! silent. Resource guards ([`ResourceBudget`]) bound the cache
//! simulation in both trace lines and wall-clock time, and a
//! [`FaultPlan`] can inject failures at each guarded site to exercise the
//! ladder in tests.
//!
//! Since the pass-framework refactor the stages live in [`crate::pass`]
//! and the execution engine is [`Session`](crate::Session): `Pipeline`
//! is a thin facade that opens a fresh single-use session per call. Use
//! a [`Session`](crate::Session) directly (or its
//! [`BatchDriver`](crate::BatchDriver)) to reuse the content-addressed
//! artifact cache across runs.

use crate::config::ModelKind;
use crate::decision::Decision;
use crate::error::PaloError;
use crate::model::CostBreakdown;
use crate::pass::{CacheStats, PassTiming};
use crate::search::SearchStats;
use crate::session::Session;
use crate::store::CacheConfig;
use crate::OptimizerConfig;
use palo_arch::Architecture;
use palo_exec::TimeEstimate;
use palo_ir::LoopNest;
use palo_sched::{LoweredNest, Schedule};
use std::time::Duration;

/// A rung of the degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The optimizer's (or caller's) proposed schedule was used.
    Proposed,
    /// The proposed schedule with execution hints stripped.
    Stripped,
    /// The basic developer baseline schedule.
    Baseline,
    /// The untransformed program-order nest.
    Naive,
}

/// Error of parsing a [`Rung`] from a string: the rejected input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRungError(pub String);

impl std::fmt::Display for ParseRungError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown rung {:?} (expected one of ", self.0)?;
        for (i, r) in Rung::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(r.as_str())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseRungError {}

impl Rung {
    /// Every rung, best first.
    pub const ALL: [Rung; 4] = [Rung::Proposed, Rung::Stripped, Rung::Baseline, Rung::Naive];

    /// Stable machine-readable name. The single source of truth:
    /// [`std::fmt::Display`] and [`std::str::FromStr`] both go through
    /// it.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Proposed => "proposed",
            Rung::Stripped => "stripped",
            Rung::Baseline => "baseline",
            Rung::Naive => "naive",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Rung {
    type Err = ParseRungError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Rung::ALL
            .iter()
            .copied()
            .find(|r| r.as_str() == s)
            .ok_or_else(|| ParseRungError(s.to_string()))
    }
}

/// One failure encountered while descending the ladder (or while
/// simulating the accepted schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct RungFailure {
    /// The rung that was being attempted when the failure occurred.
    pub rung: Rung,
    /// What went wrong.
    pub error: PaloError,
}

/// Resource guards for the expensive stages of the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum cache-line accesses the trace simulation may issue before
    /// aborting with [`PaloError::BudgetExceeded`] (`None` = unlimited).
    pub max_trace_lines: Option<u64>,
    /// Wall-clock budget for one whole [`Pipeline::run`] call; the
    /// remainder at simulation time bounds the trace walk
    /// (`None` = unlimited).
    pub deadline: Option<Duration>,
}

/// Deterministic fault injection for exercising the degradation ladder.
///
/// All sites default to off; enabling them is a *runtime* configuration
/// choice so the release pipeline and the fault tests run the same code.
/// While any site is armed, the [`Session`](crate::Session) bypasses its
/// artifact cache entirely: injected faults must fire on every run, and
/// a faulted run's artifacts must never be served to a clean one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the first `n` schedule-lowering attempts with
    /// [`PaloError::FaultInjected`]. With a distinct proposed schedule,
    /// `1` forces [`Rung::Stripped`], `2` forces [`Rung::Baseline`],
    /// `3` forces [`Rung::Naive`] and `4` exhausts the ladder.
    pub fail_first_lowerings: u64,
    /// Force a zero trace-line budget so the simulation stage aborts with
    /// [`PaloError::BudgetExceeded`].
    pub trace_overflow: bool,
    /// Panic inside the optimizer stage; the pipeline must catch it and
    /// degrade to [`Rung::Baseline`].
    pub panic_in_optimizer: bool,
}

impl FaultPlan {
    /// Whether any injection site is armed.
    pub fn armed(&self) -> bool {
        *self != FaultPlan::default()
    }
}

/// Per-request overrides layered over a [`Session`](crate::Session)'s
/// [`PipelineConfig`] for one run.
///
/// A long-lived session serves heterogeneous requests: an interactive
/// request may carry a tight wall-clock deadline, a chaos-test request
/// may arm a [`FaultPlan`] for itself only, and a load-shedding service
/// may skip the simulate stage under pressure — all without touching the
/// session-wide configuration (or other concurrent runs). Every field
/// defaults to "inherit from the session config".
///
/// The cache-safety rules are override-aware: a run whose *effective*
/// fault plan is armed bypasses the artifact cache wholesale, and a run
/// under an *effective* deadline keeps its simulate stage uncacheable —
/// so a per-request fault or deadline can never poison artifacts served
/// to clean runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOverrides {
    /// Wall-clock deadline for this run (replaces
    /// [`ResourceBudget::deadline`] when set). Measured from the start of
    /// the run; callers queueing requests should pass the *remaining*
    /// deadline at dequeue time.
    pub deadline: Option<Duration>,
    /// Trace-line budget for this run (replaces
    /// [`ResourceBudget::max_trace_lines`] when set).
    pub max_trace_lines: Option<u64>,
    /// Fault plan for this run (replaces [`PipelineConfig::faults`] when
    /// set — including `Some(FaultPlan::default())`, which *disarms*
    /// session-wide faults for this run).
    pub faults: Option<FaultPlan>,
    /// Whether to run the simulate stage (replaces
    /// [`PipelineConfig::simulate`] when set). `Some(false)` is the
    /// load-shedding lever: the request is answered from the analytical
    /// model alone.
    pub simulate: Option<bool>,
}

impl RunOverrides {
    /// The effective `(budget, faults, simulate)` triple of one run:
    /// `config` with this request's overrides layered on top.
    pub fn effective(&self, config: &PipelineConfig) -> (ResourceBudget, FaultPlan, bool) {
        let budget = ResourceBudget {
            max_trace_lines: self.max_trace_lines.or(config.budget.max_trace_lines),
            deadline: self.deadline.or(config.budget.deadline),
        };
        (budget, self.faults.unwrap_or(config.faults), self.simulate.unwrap_or(config.simulate))
    }
}

/// Configuration of a [`Pipeline`] (and of a [`Session`](crate::Session)).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Switches forwarded to the [`Optimizer`](crate::Optimizer).
    pub optimizer: OptimizerConfig,
    /// Resource guards for simulation.
    pub budget: ResourceBudget,
    /// Ladder candidates are validated bit-exactly against the
    /// program-order interpreter when the nest's iteration count is below
    /// this bound (compute-mode execution is too slow beyond it).
    pub validate_semantics_below: u128,
    /// Run the cache simulation of the accepted schedule and attach a
    /// [`TimeEstimate`] to the report.
    pub simulate: bool,
    /// Bound on *concurrent* simulate-stage executions across a
    /// [`Session`](crate::Session)'s runs (batch workers included),
    /// independent of the worker count. `None` (the default) leaves
    /// simulation as parallel as the batch; `Some(n)` admits at most `n`
    /// runs into the simulate stage at once — the other stages stay fully
    /// parallel. Zero is clamped to one.
    pub max_concurrent_sims: Option<usize>,
    /// Fault injection sites (all off by default).
    pub faults: FaultPlan,
    /// The session's artifact-store tiers (memory bounds, eviction
    /// policy, on-disk persistence). The default is the original
    /// unbounded in-process cache. **Never enters any cache key** — the
    /// store changes where artifacts live, not what is decided.
    pub cache: CacheConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            optimizer: OptimizerConfig::default(),
            budget: ResourceBudget::default(),
            validate_semantics_below: 4096,
            simulate: true,
            max_concurrent_sims: None,
            faults: FaultPlan::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// What happened during one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The ladder rung whose schedule was accepted.
    pub rung: Rung,
    /// Every failure encountered on the way (ladder descents and
    /// simulation-stage failures). Empty on a clean run.
    pub failures: Vec<RungFailure>,
    /// The simulated time estimate of the accepted schedule; `None` when
    /// simulation was disabled or failed (the failure is recorded).
    pub estimate: Option<TimeEstimate>,
    /// What the optimizer's candidate search did (workers, candidates
    /// evaluated/pruned, memo hit rates, wall time); `None` when the
    /// optimizer stage was skipped ([`Pipeline::run_schedule`]) or
    /// failed. A cache-served optimize artifact replays the *producing*
    /// search's stats.
    pub search: Option<SearchStats>,
    /// Which cost model scored the candidate search
    /// ([`OptimizerConfig::model`]).
    pub model: ModelKind,
    /// Per-term cost decomposition of the winning schedule under that
    /// model; `None` when the optimizer stage was skipped or failed.
    pub breakdown: Option<CostBreakdown>,
    /// Artifact-cache counter movement of this run (all misses/bypasses
    /// on a fresh [`Pipeline`] facade; hits when a warm
    /// [`Session`](crate::Session) replayed artifacts).
    pub cache: CacheStats,
    /// Per-pass wall-clock breakdown of this run, one entry per pass
    /// request in execution order (cache hits included, flagged).
    pub timings: Vec<PassTiming>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl PipelineReport {
    /// Whether the pipeline had to fall back below [`Rung::Proposed`].
    pub fn fallback_fired(&self) -> bool {
        self.rung != Rung::Proposed
    }

    /// Aggregates [`PipelineReport::timings`] per pass, in first-request
    /// order: `(pass name, total wall-clock, requests, cache hits)`.
    pub fn pass_totals(&self) -> Vec<(&'static str, Duration, u32, u32)> {
        let mut totals: Vec<(&'static str, Duration, u32, u32)> = Vec::new();
        for t in &self.timings {
            match totals.iter_mut().find(|(name, ..)| *name == t.pass) {
                Some((_, dur, n, hits)) => {
                    *dur += t.elapsed;
                    *n += 1;
                    *hits += u32::from(t.cached);
                }
                None => totals.push((t.pass, t.elapsed, 1, u32::from(t.cached))),
            }
        }
        totals
    }
}

/// The result of a successful (possibly degraded) pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The optimizer's decision; `None` when the optimizer itself failed
    /// or when the caller supplied the schedule via
    /// [`Pipeline::run_schedule`].
    pub decision: Option<Decision>,
    /// The accepted schedule (of the reported rung).
    pub schedule: Schedule,
    /// The accepted schedule lowered onto the nest, ready to execute.
    pub lowered: LoweredNest,
    /// The run's report: achieved rung, recorded failures, estimate.
    pub report: PipelineReport,
}

/// The guarded optimize → lower → validate → simulate flow.
///
/// Each call opens a fresh single-use [`Session`](crate::Session); hold
/// a session yourself to share its artifact cache across runs.
///
/// # Examples
///
/// ```
/// use palo_arch::presets;
/// use palo_core::{Pipeline, Rung};
/// use palo_ir::{DType, NestBuilder};
///
/// let mut b = NestBuilder::new("copy", DType::F32);
/// let i = b.var("i", 64);
/// let j = b.var("j", 64);
/// let src = b.array("src", &[64, 64]);
/// let dst = b.array("dst", &[64, 64]);
/// let ld = b.load(src, &[i, j]);
/// b.store(dst, &[i, j], ld);
/// let nest = b.build()?;
///
/// let out = Pipeline::new(&presets::intel_i7_6700()).run(&nest)?;
/// assert_eq!(out.report.rung, Rung::Proposed);
/// assert!(out.report.estimate.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    arch: Architecture,
    config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline for `arch` with default configuration.
    pub fn new(arch: &Architecture) -> Self {
        Pipeline { arch: arch.clone(), config: PipelineConfig::default() }
    }

    /// A pipeline with an explicit configuration.
    pub fn with_config(arch: &Architecture, config: PipelineConfig) -> Self {
        Pipeline { arch: arch.clone(), config }
    }

    /// The target architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the optimizer on `nest` and executes the degradation ladder.
    ///
    /// # Errors
    ///
    /// Returns an error only when the nest cannot be processed at all:
    /// [`Session::new`] fails ([`PaloError::Arch`] for an inconsistent
    /// architecture description, [`PaloError::Store`] when the configured
    /// cache directory cannot be opened), or every ladder rung —
    /// including the program-order nest — fails.
    /// An optimizer failure alone is *not* an error: the pipeline
    /// degrades and records the failure in the report.
    pub fn run(&self, nest: &LoopNest) -> Result<PipelineOutcome, PaloError> {
        Session::new(&self.arch, self.config.clone())?.run(nest)
    }

    /// Executes the degradation ladder for a caller-supplied schedule
    /// (skipping the optimizer stage).
    ///
    /// The schedule may be arbitrary — even illegal for `nest`; an
    /// illegal schedule simply fails its rung and the ladder continues.
    ///
    /// # Errors
    ///
    /// As for [`Pipeline::run`].
    pub fn run_schedule(
        &self,
        nest: &LoopNest,
        proposed: &Schedule,
    ) -> Result<PipelineOutcome, PaloError> {
        Session::new(&self.arch, self.config.clone())?.run_schedule(nest, proposed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::presets;
    use palo_ir::{DType, NestBuilder};

    fn matmul(n: usize) -> LoopNest {
        let mut b = NestBuilder::new("matmul", DType::F32);
        let i = b.var("i", n);
        let j = b.var("j", n);
        let k = b.var("k", n);
        let a = b.array("A", &[n, n]);
        let bm = b.array("B", &[n, n]);
        let c = b.array("C", &[n, n]);
        b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
        b.build().unwrap()
    }

    #[test]
    fn clean_run_uses_proposed_schedule() {
        let out = Pipeline::new(&presets::intel_i7_6700()).run(&matmul(16)).unwrap();
        assert_eq!(out.report.rung, Rung::Proposed);
        assert!(!out.report.fallback_fired());
        assert!(out.report.failures.is_empty());
        assert!(out.decision.is_some());
        assert!(out.report.estimate.is_some());
        let stats = out.report.search.as_ref().unwrap();
        assert!(stats.workers >= 1);
        assert!(stats.candidates_evaluated > 0);
        // The scoring model and its per-term breakdown are surfaced next
        // to the search stats.
        assert_eq!(out.report.model, ModelKind::Paper);
        let bd = out.report.breakdown.as_ref().unwrap();
        assert_eq!(bd.total, out.decision.as_ref().unwrap().predicted_cost);
        // A single-use facade session starts cold: misses only.
        assert_eq!(out.report.cache.hits, 0);
        assert!(out.report.cache.misses > 0);
    }

    #[test]
    fn run_schedule_has_no_search_stats() {
        let nest = matmul(8);
        let out = Pipeline::new(&presets::intel_i7_6700())
            .run_schedule(&nest, &Schedule::new())
            .unwrap();
        assert!(out.report.search.is_none());
        assert!(out.report.breakdown.is_none());
    }

    #[test]
    fn run_schedule_accepts_illegal_schedule_by_degrading() {
        let nest = matmul(8);
        let mut bad = Schedule::new();
        bad.reorder(&["nonexistent"]); // fails to lower
        let out = Pipeline::new(&presets::intel_i7_6700()).run_schedule(&nest, &bad).unwrap();
        assert!(out.report.fallback_fired());
        assert!(out
            .report
            .failures
            .iter()
            .any(|f| f.rung == Rung::Proposed && matches!(f.error, PaloError::Sched(_))));
    }

    #[test]
    fn invalid_architecture_is_a_hard_error() {
        let mut arch = presets::intel_i7_6700();
        arch.caches.truncate(1);
        let err = Pipeline::new(&arch).run(&matmul(4)).unwrap_err();
        assert!(matches!(err, PaloError::Arch(_)));
    }

    #[test]
    fn report_rung_display_names() {
        assert_eq!(Rung::Proposed.to_string(), "proposed");
        assert_eq!(Rung::Naive.to_string(), "naive");
    }

    #[test]
    fn rung_names_round_trip_and_reject_noise() {
        for rung in Rung::ALL {
            assert_eq!(rung.as_str().parse::<Rung>(), Ok(rung));
            assert_eq!(rung.to_string(), rung.as_str());
        }
        for bad in ["", "Proposed", "NAIVE", " baseline", "base"] {
            assert_eq!(bad.parse::<Rung>(), Err(ParseRungError(bad.to_string())));
        }
        let msg = "x".parse::<Rung>().unwrap_err().to_string();
        assert!(msg.contains("proposed") && msg.contains("naive"), "{msg}");
    }
}
