//! The multi-level hierarchy: caches + prefetchers + statistics.

use crate::cache::{AccessOutcome, Cache, Eviction};
use crate::error::SimConfigError;
use crate::stats::HierarchyStats;
use crate::strategy::PrefetchUnit;
use palo_arch::Architecture;

/// Number of cache levels the fused lookup-victim path keeps on the
/// stack; deeper (hypothetical) hierarchies fall back to the re-scanning
/// fill. Every real architecture has at most three levels.
const FUSED_LEVELS: usize = 8;

/// The parked-frontier predicate of a locked stride-table stream
/// (`StridePrefetcher::ramp_state`) computed from the run engine's local
/// ramp mirror: every further expected feed then pushes exactly one line
/// (the new frontier) and preserves `r`.
#[inline]
fn parked_from(r: i64, st_abs: u64, limit: u64, degree: u32) -> bool {
    degree > 0
        && r >= st_abs as i64
        && r as u64 <= limit
        && (degree == 1 || (r as u64).saturating_add(st_abs) > limit)
}

/// Kind of a demand memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read.
    Load,
    /// Write (write-allocate, write-back).
    Store,
    /// Write with a non-temporal hint: bypasses allocation, costs one
    /// bandwidth-side line transfer (write-combining).
    NtStore,
}

/// A constant-stride sequence of line-granular demand accesses: `count`
/// lines starting at `start_line`, each `stride_lines` apart. The
/// run-compressed replay event — one `AccessRun` stands for what the
/// scalar path issues as `count` individual line accesses, in the same
/// order, with bit-identical statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRun {
    /// First line address (byte address >> line bits).
    pub start_line: u64,
    /// Line-address delta between consecutive accesses (may be negative;
    /// `0` only makes sense with `count <= 1`).
    pub stride_lines: i64,
    /// Number of line accesses in the run.
    pub count: u64,
    /// Demand kind shared by every access of the run.
    pub kind: AccessKind,
}

/// Replay-engine telemetry: how the traffic arrived batched.
/// Deliberately *not* part of [`HierarchyStats`] — the differential
/// contract is that compressed and scalar replay produce identical
/// simulation statistics, while these counters describe the replay
/// mechanism itself.
///
/// Every line is replayed, so `cycles_skipped` and `lines_skipped` are
/// always 0. They stay because the encoded simulate artifact, the serve
/// protocol's `replay` array and the benchmark's per-layer report carry
/// them; dropping them would change those formats for no behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Batched access events consumed (runs and ranges).
    pub runs: u64,
    /// Line accesses covered by those events.
    pub run_lines: u64,
    /// Always 0: no iteration is skipped.
    pub cycles_skipped: u64,
    /// Always 0: no line is skipped.
    pub lines_skipped: u64,
}

/// Which part of the hierarchy served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedBy {
    /// 0 = L1, 1 = L2, ...; equal to the number of levels for memory.
    pub level: usize,
    /// Whether the serving line had been placed there by a prefetcher.
    pub prefetched: bool,
}

/// Feedback-directed prefetch throttling, as real prefetchers implement:
/// when the recent prefetch-accuracy (first-use hits per issued fill)
/// drops below a threshold, issuing is duty-cycled down until accuracy
/// recovers. This prevents pathological streams (e.g. large-stride
/// column walks whose prefetched lines are evicted before use) from
/// flooding the memory bus.
#[derive(Debug, Clone, Default)]
struct PrefetchThrottle {
    fills: u32,
    hits: u32,
    throttled: bool,
    duty: u32,
}

impl PrefetchThrottle {
    const WINDOW: u32 = 2048;
    /// Minimum accuracy (percent) to keep prefetching at full rate.
    const MIN_ACCURACY_PCT: u32 = 15;
    /// In throttled mode, one in this many prefetches still issues so
    /// accuracy can be re-probed.
    const DUTY: u32 = 8;

    fn allow(&mut self) -> bool {
        if !self.throttled {
            return true;
        }
        self.duty = self.duty.wrapping_add(1);
        self.duty.is_multiple_of(Self::DUTY)
    }

    /// Whether the next `n` prefetch-issue attempts would all be denied
    /// ([`PrefetchThrottle::allow`] false) without any state change beyond
    /// `n` duty ticks — true only in throttled mode when the duty window
    /// reaches no allow slot within `n` ticks.
    fn denies_run(&self, n: u32) -> bool {
        self.throttled && n < Self::DUTY && (self.duty % Self::DUTY) + n < Self::DUTY
    }

    /// Consumes `n` duty ticks, mirroring `n` denied
    /// [`PrefetchThrottle::allow`] calls (guarded by
    /// [`PrefetchThrottle::denies_run`]).
    fn consume_denied(&mut self, n: u32) {
        self.duty = self.duty.wrapping_add(n);
    }

    fn on_fill(&mut self) {
        self.fills += 1;
        if self.fills >= Self::WINDOW {
            self.throttled = self.hits * 100 < self.fills * Self::MIN_ACCURACY_PCT;
            // Exponential decay keeps history without unbounded growth.
            self.fills /= 2;
            self.hits /= 2;
        }
    }

    fn on_hit(&mut self) {
        self.hits += 1;
    }
}

/// A simulated cache hierarchy with hardware prefetchers.
///
/// See the crate docs for the modeled behaviour. All demand traffic goes
/// through [`Hierarchy::access`], the batched [`Hierarchy::access_range`]
/// or the run-compressed [`Hierarchy::access_run`]; statistics accumulate
/// in [`Hierarchy::stats`] until [`Hierarchy::reset_stats`].
#[derive(Debug, Clone)]
pub struct Hierarchy {
    caches: Vec<Cache>,
    latencies: Vec<f64>,
    line_bits: u32,
    /// One prefetcher unit per cache level (inert where the config has
    /// none), built by [`PrefetchUnit::new`] from the architecture
    /// description.
    units: Vec<PrefetchUnit>,
    throttle: PrefetchThrottle,
    stats: HierarchyStats,
    replay: ReplayStats,
    /// Reusable scratch for stride-prefetch lines (avoids one allocation
    /// per observed miss on the hot path).
    pf_buf: Vec<u64>,
}

impl Hierarchy {
    /// Builds the hierarchy described by `arch`, one simulated thread.
    ///
    /// # Panics
    ///
    /// Panics on degenerate architecture descriptions; use
    /// [`Hierarchy::try_from_architecture`] in fallible contexts.
    pub fn from_architecture(arch: &Architecture) -> Self {
        Self::with_effective_sharing(arch, 1, 1)
    }

    /// Fallible variant of [`Hierarchy::from_architecture`].
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError`] when `arch` has fewer than two cache
    /// levels, a non-power-of-two L1 line size, or a level with zero
    /// sets or ways.
    pub fn try_from_architecture(arch: &Architecture) -> Result<Self, SimConfigError> {
        Self::try_with_effective_sharing(arch, 1, 1)
    }

    /// Builds the hierarchy as *one thread* of a parallel execution sees
    /// it: private levels lose `threads_per_core_used`-ths of their
    /// associativity (hyper-thread sharing), chip-shared levels lose
    /// `cores_used`-ths — the same effective-capacity corrections the
    /// paper applies (`Lieway = Liway / Nthreads`, and `L2way / Ncores`
    /// for the A15's shared L2).
    ///
    /// # Panics
    ///
    /// Panics on degenerate architecture descriptions; use
    /// [`Hierarchy::try_with_effective_sharing`] in fallible contexts.
    pub fn with_effective_sharing(
        arch: &Architecture,
        threads_per_core_used: usize,
        cores_used: usize,
    ) -> Self {
        match Self::try_with_effective_sharing(arch, threads_per_core_used, cores_used) {
            Ok(h) => h,
            Err(e) => panic!("invalid architecture for cache simulation: {e}"),
        }
    }

    /// Fallible variant of [`Hierarchy::with_effective_sharing`].
    ///
    /// # Errors
    ///
    /// Returns [`SimConfigError`] when `arch` has fewer than two cache
    /// levels, a non-power-of-two L1 line size, or a level with zero
    /// sets or ways after the sharing correction.
    pub fn try_with_effective_sharing(
        arch: &Architecture,
        threads_per_core_used: usize,
        cores_used: usize,
    ) -> Result<Self, SimConfigError> {
        if arch.caches.len() < 2 {
            return Err(SimConfigError::TooFewLevels { found: arch.caches.len() });
        }
        let line_size = arch.l1().line_size;
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(SimConfigError::BadLineSize { line_size });
        }
        let line_bits = line_size.trailing_zeros();
        let mut caches = Vec::new();
        let mut latencies = Vec::new();
        for level in &arch.caches {
            let divisor = match level.sharing {
                palo_arch::SharingScope::Core => threads_per_core_used.max(1),
                palo_arch::SharingScope::Chip => cores_used.max(1),
            };
            // Guard before num_sets(), which divides by ways * line size.
            if level.associativity == 0 || level.line_size == 0 {
                return Err(SimConfigError::EmptyLevel {
                    level: caches.len(),
                    sets: 0,
                    ways: level.associativity,
                });
            }
            let ways = (level.associativity / divisor).max(1);
            let sets = level.num_sets();
            if sets == 0 {
                return Err(SimConfigError::EmptyLevel {
                    level: caches.len(),
                    sets,
                    ways: level.associativity,
                });
            }
            caches.push(Cache::new(sets, ways));
            latencies.push(level.latency_cycles);
        }
        let units = arch
            .caches
            .iter()
            .enumerate()
            .map(|(k, level)| PrefetchUnit::new(k, &level.prefetcher))
            .collect();
        let n = caches.len();
        Ok(Hierarchy {
            caches,
            latencies,
            line_bits,
            units,
            throttle: PrefetchThrottle::default(),
            stats: HierarchyStats::new(n),
            replay: ReplayStats::default(),
            pf_buf: Vec::new(),
        })
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Replay-engine telemetry (run batching).
    pub fn replay_stats(&self) -> ReplayStats {
        self.replay
    }

    /// Per-level access latencies (for [`HierarchyStats::memory_cycles`]).
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Clears counters but keeps cache contents (for warm-up protocols).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::new(self.caches.len());
        self.replay = ReplayStats::default();
    }

    /// Empties every cache and prefetcher unit.
    pub fn flush(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
        for u in &mut self.units {
            u.reset();
        }
        self.throttle = PrefetchThrottle::default();
    }

    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        self.caches.len()
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        1 << self.line_bits
    }

    /// Performs one demand access at byte address `addr`.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> ServedBy {
        let line = addr >> self.line_bits;
        self.access_line(line, kind)
    }

    /// Touches every line overlapping `[addr, addr + bytes)` once — the
    /// batched entry point used by the trace generator for contiguous
    /// runs.
    pub fn access_range(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        if bytes == 0 {
            return;
        }
        let first = addr >> self.line_bits;
        let last = (addr + bytes - 1) >> self.line_bits;
        self.access_run(&AccessRun {
            start_line: first,
            stride_lines: 1,
            count: last - first + 1,
            kind,
        });
    }

    /// Consumes a whole constant-stride run. Statistically bit-identical
    /// to issuing the run's lines one by one through
    /// [`Hierarchy::access`]: the per-line transition is the same, but
    /// the stride-prefetcher table scan is replaced by an O(1)
    /// expected-stream update for as long as the locked stream keeps
    /// predicting the run (the common case for strided walks).
    pub fn access_run(&mut self, run: &AccessRun) {
        if run.count == 0 {
            return;
        }
        self.replay.runs += 1;
        self.replay.run_lines += run.count;
        if run.count <= 2 || run.stride_lines == 0 || run.kind == AccessKind::NtStore {
            let mut line = run.start_line;
            for _ in 0..run.count {
                self.access_line(line, run.kind);
                line = line.wrapping_add_signed(run.stride_lines);
            }
            return;
        }
        self.access_run_fast(run);
    }

    fn access_line(&mut self, line: u64, kind: AccessKind) -> ServedBy {
        self.stats.total_accesses += 1;
        if kind == AccessKind::NtStore {
            // Non-temporal store: if the line happens to be cached, update
            // it in place (hardware keeps coherence); otherwise bypass the
            // hierarchy entirely at one line-transfer of bus cost.
            if self.caches[0].access(line, true).hit {
                self.stats.levels[0].demand_hits += 1;
                return ServedBy { level: 0, prefetched: false };
            }
            self.stats.levels[0].demand_misses += 1;
            self.stats.nt_store_lines += 1;
            return ServedBy { level: self.caches.len(), prefetched: false };
        }
        let write = kind == AccessKind::Store;
        let nlevels = self.caches.len();

        // One fused pass per missing level remembers the victim slot the
        // fill will take, so the fill skips its own set scan. Valid
        // because nothing touches level `k` between its lookup and its
        // fill: lower-level lookups and fills only operate on deeper
        // caches, and eviction cascades only flow downward.
        let mut victims = [0u32; FUSED_LEVELS];
        let mut served = None;
        // The index drives `caches`/`stats.levels` too, not just `victims`.
        #[allow(clippy::needless_range_loop)]
        for k in 0..nlevels {
            match self.caches[k].access_with_victim(line, write && k == 0) {
                AccessOutcome::Hit { first_prefetch_use } => {
                    self.stats.levels[k].demand_hits += 1;
                    if first_prefetch_use {
                        self.stats.levels[k].prefetch_hits += 1;
                        self.throttle.on_hit();
                    }
                    served = Some(ServedBy { level: k, prefetched: first_prefetch_use });
                    break;
                }
                AccessOutcome::Miss { victim } => {
                    self.stats.levels[k].demand_misses += 1;
                    if k < FUSED_LEVELS {
                        victims[k] = victim;
                    }
                }
            }
        }
        let served = served.unwrap_or_else(|| {
            self.stats.mem_demand_fills += 1;
            ServedBy { level: nlevels, prefetched: false }
        });

        // Fill the line into every level above the serving one (each of
        // which just reported a miss, so the line is provably absent).
        for k in (0..served.level.min(nlevels)).rev() {
            let ev = if k < FUSED_LEVELS {
                self.caches[k].insert_at(victims[k], line, write && k == 0, false)
            } else {
                self.caches[k].fill_absent(line, write && k == 0, false)
            };
            self.handle_eviction(k, ev);
        }

        // Prefetchers observe the demand stream.
        if served.level >= 1 {
            self.observe_demand_miss(line);
        }
        served
    }

    /// Feeds an L1 demand miss to every prefetcher unit and issues what
    /// they emit — the scalar engine's observe path.
    fn observe_demand_miss(&mut self, line: u64) {
        let mut units = std::mem::take(&mut self.units);
        let mut buf = std::mem::take(&mut self.pf_buf);
        for (k, unit) in units.iter_mut().enumerate() {
            self.observe_unit(k, unit, line, &mut buf);
        }
        self.pf_buf = buf;
        self.units = units;
    }

    /// Feeds one miss to the unit at level `k` and issues its emissions —
    /// the per-unit observe step shared by the scalar engine and the run
    /// engine (which drives the locked unit separately).
    fn observe_unit(
        &mut self,
        k: usize,
        unit: &mut PrefetchUnit,
        line: u64,
        buf: &mut Vec<u64>,
    ) {
        buf.clear();
        unit.observe_into(line, buf);
        self.issue_prefetches(k, buf);
    }

    /// The run-compressed hot loop: same per-line transition as
    /// [`Hierarchy::access_line`], plus an expected-stream lock that
    /// bypasses the level-1 stride table's scan while a lower-indexed
    /// stream provably cannot capture the run's lines. Table-free units,
    /// and units at other levels, take the plain per-line observe path
    /// (cheap: they are table-free or inert on every preset).
    fn access_run_fast(&mut self, run: &AccessRun) {
        let write = run.kind == AccessKind::Store;
        let stride = run.stride_lines;
        let nlevels = self.caches.len();
        let mut line = run.start_line;
        // Locked stream index + how many more lines it is provably safe
        // to feed it without re-scanning the table. While locked,
        // `expect_next` is the line the locked stream predicts: an
        // activated lock implies the stream's stride equals the run's
        // (`expects` held for `line + stride`), and `observe_expected`
        // keeps `last = line` with the stride unchanged, so the
        // prediction advances by `stride` per fed line — the same test
        // `expects` performs, without re-reading the table.
        let mut locked: Option<usize> = None;
        let mut safe_left: u64 = 0;
        let mut expect_next: u64 = 0;
        // Whether the locked stream's frontier is parked at the run-ahead
        // limit — feeds then take the O(1) single-line path. Parkedness
        // is invariant under parked feeds, so it is only re-evaluated
        // after full-path feeds.
        let mut parked = false;
        // Exact local mirror of the locked stream's ramp state (see
        // `StridePrefetcher::ramp_state`): `ramp_r` is the signed frontier
        // run-ahead, updated arithmetically on fast-path feeds and
        // re-read after full-path feeds, so both fast-feed regime checks
        // run without touching the stream table.
        let mut ramp_r: i64 = 0;
        let mut ramp_limit: u64 = 0;
        let mut degree: u32 = 0;
        let st_abs = stride.unsigned_abs();
        let mut units = std::mem::take(&mut self.units);
        let mut buf = std::mem::take(&mut self.pf_buf);
        for _ in 0..run.count {
            self.stats.total_accesses += 1;
            let mut victims = [0u32; FUSED_LEVELS];
            let mut served_level = nlevels;
            let mut first_use = false;
            // The index drives `caches`/`stats.levels` too, not just `victims`.
            #[allow(clippy::needless_range_loop)]
            for k in 0..nlevels {
                match self.caches[k].access_with_victim(line, write && k == 0) {
                    AccessOutcome::Hit { first_prefetch_use } => {
                        served_level = k;
                        first_use = first_prefetch_use;
                        break;
                    }
                    AccessOutcome::Miss { victim } => {
                        self.stats.levels[k].demand_misses += 1;
                        if k < FUSED_LEVELS {
                            victims[k] = victim;
                        }
                    }
                }
            }
            if served_level == nlevels {
                self.stats.mem_demand_fills += 1;
            } else {
                self.stats.levels[served_level].demand_hits += 1;
                if first_use {
                    self.stats.levels[served_level].prefetch_hits += 1;
                    self.throttle.on_hit();
                }
            }
            for k in (0..served_level.min(nlevels)).rev() {
                let ev = if k < FUSED_LEVELS {
                    self.caches[k].insert_at(victims[k], line, write && k == 0, false)
                } else {
                    self.caches[k].fill_absent(line, write && k == 0, false)
                };
                self.handle_eviction(k, ev);
            }
            if served_level >= 1 {
                // Level-0 unit: plain per-miss observe (next-line and
                // adjacent-pair units are O(1) and table-free).
                if let Some(u0) = units.first_mut() {
                    self.observe_unit(0, u0, line, &mut buf);
                }
                // Level-1 unit: a stride table takes the expected-stream
                // lock; only a table ever reports a stream to lock onto.
                match units.get_mut(1) {
                    Some(PrefetchUnit::Table(p)) => match locked {
                        Some(f) if safe_left > 0 && line == expect_next => {
                            safe_left -= 1;
                            expect_next = line.wrapping_add_signed(stride);
                            // Ramp span: frontier lead gained per
                            // full-degree feed.
                            let span =
                                st_abs.saturating_mul(u64::from(degree).saturating_sub(1));
                            if parked {
                                let pline = p.feed_parked(f, line);
                                self.issue_prefetches(1, std::slice::from_ref(&pline));
                            } else if ramp_r >= st_abs as i64
                                && (ramp_r as u64).saturating_add(span) <= ramp_limit
                                && self.throttle.denies_run(degree)
                            {
                                // Exactly `degree` pushes, all denied:
                                // O(1) transition, nothing issued.
                                p.feed_denied(f, line);
                                self.throttle.consume_denied(degree);
                                ramp_r += span as i64;
                                parked = parked_from(ramp_r, st_abs, ramp_limit, degree);
                            } else {
                                buf.clear();
                                p.observe_expected(f, line, &mut buf);
                                ramp_r = p.ramp_state(f).0;
                                parked = parked_from(ramp_r, st_abs, ramp_limit, degree);
                                if !buf.is_empty() {
                                    self.issue_prefetches(1, &buf);
                                }
                            }
                        }
                        _ => {
                            buf.clear();
                            locked = p.observe_into(line, &mut buf);
                            safe_left = 0;
                            parked = false;
                            if let Some(f) = locked {
                                let next = line.wrapping_add_signed(stride);
                                if p.expects(f, next) {
                                    safe_left = p.capture_free_steps(f, next, stride);
                                    expect_next = next;
                                    (ramp_r, ramp_limit, degree) = p.ramp_state(f);
                                    parked = parked_from(ramp_r, st_abs, ramp_limit, degree);
                                }
                            }
                            if !buf.is_empty() {
                                self.issue_prefetches(1, &buf);
                            }
                        }
                    },
                    Some(u1) => self.observe_unit(1, u1, line, &mut buf),
                    None => {}
                }
                // Deeper units (inert on every real preset): plain observe.
                for (k, u) in units.iter_mut().enumerate().skip(2) {
                    self.observe_unit(k, u, line, &mut buf);
                }
            }
            line = line.wrapping_add_signed(stride);
        }
        buf.clear();
        self.pf_buf = buf;
        self.units = units;
    }

    /// Routes a unit's emitted prefetch lines into the hierarchy, through
    /// the accuracy throttle. Level-0 emissions fill L1 only (the
    /// next-line/adjacent-pair placement); emissions from level `k >= 1`
    /// fill levels `k..` bottom-up.
    fn issue_prefetches(&mut self, level: usize, plines: &[u64]) {
        if level == 0 {
            for &pline in plines {
                if self.throttle.allow() {
                    self.prefetch_fill(0, pline);
                    self.throttle.on_fill();
                }
            }
            return;
        }
        let last = self.caches.len() - 1;
        for &pline in plines {
            if !self.throttle.allow() {
                continue;
            }
            // Stream/stride prefetches land in their own level (and the
            // LLC on the way), filled bottom-up: once the bottom level is
            // handled the line is resident there, so the upper levels'
            // came-from-memory probe (`in_lower` in
            // [`Hierarchy::prefetch_fill`]) would provably succeed and is
            // skipped.
            for k in (level..=last).rev() {
                if self.caches[k].probe(pline) {
                    continue;
                }
                if k == last {
                    self.stats.mem_prefetch_fills += 1;
                }
                self.stats.levels[k].prefetch_fills += 1;
                let ev = self.caches[k].fill_absent(pline, false, true);
                self.handle_eviction(k, ev);
            }
            self.throttle.on_fill();
        }
    }

    /// Fills `line` into level `k` as a prefetch, accounting bus traffic
    /// when the line came from memory.
    fn prefetch_fill(&mut self, k: usize, line: u64) {
        if self.caches[k].probe(line) {
            return;
        }
        // Where does the prefetched data come from?
        let in_lower = (k + 1..self.caches.len()).any(|j| self.caches[j].probe(line));
        if !in_lower {
            self.stats.mem_prefetch_fills += 1;
        }
        self.stats.levels[k].prefetch_fills += 1;
        let ev = self.caches[k].fill_absent(line, false, true);
        self.handle_eviction(k, ev);
    }

    fn handle_eviction(&mut self, k: usize, ev: Eviction) {
        match ev {
            Eviction::None | Eviction::Clean(_) => {}
            Eviction::Dirty(victim) => {
                self.stats.levels[k].dirty_evictions += 1;
                // Write back into the next level; from the last level the
                // line goes to memory.
                let mut level = k + 1;
                let mut line = Some(victim);
                while let Some(v) = line {
                    if level >= self.caches.len() {
                        self.stats.mem_writebacks += 1;
                        line = None;
                    } else {
                        match self.caches[level].mark_dirty_with_victim(v) {
                            // Present: writeback absorbed in place.
                            None => line = None,
                            Some(slot) => {
                                let ev = self.caches[level].insert_at(slot, v, true, false);
                                match ev {
                                    Eviction::Dirty(next) => {
                                        self.stats.levels[level].dirty_evictions += 1;
                                        line = Some(next);
                                        level += 1;
                                    }
                                    _ => line = None,
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use palo_arch::{presets, PrefetcherConfig};

    fn intel() -> Hierarchy {
        Hierarchy::from_architecture(&presets::intel_i7_6700())
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut h = intel();
        let s = h.access(0x1000, AccessKind::Load);
        assert_eq!(s.level, h.num_levels()); // memory
        let s = h.access(0x1000, AccessKind::Load);
        assert_eq!(s.level, 0);
        assert_eq!(h.stats().levels[0].demand_hits, 1);
        assert_eq!(h.stats().mem_demand_fills, 1);
    }

    #[test]
    fn next_line_prefetch_covers_sequential_stream() {
        let mut h = intel();
        h.access(0, AccessKind::Load);
        // line 1 was prefetched by the L1 streamer
        let s = h.access(64, AccessKind::Load);
        assert_eq!(s.level, 0);
        assert!(s.prefetched);
        assert_eq!(h.stats().levels[0].prefetch_hits, 1);
    }

    #[test]
    fn stride_prefetcher_feeds_l2() {
        let mut h = intel();
        // Stride of 4 lines: L1 next-line does not help, L2 stride does.
        let stride = 4 * 64u64;
        let mut mem_after_warmup = 0;
        for i in 0..64u64 {
            let s = h.access(i * stride, AccessKind::Load);
            if i >= 8 && s.level >= h.num_levels() {
                mem_after_warmup += 1;
            }
        }
        assert_eq!(mem_after_warmup, 0, "stride prefetcher should cover the stream");
        assert!(h.stats().levels[1].prefetch_hits > 40);
    }

    #[test]
    fn nt_store_bypasses_and_counts() {
        let mut h = intel();
        for i in 0..16u64 {
            h.access(0x100000 + i * 64, AccessKind::NtStore);
        }
        assert_eq!(h.stats().nt_store_lines, 16);
        assert_eq!(h.stats().mem_demand_fills, 0);
        // The lines are not cached afterwards.
        let s = h.access(0x100000, AccessKind::Load);
        assert_eq!(s.level, h.num_levels());
    }

    #[test]
    fn store_allocates_and_writes_back() {
        let mut h = intel();
        // Write a working set larger than all caches, then stream past it:
        // dirty lines must be written back.
        let llc_bytes = 8 * 1024 * 1024u64;
        for addr in (0..2 * llc_bytes).step_by(64) {
            h.access(addr, AccessKind::Store);
        }
        assert!(h.stats().mem_writebacks > 0);
    }

    #[test]
    fn hit_levels_in_order() {
        let mut h = intel();
        h.access(0, AccessKind::Load);
        // Evict from L1 by filling its set: L1 is 8-way (64 sets), lines
        // mapping to set 0 are 64 lines apart.
        let set_stride = 64 * 64u64;
        for i in 1..=16u64 {
            h.access(i * set_stride, AccessKind::Load);
        }
        let s = h.access(0, AccessKind::Load);
        assert!(s.level >= 1, "line should have left L1, got {s:?}");
        assert!(s.level < h.num_levels(), "line should still be in L2/L3");
    }

    #[test]
    fn effective_sharing_halves_ways() {
        let arch = presets::intel_i7_6700();
        let h1 = Hierarchy::from_architecture(&arch);
        let h2 = Hierarchy::with_effective_sharing(&arch, 2, 4);
        assert_eq!(h1.caches[0].capacity(), 2 * h2.caches[0].capacity());
        // L3 shared by 4 cores
        assert_eq!(h1.caches[2].capacity(), 4 * h2.caches[2].capacity());
    }

    #[test]
    fn reset_and_flush() {
        let mut h = intel();
        h.access(0, AccessKind::Load);
        h.reset_stats();
        assert_eq!(h.stats().total_accesses, 0);
        // contents survive reset_stats
        assert_eq!(h.access(0, AccessKind::Load).level, 0);
        h.flush();
        assert_eq!(h.access(0, AccessKind::Load).level, h.num_levels());
    }

    #[test]
    fn access_range_touches_each_line_once() {
        let mut h = intel();
        h.access_range(32, 256, AccessKind::Load); // lines 0..=4 (5 lines)
        assert_eq!(h.stats().total_accesses, 5);
        h.access_range(0, 0, AccessKind::Load);
        assert_eq!(h.stats().total_accesses, 5);
    }

    #[test]
    fn arm_has_two_levels() {
        let h = Hierarchy::from_architecture(&presets::arm_cortex_a15());
        assert_eq!(h.num_levels(), 2);
    }

    /// The core differential property at the unit level: a strided run
    /// through `access_run` leaves identical statistics to the same lines
    /// pushed one by one through `access`.
    fn assert_run_matches_scalar(stride_lines: i64, count: u64, kind: AccessKind) {
        for arch in
            [presets::intel_i7_6700(), presets::intel_i7_5930k(), presets::arm_cortex_a15()]
        {
            assert_run_matches_scalar_on(&arch, stride_lines, count, kind);
        }
    }

    fn assert_run_matches_scalar_on(
        arch: &palo_arch::Architecture,
        stride_lines: i64,
        count: u64,
        kind: AccessKind,
    ) {
        let mut fast = Hierarchy::from_architecture(arch);
        let mut slow = Hierarchy::from_architecture(arch);
        let start_line = 1 << 14;
        fast.access_run(&AccessRun { start_line, stride_lines, count, kind });
        let mut line = start_line;
        for _ in 0..count {
            slow.access_line(line, kind);
            line = line.wrapping_add_signed(stride_lines);
        }
        assert_eq!(fast.stats(), slow.stats(), "{}: stride {stride_lines}", arch.name);
        // And the state is equivalent too: a probe stream afterwards
        // behaves identically.
        let probe = AccessRun { start_line, stride_lines, count, kind: AccessKind::Load };
        fast.access_run(&probe);
        let mut line = start_line;
        for _ in 0..count {
            slow.access_line(line, AccessKind::Load);
            line = line.wrapping_add_signed(stride_lines);
        }
        assert_eq!(fast.stats(), slow.stats(), "{}: reprobe {stride_lines}", arch.name);
    }

    #[test]
    fn run_engine_matches_scalar_unit_stride() {
        assert_run_matches_scalar(1, 500, AccessKind::Load);
        assert_run_matches_scalar(1, 500, AccessKind::Store);
    }

    #[test]
    fn run_engine_matches_scalar_big_strides() {
        for stride in [2i64, 7, 16, 100, 1000, -3, -64] {
            assert_run_matches_scalar(stride, 300, AccessKind::Load);
            assert_run_matches_scalar(stride, 300, AccessKind::Store);
        }
    }

    /// Every `PrefetcherConfig` variant installed at both L1 and L2, plus
    /// the zoo platform presets: the run engine must stay bit-identical
    /// to the scalar path for every [`PrefetchUnit`] — the stride tables
    /// that take the stream lock and the table-free units that never do.
    #[test]
    fn run_engine_matches_scalar_across_the_prefetcher_zoo() {
        let variants = [
            PrefetcherConfig::None,
            PrefetcherConfig::NextLine,
            PrefetcherConfig::AdjacentPair,
            PrefetcherConfig::Stride { degree: 2, max_distance: 20 },
            PrefetcherConfig::ConfidentStride {
                degree: 2,
                max_distance: 12,
                min_confidence: 3,
            },
            PrefetcherConfig::Stream { degree: 4, max_distance: 16, confirm: 2 },
        ];
        let mut archs: Vec<palo_arch::Architecture> = variants
            .into_iter()
            .map(|pf| {
                let mut arch = presets::intel_i7_6700();
                arch.caches[0].prefetcher = pf;
                arch.caches[1].prefetcher = pf;
                arch
            })
            .collect();
        archs.extend(presets::zoo());
        for arch in &archs {
            for stride in [1i64, 4, -3] {
                assert_run_matches_scalar_on(arch, stride, 400, AccessKind::Load);
                assert_run_matches_scalar_on(arch, stride, 400, AccessKind::Store);
            }
        }
    }

    #[test]
    fn run_engine_counts_replay() {
        let mut h = intel();
        h.access_run(&AccessRun {
            start_line: 0,
            stride_lines: 3,
            count: 64,
            kind: AccessKind::Load,
        });
        assert_eq!(h.replay_stats().runs, 1);
        assert_eq!(h.replay_stats().run_lines, 64);
        assert_eq!(h.stats().total_accesses, 64);
    }
}
