//! Event counters and the latency-weighted cycle estimate.

use palo_arch::TimingModel;
use serde::{Deserialize, Serialize};

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Demand accesses that hit this level.
    pub demand_hits: u64,
    /// Demand accesses that missed this level.
    pub demand_misses: u64,
    /// Demand hits whose line had been brought in by a prefetcher
    /// (first use only).
    pub prefetch_hits: u64,
    /// Lines filled into this level by a prefetcher.
    pub prefetch_fills: u64,
    /// Dirty lines evicted from this level.
    pub dirty_evictions: u64,
}

impl LevelStats {
    /// Demand accesses observed at this level.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Miss ratio of demand accesses at this level (0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_misses as f64 / total as f64
        }
    }
}

/// Counters for a whole hierarchy run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// Per-level counters, L1 first.
    pub levels: Vec<LevelStats>,
    /// Demand accesses served by main memory.
    pub mem_demand_fills: u64,
    /// Prefetch requests that went to main memory.
    pub mem_prefetch_fills: u64,
    /// Dirty lines written back to main memory.
    pub mem_writebacks: u64,
    /// Lines written with the non-temporal hint (bypassing the caches).
    pub nt_store_lines: u64,
    /// Total demand accesses fed to the hierarchy.
    pub total_accesses: u64,
}

impl HierarchyStats {
    pub(crate) fn new(levels: usize) -> Self {
        HierarchyStats { levels: vec![LevelStats::default(); levels], ..Default::default() }
    }

    /// Raw cache-hit cycles: every demand hit charged its level's full
    /// latency (`latencies[k]` for level `k`). Out-of-order cores hide
    /// most of this; scale by [`TimingModel::hit_exposed_fraction`] for a
    /// time estimate.
    pub fn hit_cycles(&self, latencies: &[f64]) -> f64 {
        self.levels.iter().zip(latencies).map(|(s, &lat)| s.demand_hits as f64 * lat).sum()
    }

    /// Exposed-latency cycles of demand misses to memory.
    pub fn demand_fill_cycles(&self, timing: &TimingModel) -> f64 {
        self.mem_demand_fills as f64 * timing.mem_latency_cycles
    }

    /// Latency-side cycle estimate: demand hits are charged their level's
    /// latency and demand memory fills the full memory latency. This is
    /// per-execution-stream work that parallel execution divides.
    ///
    /// `latencies[k]` is the access latency of level `k`.
    pub fn latency_cycles(&self, latencies: &[f64], timing: &TimingModel) -> f64 {
        self.hit_cycles(latencies) + self.demand_fill_cycles(timing)
    }

    /// Bandwidth-side cycle estimate: every line crossing the memory bus
    /// (demand fills, prefetch fills, writebacks, NT stores) costs one
    /// transfer. The bus is shared by all cores, so this component does
    /// *not* scale with parallelism — it is what makes memory-bound
    /// kernels memory-bound.
    pub fn bus_cycles(&self, timing: &TimingModel) -> f64 {
        self.mem_traffic_lines() as f64 * timing.mem_transfer_cycles
    }

    /// Combined single-thread estimate
    /// ([`HierarchyStats::latency_cycles`] + [`HierarchyStats::bus_cycles`]).
    pub fn memory_cycles(&self, latencies: &[f64], timing: &TimingModel) -> f64 {
        self.latency_cycles(latencies, timing) + self.bus_cycles(timing)
    }

    /// Total lines transferred on the memory bus (reads + writes),
    /// the bandwidth figure of merit.
    pub fn mem_traffic_lines(&self) -> u64 {
        self.mem_demand_fills
            + self.mem_prefetch_fills
            + self.mem_writebacks
            + self.nt_store_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio() {
        let s = LevelStats { demand_hits: 3, demand_misses: 1, ..Default::default() };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(LevelStats::default().miss_ratio(), 0.0);
        assert_eq!(s.demand_accesses(), 4);
    }

    #[test]
    fn memory_cycles_weights_levels() {
        let mut st = HierarchyStats::new(2);
        st.levels[0].demand_hits = 10;
        st.levels[1].demand_hits = 5;
        st.mem_demand_fills = 2;
        st.mem_writebacks = 3;
        let t = TimingModel {
            mem_latency_cycles: 100.0,
            mem_transfer_cycles: 10.0,
            ..TimingModel::default()
        };
        let lat = st.latency_cycles(&[1.0, 10.0], &t);
        assert!((lat - (10.0 + 50.0 + 200.0)).abs() < 1e-9);
        // bus: 2 demand fills + 3 writebacks = 5 lines * 10 cycles
        let bus = st.bus_cycles(&t);
        assert!((bus - 50.0).abs() < 1e-9);
        let cycles = st.memory_cycles(&[1.0, 10.0], &t);
        assert!((cycles - (lat + bus)).abs() < 1e-9);
    }

    #[test]
    fn traffic_sums_all_bus_events() {
        let st = HierarchyStats {
            mem_demand_fills: 1,
            mem_prefetch_fills: 2,
            mem_writebacks: 3,
            nt_store_lines: 4,
            ..HierarchyStats::new(1)
        };
        assert_eq!(st.mem_traffic_lines(), 10);
    }
}
