//! Stable fingerprints for execution-layer values.
//!
//! [`TraceOptions`] is key *input* material for the pass framework's
//! Simulate pass (a different trace budget can legitimately produce a
//! different — aborted vs. complete — artifact), and [`TimeEstimate`] is
//! the pass's *artifact*, fingerprinted so cached estimates can be
//! identified and compared across sessions.

use crate::timing::TimeEstimate;
use crate::trace::TraceOptions;
use palo_ir::{StableHash, StableHasher};

impl StableHash for TraceOptions {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.max_lines.stable_hash(h);
        match self.deadline {
            None => h.write_u8(0),
            Some(d) => {
                h.write_u8(1);
                h.write_u64(d.as_nanos() as u64);
            }
        }
    }
}

impl StableHash for TimeEstimate {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(self.ms);
        h.write_f64(self.memory_cycles);
        h.write_f64(self.bus_cycles);
        h.write_f64(self.compute_cycles);
        h.write_f64(self.speedup);
        let s = &self.stats;
        h.write_usize(s.levels.len());
        for l in &s.levels {
            h.write_u64(l.demand_hits);
            h.write_u64(l.demand_misses);
            h.write_u64(l.prefetch_hits);
            h.write_u64(l.prefetch_fills);
            h.write_u64(l.dirty_evictions);
        }
        h.write_u64(s.mem_demand_fills);
        h.write_u64(s.mem_prefetch_fills);
        h.write_u64(s.mem_writebacks);
        h.write_u64(s.nt_store_lines);
        h.write_u64(s.total_accesses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_options_digest_tracks_guards() {
        let base = TraceOptions::default().digest();
        assert_eq!(base, TraceOptions::default().digest());
        let capped = TraceOptions { max_lines: Some(10), ..TraceOptions::default() };
        assert_ne!(base, capped.digest());
        let deadlined = TraceOptions {
            deadline: Some(Duration::from_millis(5)),
            ..TraceOptions::default()
        };
        assert_ne!(base, deadlined.digest());
        // None vs Some(0) must differ (tagged encoding).
        let zero = TraceOptions { max_lines: Some(0), ..TraceOptions::default() };
        assert_ne!(base, zero.digest());
    }
}
