//! The closed set of prefetch units a cache level can carry.
//!
//! [`Hierarchy`](crate::Hierarchy) holds one [`PrefetchUnit`] per cache
//! level and drives every unit through the same two contracts
//! (DESIGN.md §16):
//!
//! 1. **Observe** — on each demand L1 miss, every unit sees the missed
//!    line via [`PrefetchUnit::observe_into`] and appends the lines it
//!    wants fetched. The hierarchy routes level-0 emissions into L1 and
//!    level-`k` emissions into levels `k..` bottom-up, through the shared
//!    accuracy throttle. Only a [`PrefetchUnit::Table`] ever reports a
//!    stream index, so only a table can take the run engine's
//!    steady-state stream lock (the O(1) feeds of [`StridePrefetcher`]).
//! 2. **Translation** — the cycle skipper extrapolates a verified
//!    steady-state iteration only if every unit's state matches its
//!    snapshot (a clone of the units) under a `t`-line translation
//!    ([`PrefetchUnit::matches_translated`]), and then fast-forwards
//!    with [`PrefetchUnit::translate`].

use crate::prefetch::StridePrefetcher;
use palo_arch::PrefetcherConfig;

/// One hardware prefetching unit attached to a cache level.
#[derive(Debug, Clone)]
pub(crate) enum PrefetchUnit {
    /// Never prefetches. Its state is empty, so cycle matching always
    /// succeeds.
    Inert,
    /// The L1 next-line (DCU) streamer: on an ascending sequential miss
    /// to line `l`, fetch `l + 1`. "Sequential" means `l` extends (or
    /// repeats) the previously missed line `last_miss` (`u64::MAX` until
    /// the first miss) — arbitrary misses do not trigger it.
    NextLine { last_miss: u64 },
    /// Adjacent-pair (buddy-line) unit: on every observed miss to line
    /// `l`, fetch the other half of the aligned two-line sector (`l ^ 1`).
    AdjacentPair,
    /// A constant-stride stream table (stride, confident-stride and
    /// stream strategies).
    Table(StridePrefetcher),
}

impl PrefetchUnit {
    /// Builds the simulator unit for `cfg` at cache level `level` (0 = L1).
    ///
    /// The legacy variants keep the seed's exact placement semantics so
    /// golden statistics stay byte-identical: at L1 only `NextLine` is
    /// active (the paper's simulator has no L1 stride table, so `Stride`
    /// at L1 stays inert), while at L2+ `NextLine` degrades to a
    /// degree-1, distance-1 stride table and `Stride` maps directly. The
    /// zoo variants are live at any level.
    pub(crate) fn new(level: usize, cfg: &PrefetcherConfig) -> Self {
        match (level, cfg) {
            (_, PrefetcherConfig::None) | (0, PrefetcherConfig::Stride { .. }) => Self::Inert,
            (0, PrefetcherConfig::NextLine) => Self::NextLine { last_miss: u64::MAX },
            (_, PrefetcherConfig::NextLine) => Self::Table(StridePrefetcher::new(1, 1)),
            (_, PrefetcherConfig::Stride { degree, max_distance }) => {
                Self::Table(StridePrefetcher::new(*degree, *max_distance))
            }
            (_, PrefetcherConfig::AdjacentPair) => Self::AdjacentPair,
            (_, PrefetcherConfig::ConfidentStride { degree, max_distance, min_confidence }) => {
                Self::Table(StridePrefetcher::with_confidence(
                    *degree,
                    *max_distance,
                    *min_confidence,
                ))
            }
            (_, PrefetcherConfig::Stream { degree, max_distance, confirm }) => {
                Self::Table(StridePrefetcher::stream(*degree, *max_distance, *confirm))
            }
        }
    }

    /// Observes a demand miss to `line`, appends the lines to prefetch,
    /// and returns the index of the table stream the access extended
    /// (`None` for table-free units, a new allocation, or a disabled
    /// table).
    pub(crate) fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) -> Option<usize> {
        match self {
            Self::Inert => None,
            Self::NextLine { last_miss } => {
                let sequential = line == last_miss.wrapping_add(1) || line == *last_miss;
                *last_miss = line;
                if sequential {
                    out.push(line + 1);
                }
                None
            }
            Self::AdjacentPair => {
                out.push(line ^ 1);
                None
            }
            Self::Table(p) => p.observe_into(line, out),
        }
    }

    /// Drops all learned state (stream tables, last-line trackers).
    pub(crate) fn reset(&mut self) {
        match self {
            Self::Inert | Self::AdjacentPair => {}
            Self::NextLine { last_miss } => *last_miss = u64::MAX,
            Self::Table(p) => p.reset(),
        }
    }

    /// Streams allocated since construction/reset. The cycle skipper
    /// rejects candidate cycles that allocated; table-free units report 0.
    pub(crate) fn creations(&self) -> u64 {
        match self {
            Self::Table(p) => p.creations(),
            _ => 0,
        }
    }

    /// Whether this unit's state equals `snap` (a clone taken earlier)
    /// translated by `t` line addresses.
    pub(crate) fn matches_translated(&self, snap: &PrefetchUnit, t: i64) -> bool {
        match (self, snap) {
            (Self::Inert, Self::Inert) => true,
            (Self::NextLine { last_miss }, Self::NextLine { last_miss: last }) => {
                // The "no miss yet" sentinel does not translate.
                let want =
                    if *last == u64::MAX { u64::MAX } else { last.wrapping_add_signed(t) };
                *last_miss == want
            }
            // Stateless, but the buddy map `l ^ 1` only commutes with
            // translation by *even* t: for odd t the sector parity flips
            // and extrapolated fills would diverge from real replay.
            (Self::AdjacentPair, Self::AdjacentPair) => t % 2 == 0,
            (Self::Table(p), Self::Table(s)) => p.matches_translated(s, t),
            _ => false,
        }
    }

    /// Translates the unit's state by `shift` line addresses (the cycle
    /// skipper's fast-forward; paired with a prior
    /// [`PrefetchUnit::matches_translated`] success).
    pub(crate) fn translate(&mut self, shift: i64) {
        match self {
            Self::Inert | Self::AdjacentPair => {}
            Self::NextLine { last_miss } => {
                if *last_miss != u64::MAX {
                    *last_miss = last_miss.wrapping_add_signed(shift);
                }
            }
            Self::Table(p) => p.translate(shift),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn next_line() -> PrefetchUnit {
        PrefetchUnit::new(0, &PrefetcherConfig::NextLine)
    }

    #[test]
    fn next_line_triggers_only_on_sequential_misses() {
        let mut p = next_line();
        let mut out = Vec::new();
        p.observe_into(100, &mut out);
        assert!(out.is_empty(), "first miss is not sequential");
        p.observe_into(101, &mut out);
        assert_eq!(out, vec![102]);
        out.clear();
        p.observe_into(500, &mut out);
        assert!(out.is_empty(), "a jump is not sequential");
        p.observe_into(500, &mut out);
        assert_eq!(out, vec![501], "a repeat counts as sequential");
    }

    #[test]
    fn next_line_snapshot_translates() {
        let mut p = next_line();
        let fresh = p.clone();
        assert!(p.matches_translated(&fresh, 7), "MAX sentinel matches any t");
        let mut out = Vec::new();
        p.observe_into(100, &mut out);
        let snap = p.clone();
        p.observe_into(110, &mut out);
        assert!(p.matches_translated(&snap, 10));
        assert!(!p.matches_translated(&snap, 9));
        p.translate(-10);
        assert!(p.matches_translated(&snap, 0));
    }

    #[test]
    fn adjacent_pair_fetches_buddy() {
        let mut p = PrefetchUnit::AdjacentPair;
        let mut out = Vec::new();
        p.observe_into(100, &mut out);
        p.observe_into(101, &mut out);
        assert_eq!(out, vec![101, 100]);
        let snap = p.clone();
        assert!(p.matches_translated(&snap, 2));
        assert!(!p.matches_translated(&snap, 3), "odd translation flips parity");
    }

    #[test]
    fn inert_unit_does_nothing_and_always_matches() {
        let mut p = PrefetchUnit::Inert;
        let mut out = Vec::new();
        assert_eq!(p.observe_into(42, &mut out), None);
        assert!(out.is_empty());
        let snap = p.clone();
        assert!(p.matches_translated(&snap, 12345));
    }

    #[test]
    fn constructor_keeps_legacy_placement() {
        // L1 Stride is inert (the seed had no L1 stride table)...
        let cfg = PrefetcherConfig::Stride { degree: 2, max_distance: 20 };
        assert!(matches!(PrefetchUnit::new(0, &cfg), PrefetchUnit::Inert));
        // ...while the same config at L2 is a live stride table.
        assert!(matches!(PrefetchUnit::new(1, &cfg), PrefetchUnit::Table(_)));
        assert!(matches!(PrefetchUnit::new(1, &PrefetcherConfig::None), PrefetchUnit::Inert));
        assert!(matches!(next_line(), PrefetchUnit::NextLine { .. }));
        // L2+ NextLine is a degree-1, distance-1 stride table.
        let PrefetchUnit::Table(mut t) = PrefetchUnit::new(1, &PrefetcherConfig::NextLine)
        else {
            panic!("L2 next-line must be a stride table");
        };
        t.observe(0);
        t.observe(1);
        assert_eq!(t.observe(2), vec![3]);
        assert_eq!(t.observe(3), vec![4]);
    }
}
