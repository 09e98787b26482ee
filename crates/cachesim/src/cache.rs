//! A single set-associative cache with true-LRU replacement.
//!
//! Storage is flat: two parallel arrays (`addrs`, `meta`) of
//! `sets * ways` slots. `meta` packs a monotonically increasing
//! recency stamp with the dirty/prefetched flags
//! (`stamp << 2 | dirty << 1 | prefetched`); a slot is empty iff its
//! meta word is zero (stamps start at 1). Because stamps are unique and
//! strictly increasing, comparing meta words compares recency, so the
//! LRU victim of a set is simply the occupied slot with the smallest
//! meta — and an empty slot (meta 0) always wins, which is exactly the
//! "insert while not full" rule. This layout keeps a set's ways in one
//! cache-line-friendly span and replaces the old remove+push Vec
//! shuffle with a single word write per access.

/// Result of inserting a line: what fell out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// No line was displaced.
    None,
    /// A clean line was displaced.
    Clean(u64),
    /// A dirty line was displaced and must be written back.
    Dirty(u64),
}

const DIRTY: u64 = 0b10;
const PREFETCHED: u64 = 0b01;
const FLAG_BITS: u64 = 0b11;

/// One level of cache, indexed by line address.
///
/// Addresses are *line numbers* (byte address divided by the line size);
/// the hierarchy performs the shift once so all levels share it.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line address per slot; meaningless where `meta` is zero.
    addrs: Vec<u64>,
    /// `stamp << 2 | dirty << 1 | prefetched`; zero = empty slot.
    meta: Vec<u64>,
    nsets: usize,
    ways: usize,
    stamp: u64,
    /// `nsets - 1` when the set count is a power of two, else `u64::MAX`
    /// (the replay hot loop indexes sets on every access, so the modulo
    /// is strength-reduced to a mask wherever the geometry allows).
    set_mask: u64,
    /// `floor(2^64 / nsets) + 1` — Lemire's direct-remainder magic for
    /// non-power-of-two set counts (e.g. the 5930k's 12288-set L3).
    set_magic: u64,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether the hit line had been brought in by a prefetch and this is
    /// its first demand use.
    pub first_prefetch_use: bool,
}

/// Outcome of a fused lookup-or-victim pass (see
/// [`Cache::access_with_victim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessOutcome {
    /// The line was present; recency/dirtiness updated as in
    /// [`Cache::access`].
    Hit {
        /// First demand use of a prefetched line.
        first_prefetch_use: bool,
    },
    /// The line was absent; `victim` is the slot an insertion of this
    /// line would take (the LRU of its set), valid until the next
    /// operation on this cache.
    Miss {
        /// Flat slot index of the set's LRU entry.
        victim: u32,
    },
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be nonzero");
        Cache {
            addrs: vec![0; sets * ways],
            meta: vec![0; sets * ways],
            nsets: sets,
            ways,
            stamp: 0,
            set_mask: if sets.is_power_of_two() { sets as u64 - 1 } else { u64::MAX },
            // ceil(2^64 / sets); wraps to 0 for sets == 1, where the
            // power-of-two mask path is taken instead.
            set_magic: (u64::MAX / sets as u64).wrapping_add(1),
        }
    }

    /// `line % nsets` without a hardware division: a mask for
    /// power-of-two set counts, Lemire's direct remainder (exact for
    /// operands below 2^32) otherwise, falling back to `%` only for
    /// line addresses at or above 2^32.
    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else if line < 1 << 32 {
            let frac = self.set_magic.wrapping_mul(line);
            ((u128::from(frac) * self.nsets as u128) >> 64) as usize
        } else {
            (line % self.nsets as u64) as usize
        }
    }

    #[inline]
    fn set_base(&self, line: u64) -> usize {
        self.set_index(line) * self.ways
    }

    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    #[inline]
    fn find(&self, base: usize, line: u64) -> Option<usize> {
        let metas = &self.meta[base..base + self.ways];
        let addrs = &self.addrs[base..base + self.ways];
        metas.iter().zip(addrs).position(|(&m, &a)| m != 0 && a == line).map(|i| base + i)
    }

    /// Demand access to `line`. On a hit the line becomes most-recent and
    /// (for writes) dirty. Returns the lookup outcome; on a miss the
    /// caller is responsible for filling via [`Cache::fill`].
    pub fn access(&mut self, line: u64, write: bool) -> Lookup {
        let base = self.set_base(line);
        if let Some(i) = self.find(base, line) {
            let first_prefetch_use = self.meta[i] & PREFETCHED != 0;
            let dirty = (self.meta[i] & DIRTY) | if write { DIRTY } else { 0 };
            self.meta[i] = (self.next_stamp() << 2) | dirty;
            Lookup { hit: true, first_prefetch_use }
        } else {
            Lookup { hit: false, first_prefetch_use: false }
        }
    }

    /// Whether `line` is present, without touching LRU state.
    pub fn probe(&self, line: u64) -> bool {
        self.find(self.set_base(line), line).is_some()
    }

    /// [`Cache::access`] fused with victim preselection: one pass over
    /// the set serves both the lookup and, on a miss, the LRU victim
    /// scan that a subsequent fill would repeat. The returned victim
    /// slot stays valid as long as no other operation touches this
    /// cache; pair with [`Cache::insert_at`].
    pub(crate) fn access_with_victim(&mut self, line: u64, write: bool) -> AccessOutcome {
        let base = self.set_base(line);
        let metas = &self.meta[base..base + self.ways];
        let addrs = &self.addrs[base..base + self.ways];
        // One bounds-check-free pass: stop at the hit way, tracking the
        // first-minimum meta (empty slots are 0, older stamps are
        // smaller) over the prefix as the prospective victim. On a miss
        // the prefix is the whole set, matching the scan a fill would do.
        let mut victim = 0usize;
        let mut vmeta = u64::MAX;
        let mut hit = usize::MAX;
        for (i, (&m, &a)) in metas.iter().zip(addrs).enumerate() {
            if m != 0 && a == line {
                hit = i;
                break;
            }
            if m < vmeta {
                vmeta = m;
                victim = i;
            }
        }
        if hit != usize::MAX {
            let m = self.meta[base + hit];
            let first_prefetch_use = m & PREFETCHED != 0;
            let dirty = (m & DIRTY) | if write { DIRTY } else { 0 };
            self.meta[base + hit] = (self.next_stamp() << 2) | dirty;
            return AccessOutcome::Hit { first_prefetch_use };
        }
        AccessOutcome::Miss { victim: (base + victim) as u32 }
    }

    /// Inserts `line` into `slot` (a victim returned by
    /// [`Cache::access_with_victim`] with no intervening operation on
    /// this cache), evicting the slot's current occupant. Identical to
    /// the insertion tail of [`Cache::fill`] for an absent line.
    pub(crate) fn insert_at(
        &mut self,
        slot: u32,
        line: u64,
        dirty: bool,
        prefetched: bool,
    ) -> Eviction {
        let slot = slot as usize;
        let m = self.meta[slot];
        let evicted = if m == 0 {
            Eviction::None
        } else if m & DIRTY != 0 {
            Eviction::Dirty(self.addrs[slot])
        } else {
            Eviction::Clean(self.addrs[slot])
        };
        let flags = if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED } else { 0 };
        self.addrs[slot] = line;
        self.meta[slot] = (self.next_stamp() << 2) | flags;
        evicted
    }

    /// Inserts `line` as most-recently-used, evicting the LRU line of its
    /// set when full. `prefetched` marks prefetch fills; `dirty` marks
    /// store-allocated or written-back lines.
    pub fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> Eviction {
        let base = self.set_base(line);
        if let Some(i) = self.find(base, line) {
            // Refill of a present line (e.g. writeback into a lower level):
            // merge dirtiness, refresh recency, keep the prefetched flag.
            let flags = (self.meta[i] & FLAG_BITS) | if dirty { DIRTY } else { 0 };
            self.meta[i] = (self.next_stamp() << 2) | flags;
            return Eviction::None;
        }
        self.insert(base, line, dirty, prefetched)
    }

    /// [`Cache::fill`] for a line the caller has just proven absent (a
    /// missed lookup or failed probe with no intervening operation on
    /// this cache): skips the presence re-scan and goes straight to
    /// victim selection.
    pub fn fill_absent(&mut self, line: u64, dirty: bool, prefetched: bool) -> Eviction {
        let base = self.set_base(line);
        debug_assert!(self.find(base, line).is_none(), "fill_absent on a resident line");
        self.insert(base, line, dirty, prefetched)
    }

    fn insert(&mut self, base: usize, line: u64, dirty: bool, prefetched: bool) -> Eviction {
        // Victim = smallest meta in the set: an empty slot (meta 0) if any,
        // else the occupied slot with the oldest stamp.
        let metas = &self.meta[base..base + self.ways];
        let mut victim = base;
        let mut vmeta = u64::MAX;
        for (i, &m) in metas.iter().enumerate() {
            if m < vmeta {
                vmeta = m;
                victim = base + i;
            }
        }
        let evicted = if self.meta[victim] == 0 {
            Eviction::None
        } else if self.meta[victim] & DIRTY != 0 {
            Eviction::Dirty(self.addrs[victim])
        } else {
            Eviction::Clean(self.addrs[victim])
        };
        let flags = if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED } else { 0 };
        self.addrs[victim] = line;
        self.meta[victim] = (self.next_stamp() << 2) | flags;
        evicted
    }

    /// Marks a present line dirty (writeback absorption) without changing
    /// recency. Returns whether the line was present.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let base = self.set_base(line);
        if let Some(i) = self.find(base, line) {
            self.meta[i] |= DIRTY;
            true
        } else {
            false
        }
    }

    /// Fused form of [`Cache::mark_dirty`] for the writeback cascade:
    /// marks a present line dirty in place (returning `None`), or returns
    /// the LRU victim slot of the line's set so the caller can insert via
    /// [`Cache::insert_at`] without re-scanning the set.
    pub(crate) fn mark_dirty_with_victim(&mut self, line: u64) -> Option<u32> {
        let base = self.set_base(line);
        let metas = &self.meta[base..base + self.ways];
        let addrs = &self.addrs[base..base + self.ways];
        let mut victim = 0usize;
        let mut vmeta = u64::MAX;
        let mut hit = usize::MAX;
        for (i, (&m, &a)) in metas.iter().zip(addrs).enumerate() {
            if m != 0 && a == line {
                hit = i;
                break;
            }
            if m < vmeta {
                vmeta = m;
                victim = i;
            }
        }
        if hit != usize::MAX {
            self.meta[base + hit] |= DIRTY;
            return None;
        }
        Some((base + victim) as u32)
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m != 0).count()
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.nsets * self.ways
    }

    /// Drops every resident line.
    pub fn clear(&mut self) {
        self.meta.fill(0);
        self.stamp = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(4, 2);
        assert!(!c.access(10, false).hit);
        c.fill(10, false, false);
        assert!(c.access(10, false).hit);
        assert!(c.probe(10));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(1, 2);
        c.fill(0, false, false);
        c.fill(1, false, false);
        // touch 0 so 1 becomes LRU
        assert!(c.access(0, false).hit);
        let ev = c.fill(2, false, false);
        assert_eq!(ev, Eviction::Clean(1));
        assert!(c.probe(0));
        assert!(!c.probe(1));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = Cache::new(1, 1);
        c.fill(0, true, false);
        assert_eq!(c.fill(1, false, false), Eviction::Dirty(0));
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = Cache::new(1, 1);
        c.fill(0, false, false);
        c.access(0, true);
        assert_eq!(c.fill(1, false, false), Eviction::Dirty(0));
    }

    #[test]
    fn prefetched_flag_cleared_on_first_use() {
        let mut c = Cache::new(1, 2);
        c.fill(7, false, true);
        let l = c.access(7, false);
        assert!(l.hit && l.first_prefetch_use);
        let l = c.access(7, false);
        assert!(l.hit && !l.first_prefetch_use);
    }

    #[test]
    fn refill_merges_dirty_without_duplicating() {
        let mut c = Cache::new(1, 2);
        c.fill(3, false, false);
        assert_eq!(c.fill(3, true, false), Eviction::None);
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.fill(4, false, false), Eviction::None);
        assert_eq!(c.fill(5, false, false), Eviction::Dirty(3));
    }

    #[test]
    fn mark_dirty_only_if_present() {
        let mut c = Cache::new(2, 1);
        c.fill(0, false, false);
        assert!(c.mark_dirty(0));
        assert!(!c.mark_dirty(1));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = Cache::new(2, 1);
        c.fill(0, false, false); // set 0
        c.fill(1, false, false); // set 1
        assert!(c.probe(0));
        assert!(c.probe(1));
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut c = Cache::new(2, 2);
        c.fill(0, false, false);
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_geometry_panics() {
        let _ = Cache::new(0, 1);
    }

    #[test]
    fn mark_dirty_does_not_refresh_recency() {
        let mut c = Cache::new(1, 2);
        c.fill(0, false, false);
        c.fill(1, false, false);
        c.mark_dirty(0); // 0 stays LRU
        assert_eq!(c.fill(2, false, false), Eviction::Dirty(0));
    }

    #[test]
    fn set_index_matches_modulo_for_all_geometries() {
        for sets in [1usize, 3, 5, 48, 64, 4096, 12288, 20480] {
            let c = Cache::new(sets, 1);
            let d = sets as u64;
            let mut lines: Vec<u64> = vec![
                0,
                1,
                d - 1,
                d,
                d + 1,
                (1 << 32) - 1,
                1 << 32,
                (1 << 32) + 1,
                u64::MAX - 1,
                u64::MAX,
            ];
            // Pseudo-random probes across the Lemire (< 2^32) range and
            // boundary-adjacent multiples of the divisor.
            for k in 1..4096u64 {
                let r = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                lines.push(r >> 32);
                lines.push((r % (1 << 32) / d) * d + k % 3);
            }
            for line in lines {
                assert_eq!(c.set_index(line), (line % d) as usize, "sets={sets} line={line}");
            }
        }
    }

    #[test]
    fn fill_absent_matches_fill_for_missing_lines() {
        let mut a = Cache::new(4, 2);
        let mut b = Cache::new(4, 2);
        for line in [0u64, 4, 8, 1, 5, 9, 2] {
            assert_eq!(
                a.fill(line, line % 2 == 0, line % 3 == 0),
                b.fill_absent(line, line % 2 == 0, line % 3 == 0)
            );
        }
        for line in 0..12u64 {
            assert_eq!(a.probe(line), b.probe(line), "line {line}");
        }
    }
}
