//! Resident-memory gate for the artifact store.
//!
//! A memory tier holds each cached artifact once, as its framed
//! encoding. So a session that has run the 14-nest suite may keep only
//! the frames its memory tier holds plus a small fixed overhead per
//! resident entry (its map slot, the `Arc` header, eviction-policy
//! bookkeeping) — not a decoded copy of every artifact beside its frame.
//! The gate counts net live heap bytes, which do not depend on the
//! host's speed.
//!
//! This file is its own test binary with a single test, so the counting
//! global allocator sees no other test's allocations.

use palo::arch::{presets, Architecture};
use palo::core::store::{CacheConfig, PolicyKind};
use palo::core::{CacheStats, PipelineConfig, Session};
use palo::ir::LoopNest;
use palo::suite::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap a session may keep per resident artifact beyond its frame: a
/// map slot and the `Arc` header (about 66 B today).
const PER_ENTRY_BYTES: usize = 128;

/// The same for a bounded tier, whose eviction policy keeps its own key
/// index and recency order, and whose hash tables may double under
/// eviction churn depending on the hash seed (176–219 B today).
const BOUNDED_PER_ENTRY_BYTES: usize = 256;

/// Byte capacity of the bounded memory tier.
const CAPACITY_BYTES: u64 = 8192;

/// Net live heap bytes of the whole process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter only reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs every nest analytic-only on a fresh session over `cache`, drops
/// the outcomes, and returns the heap the session still holds with its
/// cache counters and resident entry count.
fn retained_by(
    arch: &Architecture,
    cache: CacheConfig,
    nests: &[LoopNest],
) -> (usize, CacheStats, usize) {
    let mut config = PipelineConfig { simulate: false, cache, ..PipelineConfig::default() };
    config.optimizer.search.threads = Some(1);
    let before = LIVE.load(Ordering::Relaxed);
    let session = Session::new(arch, config).expect("the 6700 preset opens");
    for nest in nests {
        session.run(nest).expect("every suite nest optimizes");
    }
    let retained = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    (retained, session.cache_stats(), session.cached_artifacts())
}

#[test]
fn a_session_keeps_one_frame_per_cached_artifact() {
    let arch = presets::repro::intel_i7_6700();
    let nests: Vec<LoopNest> = Benchmark::all()
        .into_iter()
        .flat_map(|b| b.build_scaled().expect("scaled suite builds"))
        .collect();
    assert_eq!(nests.len(), 14);

    // A throwaway session fills the process-wide emulation memo, so the
    // sessions below are charged only for what they keep themselves.
    retained_by(&arch, CacheConfig::default(), &nests);

    // Unbounded: every artifact stays, once, as its frame.
    let (retained, stats, entries) = retained_by(&arch, CacheConfig::default(), &nests);
    assert!(entries > 0 && stats.mem.evictions == 0, "{stats:?}");
    let limit = stats.mem.bytes_written as usize + PER_ENTRY_BYTES * entries;
    assert!(
        retained <= limit,
        "unbounded tier: the session retains {retained} B for {entries} artifacts \
         framed in {} B (limit {limit} B)",
        stats.mem.bytes_written
    );

    // Bounded by bytes: the cap bounds what the tier really holds.
    let bounded = CacheConfig {
        policy: PolicyKind::Lru,
        capacity_bytes: Some(CAPACITY_BYTES),
        ..CacheConfig::default()
    };
    let (retained, stats, entries) = retained_by(&arch, bounded, &nests);
    assert!(stats.mem.evictions > 0, "the suite must overflow {CAPACITY_BYTES} B: {stats:?}");
    let limit = CAPACITY_BYTES as usize + BOUNDED_PER_ENTRY_BYTES * entries;
    assert!(
        retained <= limit,
        "{CAPACITY_BYTES} B tier: the session retains {retained} B for {entries} resident \
         artifacts (limit {limit} B)"
    );
}
