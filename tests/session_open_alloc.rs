//! Allocation gate for opening a session.
//!
//! `Session::new` validates the architecture, resolves the cost model and
//! opens an empty artifact cache; it must not build (and drop) a cache
//! simulator, whose set arrays run from 140 KB (Cortex-A15) to over
//! 4 MB (Zen 2). The gate counts the bytes the opening thread asks the
//! allocator for, which does not depend on the host's speed.
//!
//! This file is its own test binary with a single test, so the counting
//! global allocator sees no other test's allocations.

use palo::arch::{presets, Architecture};
use palo::core::{PipelineConfig, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most bytes one `Session::new` may request.
const LIMIT_BYTES: usize = 4 * 1024;

struct Counting;

thread_local! {
    /// Bytes requested on this thread while counting is on; `None` when off.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + bytes)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter only reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes requested by `f` on the calling thread.
fn bytes_allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    COUNTED.with(|c| c.set(Some(0)));
    let out = f();
    let bytes = COUNTED.with(|c| c.take()).unwrap_or(0);
    (bytes, out)
}

#[test]
fn opening_a_session_allocates_no_simulator_state() {
    let mut archs: Vec<Architecture> = presets::all();
    archs.extend(presets::zoo());
    archs.extend([
        presets::repro::intel_i7_6700(),
        presets::repro::intel_i7_5930k(),
        presets::repro::arm_cortex_a15(),
        presets::repro::amd_zen2(),
        presets::repro::arm_neoverse_n1(),
        presets::repro::intel_i7_6700_no_prefetch(),
    ]);
    for arch in &archs {
        let (bytes, opened) =
            bytes_allocated_by(|| Session::new(arch, PipelineConfig::default()));
        if let Err(e) = opened {
            panic!("{}: {e}", arch.name);
        }
        assert!(
            bytes < LIMIT_BYTES,
            "Session::new on {} allocated {bytes} B (limit {LIMIT_BYTES} B)",
            arch.name
        );
    }
}
