//! Trace-driven multi-level cache simulator with hardware prefetchers.
//!
//! This crate is the hardware substitute of the reproduction: the paper
//! measures wall-clock time on Intel and ARM machines whose *hardware
//! prefetching units* interact with the loop transformations under study.
//! Here those machines are replaced by a deterministic simulator:
//!
//! * set-associative, write-back, (configurable) write-allocate caches
//!   with true-LRU replacement, built directly from
//!   [`palo_arch::CacheLevel`] descriptions;
//! * a **per-level prefetcher zoo**, one closed set of units chosen by
//!   each level's [`palo_arch::PrefetcherConfig`]: an L1 next-line
//!   streamer (the paper's "fetch the next cache line after every
//!   reference"), an adjacent-pair (buddy-line) unit, and a
//!   constant-stride stream-table family with a prefetch degree
//!   (`L2pref`), a maximum run-ahead distance (`L2maxpref`, 20 lines on
//!   Intel), a confidence threshold, and an optional unit-stride-only
//!   (stream) restriction;
//! * **non-temporal stores** that bypass allocation entirely and cost one
//!   bandwidth-side line transfer (write-combining).
//!
//! The simulator is line-granular: callers feed it demand accesses via
//! [`Hierarchy::access`], the batched [`Hierarchy::access_range`] or the
//! run-compressed [`Hierarchy::access_run`], and read per-level
//! [`LevelStats`] plus a latency-weighted cycle estimate back out. Every
//! line is simulated; a run is one event for many lines, with
//! statistics bit-identical to feeding those lines one at a time.
//!
//! # Examples
//!
//! ```
//! use palo_arch::presets;
//! use palo_cachesim::{AccessKind, Hierarchy};
//!
//! let arch = presets::intel_i7_6700();
//! let mut h = Hierarchy::from_architecture(&arch);
//! // Stream 1 MiB: the next-line prefetcher hides most line misses.
//! for addr in (0..1 << 20).step_by(4) {
//!     h.access(addr, AccessKind::Load);
//! }
//! let l1 = &h.stats().levels[0];
//! assert!(l1.prefetch_hits > 5_000);
//! ```

mod cache;
mod codec;
mod error;
mod hierarchy;
mod prefetch;
mod sink;
mod stats;
mod strategy;

pub use cache::{Cache, Eviction};
pub use error::SimConfigError;
pub use hierarchy::{AccessKind, AccessRun, Hierarchy, ReplayStats, ServedBy};
pub use sink::{CountingSink, LineSink};
pub use stats::{HierarchyStats, LevelStats};
