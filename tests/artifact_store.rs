//! Integration tests for the tiered persistent artifact store
//! (DESIGN.md §15), centered on its two contracts:
//!
//! * **bit-identity** — a decision replayed from the memory tier, from
//!   the disk tier (including a fresh "process" on a warm directory), or
//!   recomputed cold is bit-identical, under every eviction policy and
//!   any capacity; the store changes *what is cached*, never *what is
//!   decided*;
//! * **corruption safety** — truncated files, garbage bytes, wrong
//!   format versions and racing same-key writers can only ever produce a
//!   cache miss plus a recorded [`CacheStats`] anomaly — never an error
//!   and never a wrong decision.

use palo::arch::presets;
use palo::codec::frame;
use palo::core::store::{ArtifactStore, DiskStore};
use palo::core::{CacheConfig, PipelineConfig, PolicyKind, Session};
use palo::ir::{DType, Digest, LoopNest, NestBuilder};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn matmul(n: usize) -> LoopNest {
    let mut b = NestBuilder::new("matmul", DType::F32);
    let i = b.var("i", n);
    let j = b.var("j", n);
    let k = b.var("k", n);
    let a = b.array("A", &[n, n]);
    let bm = b.array("B", &[n, n]);
    let c = b.array("C", &[n, n]);
    b.accumulate(c, &[i, j], b.load(a, &[i, k]) * b.load(bm, &[k, j]));
    b.build().expect("valid nest")
}

fn transpose(n: usize) -> LoopNest {
    let mut b = NestBuilder::new("tp", DType::F64);
    let i = b.var("i", n);
    let j = b.var("j", n);
    let src = b.array("S", &[n, n]);
    let dst = b.array("D", &[n, n]);
    let ld = b.load(src, &[j, i]);
    b.store(dst, &[i, j], ld);
    b.build().expect("valid nest")
}

fn workload() -> Vec<LoopNest> {
    vec![matmul(16), transpose(24), matmul(24), transpose(16)]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("palo-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The run's observable outcome, down to the float bits.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunBits {
    rung: String,
    schedule: String,
    decision: Option<String>,
    predicted_cost_bits: Option<u64>,
    estimate_ms_bits: Option<u64>,
}

fn run_bits(session: &Session, nest: &LoopNest) -> RunBits {
    let out = session.run(nest).expect("the pipeline must never fail on these nests");
    RunBits {
        rung: out.report.rung.to_string(),
        schedule: out.schedule.to_string(),
        decision: out.decision.as_ref().map(|d| format!("{d:?}")),
        predicted_cost_bits: out.decision.as_ref().map(|d| d.predicted_cost.to_bits()),
        estimate_ms_bits: out.report.estimate.as_ref().map(|e| e.ms.to_bits()),
    }
}

fn run_all(session: &Session) -> Vec<RunBits> {
    workload().iter().map(|nest| run_bits(session, nest)).collect()
}

fn session_with(cache: CacheConfig) -> Session {
    let config = PipelineConfig { cache, ..PipelineConfig::default() };
    Session::new(&presets::intel_i7_6700(), config).expect("session must open")
}

/// Every artifact file under a cache directory.
fn art_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|shard| std::fs::read_dir(shard.path()).ok())
        .flat_map(|entries| entries.flatten())
        .map(|f| f.path())
        .filter(|p| p.extension().is_some_and(|e| e == "art"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_backend_and_policy_replays_the_cold_decision_bit_identically() {
    // The reference: a cold, memory-only session.
    let reference = run_all(&session_with(CacheConfig::default()));

    // Bounded memory tiers at a capacity tight enough to force
    // evictions, one session per eviction policy.
    for policy in PolicyKind::ALL {
        let config =
            CacheConfig { policy, capacity_entries: Some(2), ..CacheConfig::default() };
        let session = session_with(config);
        // Two sweeps: the second replays what survived eviction and
        // recomputes what did not — the answers must not move.
        assert_eq!(run_all(&session), reference, "{policy} first sweep diverged");
        assert_eq!(run_all(&session), reference, "{policy} warm sweep diverged");
        assert!(
            session.cache_stats().mem.evictions > 0,
            "capacity 2 must actually evict under {policy}"
        );
    }

    // A byte-bounded tier (evicts by size, not count).
    let by_bytes = CacheConfig { capacity_bytes: Some(2048), ..CacheConfig::default() };
    assert_eq!(run_all(&session_with(by_bytes)), reference, "byte-capped tier diverged");

    // The persistent store: a cold session writes through to disk, a
    // fresh session on the same directory replays from it.
    let root = tmp_dir("bit-identity");
    let persistent = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };
    assert_eq!(run_all(&session_with(persistent.clone())), reference, "disk cold diverged");

    let warm = session_with(persistent);
    assert_eq!(run_all(&warm), reference, "fresh session on a warm dir diverged");
    let s = warm.cache_stats();
    assert!(s.disk.hits > 0, "the warm session must actually read from disk: {s:?}");
    assert_eq!(s.anomalies, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_warm_directory_serves_a_fresh_session_with_a_high_hit_rate() {
    let root = tmp_dir("hit-rate");
    let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };

    let cold = session_with(config.clone());
    let cold_bits = run_all(&cold);
    drop(cold);

    let warm = session_with(config);
    let warm_bits = run_all(&warm);
    assert_eq!(cold_bits, warm_bits);
    let s = warm.cache_stats();
    assert_eq!(s.misses, 0, "a fully warm directory must not miss: {s:?}");
    assert!(s.hit_rate() >= 0.9, "hit rate {:.2} below the 90% floor", s.hit_rate());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_disk_entries_heal_as_anomalies_and_never_change_decisions() {
    let root = tmp_dir("corruption");
    let config = CacheConfig { dir: Some(root.clone()), ..CacheConfig::default() };

    let cold = session_with(config.clone());
    let reference = run_all(&cold);
    drop(cold);

    // Vandalize every cached artifact, cycling through the three
    // corruption shapes the store must survive: truncation, garbage
    // bytes, and a wrong format version.
    let files = art_files(&root);
    assert!(!files.is_empty(), "the cold session must have persisted artifacts");
    for (i, path) in files.iter().enumerate() {
        let bytes = std::fs::read(path).expect("artifact must be readable");
        match i % 3 {
            0 => std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate"),
            1 => std::fs::write(path, b"not a frame at all").expect("garbage"),
            _ => {
                let mut b = bytes;
                b[8] ^= 0x5a; // first byte of the format-version word
                std::fs::write(path, &b).expect("version flip");
            }
        }
    }

    // A fresh session on the vandalized directory: every lookup heals
    // (miss + anomaly + recompute), no error surfaces, and the decisions
    // are the cold run's, bit for bit.
    let healed = session_with(config.clone());
    assert_eq!(run_all(&healed), reference, "corruption must cost recomputes, not answers");
    let s = healed.cache_stats();
    assert!(s.anomalies > 0, "healing must be recorded: {s:?}");
    drop(healed);

    // The store healed itself: the re-written artifacts serve a third
    // session clean.
    let clean = session_with(config);
    assert_eq!(run_all(&clean), reference);
    assert_eq!(clean.cache_stats().anomalies, 0, "healed entries must be valid again");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_same_key_writers_are_miss_or_hit_never_an_error() {
    let root = tmp_dir("races");
    let key = palo::core::Fingerprint(Digest(0xfeed_beef_cafe));
    let payload: Vec<u8> = (0..=255u8).collect();
    let bytes: Arc<[u8]> = frame::encode_frame("race", 1, &payload).into();

    // Many stores on one directory (stand-ins for separate processes),
    // many threads per store, all hammering one content-addressed key.
    let stores: Vec<Arc<DiskStore>> =
        (0..4).map(|_| Arc::new(DiskStore::open(&root).expect("open must succeed"))).collect();
    let mut handles = Vec::new();
    for store in &stores {
        for _ in 0..4 {
            let store = Arc::clone(store);
            let bytes = Arc::clone(&bytes);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    store.put(key, bytes.clone());
                    if let Some(got) = store.get(key) {
                        // Anything served must be the one true encoding.
                        let f = frame::decode_frame(&got)
                            .expect("a served entry is always a complete frame");
                        assert_eq!(f.pass, "race");
                        assert_eq!(f.payload.len(), 256);
                    }
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("no writer or reader may panic");
    }

    // The dust settled: the entry is present, valid, and no writer
    // tripped the corruption detector.
    let survivor = DiskStore::open(&root).expect("open must succeed");
    let got = survivor.get(key).expect("the key must have landed");
    assert_eq!(frame::decode_frame(&got).expect("valid").payload, &payload[..]);
    for store in &stores {
        assert_eq!(store.anomalies(), 0, "racing identical writers is not corruption");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_unwritable_cache_directory_is_a_session_error_not_a_panic() {
    let file = std::env::temp_dir().join(format!("palo-store-it-file-{}", std::process::id()));
    std::fs::write(&file, b"occupied").expect("marker file");
    let config = PipelineConfig {
        cache: CacheConfig { dir: Some(file.join("sub")), ..CacheConfig::default() },
        ..PipelineConfig::default()
    };
    let err = match Session::new(&presets::intel_i7_6700(), config) {
        Ok(_) => panic!("an unopenable store must refuse the session"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("artifact store"), "the error must name the store: {err}");
    let _ = std::fs::remove_file(&file);
}
