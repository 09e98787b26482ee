//! `serve-mix`: an open loop at one fixed offered rate into an
//! in-process `Server` on the `n1` preset.
//!
//! The request schedule — arrival times and `(kernel, size, lane,
//! fidelity)` keys — is a pure function of the seed. One generator
//! thread submits each request when it is due, and latency is timed from
//! the due time, so a stall that delays later submissions is charged to
//! them. The server has two workers and a memory tier too small for
//! every key's artifacts, so evictions and re-misses continue through
//! the run.
//!
//! Where the mix comes from (README.md has the full table): the hot set,
//! the interactive share (1/3) and the analytic share (1/7) are the
//! repository's own serving mix, from `bench_serve` and the chaos soak;
//! hot-set popularity is Zipf-like with the exponent web caches show; the
//! share of new keys is an assumption.

use crate::metrics::Rep;
use crate::span::Tracer;
use crate::stats::{nearest_rank, ratio};
use crate::suite;
use crate::{layers, Ctx, SplitMix};
use palo_arch::{presets, Architecture};
use palo_core::{search::parallel_map_in, CacheConfig, Priority, Session};
use palo_serve::{Fidelity, Request, Response, ServeConfig, ServeStats, Server, ShedPolicy};
use palo_suite::Benchmark;
use std::collections::{BTreeMap, HashSet};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second: about 70% of the rate the two
/// workers sustain on this mix on the reference host (see README.md).
pub const RATE_PER_S: f64 = 350.0;
/// The latency limit the SLO ratio is judged against.
pub const LIMIT_MS: f64 = 250.0;
/// Server workers.
pub const WORKERS: usize = 2;
/// Memory-tier capacity in artifacts: room for the hot set's artifacts,
/// far fewer than the keys a run requests, so new work keeps evicting.
pub const CAPACITY_ENTRIES: usize = 128;
/// Admission-queue bound: close to a second of arrivals, so a burst of
/// misses queues rather than being refused (a refusal is a failed
/// operation).
pub const QUEUE_CAPACITY: usize = 256;
/// The shedding ladder: yellow and red at 1/16 and 1/8 of the queue (16
/// and 32 queued requests). The server's default (1/2 and 0.85) sits so
/// close to the refusal point that a run reaching it risks refusals; at
/// these levels the ladder engages at the backlogs this mix reaches (up
/// to about a quarter of the queue).
pub const SHED: ShedPolicy = ShedPolicy { yellow: 0.0625, red: 0.125 };
/// Share of requests for keys the run has not requested before. An
/// assumption: there is no recorded `palo-serve` traffic to take it from.
pub const NEW_SHARE: f64 = 0.25;
/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);
/// Share of requests in the interactive lane, as in `bench_serve` and
/// the chaos soak.
const INTERACTIVE_SHARE: f64 = 1.0 / 3.0;
/// Share of requests that ask for analytic fidelity only, as in
/// `bench_serve` and the chaos soak.
const ANALYTIC_SHARE: f64 = 1.0 / 7.0;
/// Zipf exponent of hot-set popularity: web-proxy request streams fit
/// Zipf-like laws with exponents 0.64–0.83 (Breslau et al., "Web Caching
/// and Zipf-like Distributions", INFOCOM 1999).
const ZIPF_S: f64 = 0.8;

/// The hot set, most popular first: the key pool of `bench_serve` and
/// the chaos soak. `copy`, `mask` and `tp` at 48 and `3mm` at 12 are
/// under 4096 iterations, so the validate pass runs on them.
pub const HOT: [(&str, usize); 8] = [
    ("matmul", 16),
    ("matmul", 32),
    ("gemm", 16),
    ("trmm", 16),
    ("copy", 48),
    ("mask", 48),
    ("tp", 48),
    ("3mm", 12),
];

/// Sizes for new work, inclusive, per kernel: every size is a distinct
/// key, and cold work for each costs about 1–340 ms on the reference
/// host (convlayer and doitgen mostly in the optimize pass). The smallest
/// matmul-shaped sizes also run the validate pass.
const NEW: [(&str, usize, usize); 12] = [
    ("convlayer", 9, 22),
    ("doitgen", 9, 56),
    ("matmul", 9, 224),
    ("3mm", 9, 176),
    ("gemm", 9, 224),
    ("trmm", 9, 224),
    ("syrk", 9, 144),
    ("syr2k", 9, 96),
    ("tpm", 33, 384),
    ("tp", 33, 384),
    ("copy", 33, 384),
    ("mask", 33, 384),
];

/// `n1`: its adjacent-pair L1 unit fills on nearly every L1 miss.
pub fn arch() -> Architecture {
    presets::repro::arm_neoverse_n1()
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Offset of the due time from the start of the loop.
    pub due: Duration,
    /// Kernel name.
    pub kernel: &'static str,
    /// Problem size.
    pub size: usize,
    /// Lane.
    pub interactive: bool,
    /// Requested fidelity.
    pub analytic: bool,
}

impl Planned {
    /// The request key `(kernel, size, lane, fidelity)`.
    pub fn key(&self) -> (&'static str, usize, bool, bool) {
        (self.kernel, self.size, self.interactive, self.analytic)
    }

    fn request(&self, id: usize) -> Request {
        Request {
            id: format!("r{id}"),
            kernel: self.kernel.to_string(),
            size: Some(self.size),
            priority: if self.interactive { Priority::Interactive } else { Priority::Batch },
            deadline: None,
            max_trace_lines: None,
            fidelity: if self.analytic { Fidelity::Analytic } else { Fidelity::Full },
            faults: None,
        }
    }
}

/// Whether index `i` is one of the evenly spread `share` of indices.
fn picked(i: usize, share: f64) -> bool {
    ((i + 1) as f64 * share).floor() > (i as f64 * share).floor()
}

/// `count` new-work keys: the kernels in turn, each walking its size
/// range in a fixed shuffled order, so any prefix covers every range.
fn new_keys(count: usize) -> Vec<(&'static str, usize)> {
    let mut ranges: Vec<Vec<usize>> = NEW
        .iter()
        .map(|&(kernel, lo, hi)| {
            let mut sizes: Vec<usize> =
                (lo..=hi).filter(|&s| !HOT.contains(&(kernel, s))).collect();
            SplitMix::new(lo as u64 * 1000 + hi as u64).shuffle(&mut sizes);
            sizes
        })
        .collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let before = out.len();
        for (k, sizes) in ranges.iter_mut().enumerate() {
            if out.len() < count {
                if let Some(size) = sizes.pop() {
                    out.push((NEW[k].0, size));
                }
            }
        }
        if out.len() == before {
            // Every range is used up (runs far longer than the reference
            // length): start over; the repeats are mostly evicted by now.
            return out.iter().copied().cycle().take(count).collect();
        }
    }
    out
}

/// The schedule for `seconds` of arrivals at [`RATE_PER_S`], evenly
/// spaced.
///
/// The mix is fixed and the seed orders it. A quarter of the requests
/// ([`NEW_SHARE`]) ask for a key the run has not requested before; the
/// rest draw from the hot set with exact Zipf shares. New keys are dealt
/// largest first into one-second blocks and shuffled within each block,
/// so every second carries a similar share of the expensive misses.
/// Lane and fidelity shares are exact too. Sampling each request
/// independently instead let the miss work vary by about 10% from seed to
/// seed.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed);
    let count = (seconds * RATE_PER_S) as usize;
    let slots: Vec<bool> = (0..count).map(|i| picked(i, NEW_SHARE)).collect();
    let fresh = slots.iter().filter(|&&n| n).count();

    let mut new = new_keys(fresh);
    // Iteration count up to a constant factor: the size to the power of
    // the kernel's size-dependent loop dimensions.
    let work = |&(kernel, size): &(&str, usize)| -> u128 {
        let dims = match kernel {
            "doitgen" => 4,
            "convlayer" | "tp" | "tpm" | "copy" | "mask" => 2,
            _ => 3,
        };
        (size as u128).pow(dims)
    };
    new.sort_by_key(|k| std::cmp::Reverse(work(k)));
    let blocks = (seconds.ceil() as usize).max(1);
    let mut dealt: Vec<Vec<(&'static str, usize)>> = vec![Vec::new(); blocks];
    for (j, key) in new.into_iter().enumerate() {
        dealt[j % blocks].push(key);
    }
    let mut new: Vec<(&'static str, usize)> = Vec::with_capacity(fresh);
    for mut block in dealt {
        rng.shuffle(&mut block);
        new.extend(block);
    }

    // Largest-remainder apportionment of the hot requests over the hot set.
    let hot_count = count - fresh;
    let weights: Vec<f64> =
        (0..HOT.len()).map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * hot_count as f64).collect();
    let mut copies: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..HOT.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
    });
    for &k in by_remainder.iter().take(hot_count - copies.iter().sum::<usize>()) {
        copies[k] += 1;
    }
    let mut hot: Vec<(&'static str, usize)> =
        copies.iter().enumerate().flat_map(|(k, &n)| std::iter::repeat_n(HOT[k], n)).collect();
    rng.shuffle(&mut hot);

    let mut lanes: Vec<bool> = (0..count).map(|i| picked(i, INTERACTIVE_SHARE)).collect();
    let mut analytic: Vec<bool> = (0..count).map(|i| picked(i, ANALYTIC_SHARE)).collect();
    rng.shuffle(&mut lanes);
    rng.shuffle(&mut analytic);

    let (mut new, mut hot) = (new.into_iter(), hot.into_iter());
    slots
        .iter()
        .zip(lanes.into_iter().zip(analytic))
        .enumerate()
        .map(|(i, (&is_new, (interactive, analytic)))| {
            let (kernel, size) = if is_new { new.next() } else { hot.next() }
                .expect("the apportionment covers every slot");
            Planned {
                due: Duration::from_secs_f64(i as f64 / RATE_PER_S),
                kernel,
                size,
                interactive,
                analytic,
            }
        })
        .collect()
}

/// Share of requests whose key was already requested earlier.
pub fn repeat_share(plan: &[Planned]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = plan.iter().filter(|p| !seen.insert(p.key())).count();
    ratio(repeats as f64, plan.len() as f64)
}

fn serve_config() -> ServeConfig {
    let mut pipeline = suite::config();
    pipeline.cache =
        CacheConfig { capacity_entries: Some(CAPACITY_ENTRIES), ..CacheConfig::default() };
    // A queue deep enough that a burst of misses queues rather than being
    // refused: every refusal would count as a failed operation.
    ServeConfig { pipeline, workers: Some(WORKERS), queue_capacity: QUEUE_CAPACITY, shed: SHED }
}

type Key = (&'static str, usize);

fn build(kernel: &str, size: usize) -> Result<Vec<palo_ir::LoopNest>, String> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name() == kernel)
        .ok_or_else(|| format!("unknown kernel {kernel}"))?
        .build(size)
        .map_err(|e| format!("{kernel}@{size}: {e}"))
}

/// The decision signature a correct server returns for each key,
/// computed on a separate analytic session (the shedding ladder never
/// changes a decision, so fidelity does not matter).
fn reference_signatures(
    arch: &Architecture,
    keys: &[Key],
) -> Result<BTreeMap<Key, String>, String> {
    let mut config = suite::config();
    config.simulate = false;
    let session = Session::new(arch, config).map_err(|e| e.to_string())?;
    let order: Vec<usize> = (0..keys.len()).collect();
    let sigs = parallel_map_in(WORKERS, &order, keys, |&(kernel, size)| {
        let mut sig = String::new();
        for nest in build(kernel, size)? {
            let out = session.run(&nest).map_err(|e| e.to_string())?;
            let d = out.decision.as_ref();
            sig.push_str(&format!(
                "{}:{}:{}:{:?}:{:?};",
                nest.name(),
                out.report.rung.as_str(),
                d.map_or_else(|| "-".to_string(), |d| format!("{:?}", d.class)),
                d.map(|d| d.tile.clone()).unwrap_or_default(),
                d.map(|d| d.predicted_cost),
            ));
        }
        Ok::<_, String>(sig)
    });
    keys.iter().copied().zip(sigs).map(|(k, sig)| Ok((k, sig?))).collect()
}

/// Runs one repetition: `ctx.seconds` of offered load.
pub fn run(ctx: &Ctx) -> Result<Rep, String> {
    let arch = arch();
    let mut rep = Rep::default();

    let mut setup = None;
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        let plan = schedule(ctx.seed, ctx.seconds);
        let server = Server::start(&arch, serve_config()).map_err(|e| e.to_string())?;
        rep.setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, old)) = setup.replace((plan, server)) {
            old.shutdown();
        }
    }
    let (plan, server) = setup.ok_or("no set-up ran")?;
    if ctx.setup_only {
        server.shutdown();
        return Ok(rep);
    }

    // Untimed warm-up: every hot key once at full fidelity, closed loop, so
    // the measured loop sees the server's steady state (the hot set
    // resident, new work missing and evicting) rather than first touches.
    let t = Instant::now();
    let mut warm_ok = 0u64;
    for (i, (kernel, size)) in HOT.iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        let request = Request {
            id: format!("w{i}"),
            kernel: kernel.to_string(),
            size: Some(*size),
            priority: Priority::Batch,
            deadline: None,
            max_trace_lines: None,
            fidelity: Fidelity::Full,
            faults: None,
        };
        server.submit(request, Box::new(move |r: Response| drop(tx.send(r))));
        warm_ok += u64::from(rx.recv().is_ok_and(|r| r.is_ok()));
    }
    rep.check(warm_ok == HOT.len() as u64, || {
        format!("warm-up: {warm_ok} of {} ok", HOT.len())
    });
    rep.fact("serve_warmup_s", t.elapsed().as_secs_f64());

    let tracer = Tracer::new(ctx.traced);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Response)>();
    let mut lag_ms = Vec::with_capacity(plan.len());
    let start = Instant::now();
    for (i, p) in plan.iter().enumerate() {
        let due = start + p.due;
        // Sleep to just short of the due time, then spin: a sleep alone
        // wakes up to ~0.1 ms late, which would be charged to requests
        // whose whole service takes about that long.
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let tx = tx.clone();
        let responder = Box::new(move |r: Response| {
            let _ = tx.send((i, Instant::now(), r));
        });
        tracer.in_span("serve.submit", None, i as u64, |_| {
            server.submit(p.request(i), responder)
        });
    }
    drop(tx);
    let mut answers: Vec<Option<(Instant, Response)>> = vec![None; plan.len()];
    let give_up = start + Duration::from_secs_f64(ctx.seconds) + Duration::from_secs(60);
    let mut ledger = 0u64;
    while ledger < plan.len() as u64 {
        let wait = give_up.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok((i, at, r)) => {
                ledger += 1;
                answers[i] = Some((at, r));
            }
            Err(_) => break,
        }
    }
    let makespan = answers
        .iter()
        .flatten()
        .map(|(at, _)| at.saturating_duration_since(start).as_secs_f64())
        .fold(0.0, f64::max);
    let session_cache = server.session().cache_stats();
    let stats = server.shutdown();

    let used: Vec<Key> = {
        let mut keys: Vec<Key> = plan.iter().map(|p| (p.kernel, p.size)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    };
    let reference = reference_signatures(&arch, &used)?;
    let mut latency = Vec::new();
    let mut interactive = Vec::new();
    let mut service = Vec::new();
    let mut queue_wait = Vec::new();
    let mut pass_ms: BTreeMap<String, f64> = BTreeMap::new();
    let (mut in_slo, mut shed) = (0u64, 0u64);
    let mut max_pressure = 0.0f64;
    for (i, (p, answer)) in plan.iter().zip(&answers).enumerate() {
        let Some((at, response)) = answer else {
            rep.check(false, || format!("request {i}: no response"));
            continue;
        };
        let Some(ok) = response.ok() else {
            rep.check(false, || format!("request {i}: {:?}", response.error_kind()));
            continue;
        };
        max_pressure = max_pressure.max(ok.pressure);
        let full = ok.fidelity == Fidelity::Full;
        let estimates = ok.nests.iter().all(|n| n.estimate_ms.is_some() == full);
        let want = &reference[&(p.kernel, p.size)];
        let got = ok.decision_signature();
        rep.check(&got == want && estimates, || {
            format!(
                "request {i}: decision {got:?} (estimates {estimates}) differs from {want:?}"
            )
        });
        let ms = at.saturating_duration_since(start + p.due).as_secs_f64() * 1e3;
        let svc: f64 = ok.nests.iter().flat_map(|n| &n.passes).map(|t| t.ms).sum();
        for t in ok.nests.iter().flat_map(|n| &n.passes) {
            *pass_ms.entry(t.pass.clone()).or_default() += t.ms;
        }
        latency.push(ms);
        if p.interactive {
            interactive.push(ms);
        }
        service.push(svc);
        queue_wait.push((ms - svc).max(0.0));
        in_slo += u64::from(ms <= LIMIT_MS);
        shed += u64::from(
            ok.fidelity < if p.analytic { Fidelity::Analytic } else { Fidelity::Full },
        );
    }
    let submitted = plan.len() as u64 + HOT.len() as u64;
    rep.check(
        ledger + HOT.len() as u64 == stats.responses() && ledger == plan.len() as u64,
        || {
            format!(
            "ledger {ledger} + {} warm-up responses, server counted {}, submitted {submitted}",
            HOT.len(),
            stats.responses(),
        )
        },
    );
    rep.check(stats.worker_panics == 0, || format!("{} worker panics", stats.worker_panics));

    let n = plan.len() as f64;
    let pct = |v: &[f64], p: f64| nearest_rank(v, p).map_or(0.0, |x| x.value);
    rep.fact("throughput_per_s", ratio(latency.len() as f64, makespan));
    rep.fact("requests", n);
    rep.fact("serve_p50_ms", pct(&latency, 50.0));
    rep.fact("serve_p90_ms", pct(&latency, 90.0));
    rep.fact("serve_p99_ms", pct(&latency, 99.0));
    rep.fact("serve_interactive_p99_ms", pct(&interactive, 99.0));
    rep.fact("serve_interactive_requests", interactive.len() as f64);
    rep.fact("serve_slo_ratio", ratio(in_slo as f64, n));
    rep.fact("serve_shed_ratio", ratio(shed as f64, n));
    rep.fact("serve_max_pressure", max_pressure);
    rep.fact("serve_yellow", stats.levels[1] as f64);
    rep.fact("serve_red", stats.levels[2] as f64);
    rep.fact("serve_repeat_share", repeat_share(&plan));
    rep.fact(
        "serve_utilization",
        ratio(service.iter().sum::<f64>(), WORKERS as f64 * makespan * 1e3),
    );
    rep.latency_ms = latency;

    if ctx.traced {
        serve_layers(&mut rep, &stats, &lag_ms, &service, &queue_wait, &tracer);
        // The server runs the passes itself, so per-pass time comes from
        // the pass totals each response reports.
        let ms = |pass: &str| pass_ms.get(pass).copied().unwrap_or(0.0);
        for (metric, pass) in [
            ("core.classify.ms", "classify"),
            ("core.optimize.ms", "optimize"),
            ("core.model.paper.ms", "optimize"),
            ("core.degrade.ms", "degrade"),
            ("sched.lower.ms", "lower"),
            ("exec.validate.ms", "validate"),
            ("core.simulate.ms", "simulate"),
        ] {
            rep.layer(metric, ms(pass));
        }
        crate::store_layers(&mut rep, &session_cache);
        if ctx.probe {
            probe_layers(&arch, &plan, &tracer, &mut rep)?;
        }
        ctx.write_spans(&tracer, &mut rep)?;
    }
    Ok(rep)
}

fn serve_layers(
    rep: &mut Rep,
    stats: &ServeStats,
    lag_ms: &[f64],
    service: &[f64],
    queue_wait: &[f64],
    tracer: &Tracer,
) {
    let pct = |v: &[f64], p: f64| nearest_rank(v, p).map_or(0.0, |x| x.value);
    let submit_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "serve.submit")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    for name in [
        "p50_ms",
        "p99_ms",
        "interactive_p99_ms",
        "slo_ratio",
        "shed_ratio",
        "repeat_share",
        "utilization",
    ] {
        let value = rep.get_fact(&format!("serve_{name}")).unwrap_or(0.0);
        rep.layer(&format!("serve.{name}"), value);
    }
    rep.layer("serve.submit_us.p50", pct(&submit_us, 50.0));
    rep.layer("serve.queue_wait_ms.p99", pct(queue_wait, 99.0));
    rep.layer("serve.service_ms.p50", pct(service, 50.0));
    rep.layer("serve.levels.yellow", stats.levels[1] as f64);
    rep.layer("serve.levels.red", stats.levels[2] as f64);
    rep.layer("serve.gen_lag_ms.max", lag_ms.iter().copied().fold(0.0, f64::max));
}

/// New-work keys probed besides the hot set: enough to cover every
/// kernel, few enough to keep the probe to a few seconds.
const PROBED_NEW_KEYS: usize = 24;

/// Walker and simulator cost over the hot set and the first new-work
/// keys the run simulated, outside the measured phase.
fn probe_layers(
    arch: &Architecture,
    plan: &[Planned],
    tracer: &Tracer,
    rep: &mut Rep,
) -> Result<(), String> {
    let mut keys: Vec<Key> = HOT.to_vec();
    for p in plan.iter().filter(|p| !p.analytic) {
        let key = (p.kernel, p.size);
        if keys.len() < HOT.len() + PROBED_NEW_KEYS && !keys.contains(&key) {
            keys.push(key);
        }
    }
    let session = Session::new(arch, suite::config()).map_err(|e| e.to_string())?;
    let (mut lines, mut walker_ns, mut sim_ns) = (0u64, 0.0, 0.0);
    let mut counts = layers::SimCounts::default();
    for (i, &(kernel, size)) in keys.iter().enumerate() {
        for nest in build(kernel, size)? {
            let out = session.run(&nest).map_err(|e| e.to_string())?;
            if let Some(e) = &out.report.estimate {
                counts.absorb(e);
            }
            let p = layers::probe(&nest, &out.lowered, arch, tracer, 2000 + i as u64)?;
            lines += p.lines;
            walker_ns += p.walker_ns;
            sim_ns += p.sim_ns;
        }
    }
    counts.report(rep, true);
    rep.layer("exec.walker.ns_per_line", ratio(walker_ns, lines as f64));
    rep.layer("cachesim.ns_per_line", ratio((sim_ns - walker_ns).max(0.0), lines as f64));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests_and_repeat_share() {
        let a = schedule(7, 5.0);
        let b = schedule(7, 5.0);
        assert_eq!(a, b);
        assert_eq!(repeat_share(&a), repeat_share(&b));
        assert_ne!(a, schedule(8, 5.0));
        // Evenly spaced arrivals at the fixed rate.
        assert_eq!(a.len(), (5.0 * RATE_PER_S) as usize);
        assert!(a.windows(2).all(|w| w[1].due > w[0].due));
        // The hot set repeats: most requests are repeats.
        assert!(repeat_share(&a) > 0.5, "repeat share {}", repeat_share(&a));
    }

    #[test]
    fn the_mix_is_fixed_and_the_seed_only_orders_it() {
        let mix = |seed| {
            let plan = schedule(seed, 5.0);
            let mut keys: Vec<_> = plan.iter().map(|p| (p.kernel, p.size)).collect();
            keys.sort();
            let lanes = plan.iter().filter(|p| p.interactive).count();
            let analytic = plan.iter().filter(|p| p.analytic).count();
            (keys, lanes, analytic)
        };
        assert_eq!(mix(1), mix(2));
        assert_ne!(schedule(1, 5.0), schedule(2, 5.0));
        let plan = schedule(3, 5.0);
        let fresh: Vec<_> = plan
            .iter()
            .filter(|p| !HOT.contains(&(p.kernel, p.size)))
            .map(|p| (p.kernel, p.size))
            .collect();
        let mut distinct = fresh.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), fresh.len(), "new-work keys repeat");
        assert_eq!(fresh.len(), (plan.len() as f64 * NEW_SHARE).floor() as usize);
    }

    #[test]
    fn every_key_builds() {
        for (kernel, size) in HOT.iter().copied().chain(new_keys(400)) {
            assert!(build(kernel, size).is_ok(), "{kernel}@{size}");
        }
        // The hot keys the validate pass runs on.
        let below = suite::config().validate_semantics_below;
        let validated: Vec<Key> = HOT
            .iter()
            .copied()
            .filter(|&(k, s)| build(k, s).unwrap().iter().all(|n| n.iteration_count() < below))
            .collect();
        assert_eq!(validated, [("copy", 48), ("mask", 48), ("tp", 48), ("3mm", 12)]);
    }
}
