//! The `advise` workload: the advice daemon end to end, in process.
//!
//! A `Server` on loopback (1 worker, no refiner threads) and one keep-alive
//! `Client` in a closed loop. Each pass runs three phases against a fresh
//! service:
//!
//! 1. *cold*: every preset × workload label × thread band once, in seeded
//!    order; the model tier answers and stores a placeholder;
//! 2. *refine*: the benchmark drains the refine queue itself through
//!    `AdviceService::run_refinement` (the tuner uses 2 pool threads while
//!    the client is idle);
//! 3. *warm*: the same queries repeated, answered from the store.

use crate::layers::{probe_simulation, EngineTotals};
use crate::report::Values;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::Checks;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use t2opt_autotune::surrogate::{model_for_chip, surrogate_score};
use t2opt_autotune::{ParamSpace, ResultCache, Workload};
use t2opt_core::chip::{ChipSpec, PRESET_NAMES};
use t2opt_core::json::parse_json;
use t2opt_core::layout::LayoutSpec;
use t2opt_serve::service::resolve_workload;
use t2opt_serve::{AdviceService, Client, Server, ServerConfig, WORKLOAD_NAMES};
use t2opt_sim::{ChipConfig, Simulation, ThreadSpec};
use t2opt_store::{Entry, Store, TrialMeta};

/// One thread count is drawn from each band per preset × label, so every
/// seed asks for the same spread of sizes. The top band stays within the
/// smallest preset (32 hardware threads), so no request is clamped and
/// every query is distinct.
const THREAD_BANDS: [(usize, usize); 4] = [(1, 8), (9, 16), (17, 24), (25, 32)];
/// Warm rounds over the distinct queries (10 × 120 = 1200 samples, enough
/// for a p99 with ten samples beyond it).
const WARM_ROUNDS: usize = 10;
/// Store shards of the service.
const STORE_SHARDS: usize = 8;
/// Refine-queue capacity; above the distinct query count so nothing drops.
const QUEUE_CAP: usize = 256;
/// Refined trials replayed through the engine probe in a traced run.
const TRIAL_REPLAYS: usize = 48;

/// One `/advise` query.
pub struct Query {
    chip: &'static str,
    label: &'static str,
    threads: usize,
    body: String,
}

/// The seeded query schedule of a run.
pub struct Plan {
    queries: Vec<Query>,
    /// Warm-phase order, as indices into `queries`.
    warm: Vec<usize>,
}

/// SplitMix64: a tiny seeded generator for query order and thread draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The query schedule for `seed`: thread counts dealt out within each band,
/// cold order shuffled, each warm round shuffled afresh. Each band's counts
/// cycle through the band and are then shuffled over the preset × label
/// pairs, so every seed asks for the same multiset of sizes and the total
/// work varies little between seeds.
pub fn plan(seed: u64) -> Plan {
    let mut rng = Rng(seed);
    let pairs: Vec<(&'static str, &'static str)> = PRESET_NAMES
        .iter()
        .flat_map(|&chip| WORKLOAD_NAMES.iter().map(move |&label| (chip, label)))
        .collect();
    let mut queries = Vec::new();
    for &(lo, hi) in &THREAD_BANDS {
        let mut counts: Vec<usize> = (lo..=hi).cycle().take(pairs.len()).collect();
        rng.shuffle(&mut counts);
        for (&(chip, label), threads) in pairs.iter().zip(counts) {
            let body = format!(r#"{{"chip":"{chip}","workload":"{label}","threads":{threads}}}"#);
            queries.push(Query {
                chip,
                label,
                threads,
                body,
            });
        }
    }
    rng.shuffle(&mut queries);
    let mut warm = Vec::with_capacity(WARM_ROUNDS * queries.len());
    for _ in 0..WARM_ROUNDS {
        let mut round: Vec<usize> = (0..queries.len()).collect();
        rng.shuffle(&mut round);
        warm.extend(round);
    }
    Plan { queries, warm }
}

/// A running in-process daemon and its client.
pub struct Live {
    service: Arc<AdviceService>,
    client: Client,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<std::io::Result<()>>,
}

/// The set-up: service, server on an ephemeral loopback port, client.
pub fn start() -> Live {
    let service = AdviceService::new(Store::in_memory(STORE_SHARDS), QUEUE_CAP);
    let config = ServerConfig {
        workers: 1,
        refiners: 0,
    };
    let server = Server::bind("127.0.0.1:0", service, config).expect("bind loopback");
    let addr: SocketAddr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let service = server.service();
    let server = std::thread::spawn(move || server.serve());
    let client = Client::connect(addr).expect("connect to the in-process server");
    Live {
        service,
        client,
        shutdown,
        server,
    }
}

impl Live {
    /// Closes the connection, stops the server and waits for its threads.
    pub fn stop(self) {
        drop(self.client);
        self.shutdown.store(true, Ordering::Relaxed);
        self.server
            .join()
            .expect("server thread panicked")
            .expect("server shut down cleanly");
    }
}

/// What one pass measured.
pub struct Pass {
    /// Per-request client latency of the cold phase, µs.
    pub cold_us: Vec<f64>,
    /// Per-job host time of the refine phase, ms.
    pub refine_ms: Vec<f64>,
    /// Per-request client latency of the warm phase, µs.
    pub warm_us: Vec<f64>,
    /// Model-tier GB/s per query.
    pub cold_gbs: Vec<f64>,
    /// Cache-tier GB/s per query.
    pub warm_gbs: Vec<f64>,
    /// Store key per query.
    pub keys: Vec<String>,
    /// Phase host seconds: cold, refine, warm.
    pub phase_s: [f64; 3],
    /// The tuner's trial cache after the last job.
    pub trials: ResultCache,
    /// Simulations run and cache hits, summed over the jobs.
    pub sims: u64,
    /// Trial lookups the cache served, summed over the jobs.
    pub hits: u64,
    /// Refine queue drops.
    pub dropped: u64,
}

impl Pass {
    /// Digest of every refined answer, in query order.
    pub fn answers_digest(&self) -> String {
        let text: Vec<String> = self
            .keys
            .iter()
            .zip(&self.warm_gbs)
            .map(|(k, g)| format!("{k}={g:?}"))
            .collect();
        t2opt_store::fnv1a64_hex(text.join(",").as_bytes())
    }
}

/// `(status, tier, gbs, key)` of an `/advise` answer.
fn answer(status: u16, body: &str) -> (u16, String, f64, String) {
    let doc = parse_json(body).ok();
    let obj = doc.as_ref().and_then(|d| d.as_object());
    let field = |k: &str| obj.and_then(|o| o.get(k));
    (
        status,
        field("tier")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string(),
        field("gbs").and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
        field("key")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string(),
    )
}

/// Runs the three phases once against `live`, checking every answer.
pub fn run_pass(live: &mut Live, plan: &Plan, spans: &mut Spans, checks: &mut Checks) -> Pass {
    let n = plan.queries.len();
    let mut cold_us = Vec::with_capacity(n);
    let mut cold_gbs = Vec::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    let mut cold_bad = 0;
    let t = Instant::now();
    for q in &plan.queries {
        let t0 = Instant::now();
        let res = spans.time("http.cold", |_| live.client.post("/advise", &q.body));
        cold_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let (status, tier, gbs, key) = match res {
            Ok((status, body)) => answer(status, &body),
            Err(_) => (0, String::new(), f64::NAN, String::new()),
        };
        cold_bad += u64::from(status != 200 || tier != "advisor");
        cold_gbs.push(gbs);
        keys.push(key);
    }
    let cold_s = t.elapsed().as_secs_f64();
    checks.requests(
        "every cold answer is a 200 from the advisor tier",
        n as u64,
        cold_bad,
    );

    let queue = live.service.refine_queue();
    let mut trials = ResultCache::in_memory();
    let mut refine_ms = Vec::with_capacity(n);
    let (mut sims, mut hits) = (0, 0);
    let t = Instant::now();
    while let Some(job) = queue.try_pop() {
        let t0 = Instant::now();
        trials = spans.time("autotune.refine", |_| {
            live.service.run_refinement(&job, trials)
        });
        refine_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // The tuner zeroes the cache counters when it starts a job.
        sims += trials.misses();
        hits += trials.hits();
    }
    let refine_s = t.elapsed().as_secs_f64();
    let dropped = queue.dropped();
    checks.check("refine queue dropped nothing", dropped == 0);
    checks.check("one refinement per distinct query", refine_ms.len() == n);

    let mut warm_us = Vec::with_capacity(plan.warm.len());
    let mut warm_gbs = vec![f64::NAN; n];
    let mut warm_bad = 0;
    let t = Instant::now();
    for &i in &plan.warm {
        let t0 = Instant::now();
        let res = spans.time("http.warm", |_| {
            live.client.post("/advise", &plan.queries[i].body)
        });
        warm_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let (status, tier, gbs, key) = match res {
            Ok((status, body)) => answer(status, &body),
            Err(_) => (0, String::new(), f64::NAN, String::new()),
        };
        warm_bad += u64::from(status != 200 || tier != "cache" || key != keys[i]);
        warm_gbs[i] = gbs;
    }
    let warm_s = t.elapsed().as_secs_f64();
    checks.requests(
        "every warm answer comes from the cache tier",
        plan.warm.len() as u64,
        warm_bad,
    );

    Pass {
        cold_us,
        refine_ms,
        warm_us,
        cold_gbs,
        warm_gbs,
        keys,
        phase_s: [cold_s, refine_s, warm_s],
        trials,
        sims,
        hits,
        dropped,
    }
}

/// One refined trial the tuner simulated.
pub struct Trial {
    key: String,
    workload: Workload,
    chip: ChipConfig,
    spec: LayoutSpec,
}

/// Recovers the trials behind a pass's trial cache by re-deriving every
/// candidate key of every query's search space, in key order.
pub fn simulated_trials(plan: &Plan, trials: &ResultCache) -> Vec<Trial> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for q in &plan.queries {
        let spec = ChipSpec::preset(q.chip).expect("preset");
        let chip = ChipConfig::from_spec(&spec);
        let workload = resolve_workload(q.label, q.threads).expect("workload label");
        let space = if workload.tag().starts_with("lbm") {
            ParamSpace::lbm_padding_sweep()
        } else {
            ParamSpace::offset_sweep_for(&spec)
        };
        for cand in space.candidates() {
            let key = ResultCache::key(&workload, &chip, &cand);
            if trials.peek(&key).is_some() && seen.insert(key.clone()) {
                out.push(Trial {
                    key,
                    workload: workload.clone(),
                    chip: chip.clone(),
                    spec: cand,
                });
            }
        }
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    out
}

/// Memory ops of every trial's trace (drained without the engine).
pub fn trial_ops(trials: &[Trial]) -> u64 {
    trials
        .iter()
        .map(|t| crate::layers::count_ops(t.workload.build_programs(&t.spec)).total)
        .sum()
}

/// Replays the first [`TRIAL_REPLAYS`] trials through the engine probe and
/// the layer replays, checking each reproduces its cached GB/s bitwise.
pub fn replay_trials(
    trials: &[Trial],
    cache: &ResultCache,
    spans: &mut Spans,
    totals: &mut EngineTotals,
    checks: &mut Checks,
) {
    let mut same = true;
    for t in trials.iter().take(TRIAL_REPLAYS) {
        let mut trial_chip = t.chip.clone();
        trial_chip.placement = t.spec.placement;
        let mut sim = Simulation::new(trial_chip);
        if t.workload.warmup() {
            sim = sim.measure_after_barrier(0);
        }
        let n_cores = t.chip.core.n_cores;
        let programs = || t.workload.build_programs(&t.spec);
        let threads = || {
            programs()
                .into_iter()
                .enumerate()
                .map(|(tid, p)| ThreadSpec::new(tid % n_cores, p))
                .collect()
        };
        let stats = probe_simulation(spans, totals, &sim, threads, programs);
        let gbs = stats.reported_bandwidth_gbs(&t.chip, t.workload.reported_bytes());
        same &= cache
            .peek(&t.key)
            .is_some_and(|c| c.to_bits() == gbs.to_bits());
    }
    checks.check("replayed trials reproduce their cached GB/s bitwise", same);
}

/// Writes the service-side per-layer metrics of a traced pass: latency
/// percentiles, tuner counters, model cost and error, store and handler
/// replays.
pub fn layer_metrics(
    live: &Live,
    plan: &Plan,
    pass: &Pass,
    spans: &mut Spans,
    values: &mut Values,
) -> Result<(), String> {
    values.insert("advise_cold_us.p50", percentile(&pass.cold_us, 0.5)?);
    values.insert("advise_cold_us.p90", percentile(&pass.cold_us, 0.9)?);
    let warm_p50 = percentile(&pass.warm_us, 0.5)?;
    values.insert("advise_warm_us.p50", warm_p50);
    values.insert("advise_warm_us.p99", percentile(&pass.warm_us, 0.99)?);
    values.insert("refine_ms.p50", percentile(&pass.refine_ms, 0.5)?);
    values.insert("refine_ms.p90", percentile(&pass.refine_ms, 0.9)?);

    let (hits, misses) = (pass.hits, pass.sims);
    values.insert("tune.sims", misses as f64);
    values.insert(
        "tune.sims_per_job",
        misses as f64 / pass.refine_ms.len().max(1) as f64,
    );
    values.insert(
        "tune.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert("refine.queue_dropped", pass.dropped as f64);
    values.insert("model.rel_error", model_rel_error(pass));
    values.insert("model.predict_us", model_predict_us(plan, spans));

    // In-process handler replay of the warm phase.
    let service = &live.service;
    let mut handle_us = Vec::with_capacity(plan.warm.len());
    for &i in &plan.warm {
        let t = Instant::now();
        let r = spans.time("serve.handle", |_| {
            service.handle("POST", "/advise", &plan.queries[i].body)
        });
        handle_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(r.status);
    }
    let handle_p50 = percentile(&handle_us, 0.5)?;
    values.insert("serve.handle_us.p50", handle_p50);
    values.insert("serve.handle_us.p99", percentile(&handle_us, 0.99)?);
    values.insert("http.overhead_us.p50", warm_p50 - handle_p50);

    // Store reads against the live store, writes against a scratch one
    // with the same shard count (placeholder, then refined upgrade).
    let store = service.store();
    let mut get_us = Vec::new();
    for _ in 0..WARM_ROUNDS {
        for key in &pass.keys {
            let t = Instant::now();
            let e = spans.time("store.get", |_| store.get_entry(key));
            get_us.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(e);
        }
    }
    let scratch = Store::in_memory(STORE_SHARDS);
    let mut update_us = Vec::new();
    for (i, key) in pass.keys.iter().enumerate() {
        for gbs in [pass.cold_gbs[i], pass.warm_gbs[i]] {
            let entry = Entry {
                gbs,
                meta: Some(TrialMeta {
                    tag: plan.queries[i].label.to_string(),
                    chip: plan.queries[i].chip.to_string(),
                    spec: LayoutSpec::new(),
                }),
            };
            let t = Instant::now();
            spans.time("store.update", |_| scratch.update(key, |_| Some(entry)));
            update_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    values.insert("store.get_us.p50", percentile(&get_us, 0.5)?);
    values.insert("store.update_us.p50", percentile(&update_us, 0.5)?);
    values.insert("store.entries", store.len() as f64);
    values.insert(
        "store.lock_wait_us",
        contended_lock_wait_us(&pass.keys, spans),
    );
    Ok(())
}

/// Mean shard-lock wait in µs, as the store's own histogram records it, of
/// reads racing one writer thread over the same keys. A single closed-loop
/// client never contends (the live store records only zeros), so this
/// measures the lock under the contention a busy daemon would see.
fn contended_lock_wait_us(keys: &[String], spans: &mut Spans) -> f64 {
    let store = Store::in_memory(STORE_SHARDS);
    store.metrics().set_lock_timing(true);
    for key in keys {
        store.insert(key, 0.0);
    }
    let done = AtomicBool::new(false);
    spans.time("store.contend", |_| {
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut gbs = 0.0;
                while !done.load(Ordering::Relaxed) {
                    for key in keys {
                        store.insert(key, gbs);
                        gbs += 1.0;
                    }
                }
            });
            for _ in 0..4 * WARM_ROUNDS {
                for key in keys {
                    black_box(store.get_entry(key));
                }
            }
            done.store(true, Ordering::Relaxed);
        })
    });
    store.metrics().lock_wait().mean()
}

/// Median over queries of |model-tier GB/s − refined GB/s| / refined GB/s.
pub fn model_rel_error(pass: &Pass) -> f64 {
    let errs: Vec<f64> = pass
        .cold_gbs
        .iter()
        .zip(&pass.warm_gbs)
        .map(|(m, r)| (m - r).abs() / r)
        .collect();
    median(&errs)
}

/// Median host µs of one surrogate prediction for the advisor layout, over
/// every query of the plan (chip models built outside the timing, as the
/// service precomputes them).
fn model_predict_us(plan: &Plan, spans: &mut Spans) -> f64 {
    let inputs: Vec<_> = plan
        .queries
        .iter()
        .map(|q| {
            let spec = ChipSpec::preset(q.chip).expect("preset");
            let model = model_for_chip(&ChipConfig::from_spec(&spec));
            let layout = spec.advisor().suggest_layout();
            let workload = resolve_workload(q.label, q.threads).expect("workload label");
            (model, workload, layout)
        })
        .collect();
    let mut us = Vec::new();
    spans.time("model.predict", |_| {
        for _ in 0..5 {
            for (model, workload, layout) in &inputs {
                let t = Instant::now();
                black_box(surrogate_score(model, workload, layout));
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    });
    median(&us)
}

/// Summary of a pass for the run record.
pub fn record(pass: &Pass, sims: u64, ops: u64) -> String {
    let p = |v: &[f64], q: f64| percentile(v, q).map_or("null".into(), |x| format!("{x:.3}"));
    format!(
        r#"{{"queries":{},"warm_requests":{},"cold_us":{{"p50":{},"p90":{}}},"warm_us":{{"p50":{},"p99":{}}},"refine_ms":{{"p50":{},"p90":{}}},"phase_s":[{:.4},{:.4},{:.4}],"sims":{sims},"sim_mem_ops":{ops},"model_rel_error":{:.4},"answers_digest":"{}"}}"#,
        pass.cold_us.len(),
        pass.warm_us.len(),
        p(&pass.cold_us, 0.5),
        p(&pass.cold_us, 0.9),
        p(&pass.warm_us, 0.5),
        p(&pass.warm_us, 0.99),
        p(&pass.refine_ms, 0.5),
        p(&pass.refine_ms, 0.9),
        pass.phase_s[0],
        pass.phase_s[1],
        pass.phase_s[2],
        model_rel_error(pass),
        pass.answers_digest(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::min_samples;

    #[test]
    fn plan_is_seeded_distinct_and_large_enough_for_its_tails() {
        let a = plan(7);
        let n = a.queries.len();
        assert_eq!(
            n,
            PRESET_NAMES.len() * WORKLOAD_NAMES.len() * THREAD_BANDS.len()
        );
        assert!(
            n >= min_samples(0.9),
            "cold p90 and refine p90 need {}",
            min_samples(0.9)
        );
        assert!(
            a.warm.len() >= min_samples(0.99),
            "warm p99 needs {}",
            min_samples(0.99)
        );
        let bodies: BTreeSet<&str> = a.queries.iter().map(|q| q.body.as_str()).collect();
        assert_eq!(bodies.len(), n, "queries are distinct");
        assert!(a.queries.iter().all(|q| (1..=32).contains(&q.threads)));
        let b = plan(7);
        assert!(a
            .queries
            .iter()
            .zip(&b.queries)
            .all(|(x, y)| x.body == y.body));
        assert_eq!(a.warm, b.warm);
        let c = plan(8);
        assert!(a
            .queries
            .iter()
            .zip(&c.queries)
            .any(|(x, y)| x.body != y.body));
    }
}
