//! Per-layer measurements of the simulator stack, all driven from outside
//! through public APIs: an engine [`SimProbe`], trace draining without the
//! engine, and replays through [`L2Cache`] and [`MemController`].

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use t2opt_sim::cache::{Access, L2Cache};
use t2opt_sim::mc::MemController;
use t2opt_sim::telemetry::probe::{SimProbe, StallKind};
use t2opt_sim::trace::{Op, Program};
use t2opt_sim::{ChipConfig, SimStats, Simulation, ThreadSpec};

/// Controller services kept for the host-cost replay; enough for a stable
/// ns/service figure without holding a whole aliased run in memory.
const SERVICE_LOG_CAP: usize = 1 << 20;
/// Accesses replayed through a fresh L2 per simulation, same reasoning.
const ACCESS_LOG_CAP: usize = 1 << 21;

/// Engine counters gathered through the `SimProbe` seam. Counters follow
/// the measurement window (cleared when it opens, like `SimStats`); the
/// service log spans the whole run so a replay sees every request.
#[derive(Default)]
pub struct EngineProbe {
    /// Controller services in the window.
    pub services: u64,
    /// Sum of the controller queue length after each service.
    pub queue_len_sum: u64,
    /// Stall cycles in the window: NACK retry, load miss, pipe, barrier.
    pub stall: [u64; 4],
    /// `(controller, arrival cycle, is_write)` of the run's first services.
    pub service_log: Vec<(u32, u64, bool)>,
}

impl SimProbe for EngineProbe {
    fn mc_service(&mut self, mc: usize, at: u64, _busy: u64, queue_len: usize, is_write: bool) {
        self.services += 1;
        self.queue_len_sum += queue_len as u64;
        if self.service_log.len() < SERVICE_LOG_CAP {
            self.service_log.push((mc as u32, at, is_write));
        }
    }

    fn stall(&mut self, _tid: u32, kind: StallKind, from: u64, until: u64) {
        let slot = match kind {
            StallKind::Nack => 0,
            StallKind::LoadMiss => 1,
            StallKind::Pipe => 2,
            StallKind::Barrier => 3,
            _ => return,
        };
        self.stall[slot] += until.saturating_sub(from);
    }

    fn window_reset(&mut self, _at: u64) {
        self.services = 0;
        self.queue_len_sum = 0;
        self.stall = [0; 4];
    }
}

/// Memory ops (loads + stores) in a batch of programs: in total, and after
/// barrier 0 (the measured window of a warm-up + barrier trace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Every load and store.
    pub total: u64,
    /// Loads and stores after the first barrier.
    pub after_barrier: u64,
}

/// Drains `programs` without the engine, counting memory ops.
pub fn count_ops(programs: Vec<Program>) -> OpCount {
    let mut c = OpCount::default();
    for p in programs {
        let mut past_barrier = false;
        for op in p {
            match op {
                Op::Read(_) | Op::Write(_) => {
                    c.total += 1;
                    c.after_barrier += past_barrier as u64;
                }
                Op::Barrier(_) => past_barrier = true,
                Op::Compute(_) | Op::Delay(_) => {}
            }
        }
    }
    c
}

/// The memory accesses of `programs`, interleaved one op per thread in
/// turn (a stand-in for the engine's interleaving), capped at
/// [`ACCESS_LOG_CAP`].
pub fn interleaved_accesses(programs: Vec<Program>) -> Vec<(u64, bool)> {
    let mut live = programs;
    let mut out = Vec::new();
    while !live.is_empty() && out.len() < ACCESS_LOG_CAP {
        live.retain_mut(|p| match p.next() {
            Some(Op::Read(a)) => {
                out.push((a, false));
                true
            }
            Some(Op::Write(a)) => {
                out.push((a, true));
                true
            }
            Some(_) => true,
            None => false,
        });
    }
    out.truncate(ACCESS_LOG_CAP);
    out
}

/// Replays `accesses` through a fresh L2 of `chip`'s geometry; returns the
/// host seconds spent in `L2Cache::access`.
pub fn l2_replay(chip: &ChipConfig, accesses: &[(u64, bool)]) -> f64 {
    let mut l2 = L2Cache::new(&chip.l2);
    let t = Instant::now();
    let mut misses = 0u64;
    for &(addr, write) in accesses {
        misses += matches!(l2.access(addr, write), Access::Miss { .. }) as u64;
    }
    black_box(misses);
    t.elapsed().as_secs_f64()
}

/// Replays a probe's service log through fresh controllers; returns the
/// host seconds spent in `MemController::service_*`.
pub fn mc_replay(chip: &ChipConfig, log: &[(u32, u64, bool)]) -> f64 {
    let mut mcs: Vec<MemController> = (0..chip.n_controllers())
        .map(|i| MemController::new_seeded(&chip.mem, i as u64))
        .collect();
    let t = Instant::now();
    let mut last = 0u64;
    for &(mc, at, write) in log {
        let mc = &mut mcs[mc as usize];
        let out = if write {
            mc.service_write(at)
        } else {
            mc.service_read(at)
        };
        last ^= out.completion;
    }
    black_box(last);
    t.elapsed().as_secs_f64()
}

/// Median host microseconds of the smallest possible simulation: one
/// thread issuing one load. This is the fixed per-trial cost the tuner
/// pays on every candidate.
pub fn engine_fixed_us(chip: &ChipConfig, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let program: Program = Box::new(std::iter::once(Op::Read(0)));
            let t = Instant::now();
            let stats = Simulation::new(chip.clone()).run(vec![ThreadSpec::new(0, program)]);
            let us = t.elapsed().as_secs_f64() * 1e6;
            black_box(stats.mem_ops);
            us
        })
        .collect();
    median(&samples)
}

/// Median host microseconds to build an empty L2 of `chip`'s geometry.
pub fn l2_new_us(chip: &ChipConfig, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let l2 = L2Cache::new(&chip.l2);
            let us = t.elapsed().as_secs_f64() * 1e6;
            black_box(l2.occupancy());
            us
        })
        .collect();
    median(&samples)
}

/// Engine-level totals over the simulations of one traced pass.
#[derive(Default)]
pub struct EngineTotals {
    /// Host seconds inside `run_with_probe`.
    pub run_s: f64,
    /// Memory ops the engine executed (whole traces, warm-up included).
    pub trace_ops: u64,
    /// Simulations folded in.
    pub sims: u64,
    /// Window statistics summed over the simulations.
    pub mem_ops: u64,
    /// NACKs in the window.
    pub nacks: u64,
    /// Simulated cycles in the window.
    pub sim_cycles: u64,
    /// L2 hits, misses and write-backs in the window.
    pub l2: [u64; 3],
    /// Controller busy cycles, and controller-cycles available.
    pub mc_busy: u64,
    /// `n_controllers × window cycles`, summed.
    pub mc_capacity: u64,
    /// Sum of per-simulation controller balance.
    pub balance_sum: f64,
    /// Probe counters summed.
    pub services: u64,
    /// Probe queue-length sum.
    pub queue_len_sum: u64,
    /// Probe stall cycles summed.
    pub stall: [u64; 4],
    /// Host seconds draining the same traces without the engine.
    pub drain_s: f64,
    /// Host seconds and accesses of the L2 replays.
    pub l2_replay: (f64, u64),
    /// Host seconds and services of the controller replays.
    pub mc_replay: (f64, u64),
}

impl EngineTotals {
    /// Folds one probed simulation in.
    pub fn add(&mut self, stats: &SimStats, probe: &EngineProbe, run_s: f64, ops: u64) {
        self.run_s += run_s;
        self.trace_ops += ops;
        self.sims += 1;
        self.mem_ops += stats.mem_ops;
        self.nacks += stats.nacks;
        self.sim_cycles += stats.cycles();
        self.l2[0] += stats.l2_hits;
        self.l2[1] += stats.l2_misses;
        self.l2[2] += stats.l2_writebacks;
        self.mc_busy += stats.mc_busy_cycles.iter().sum::<u64>();
        self.mc_capacity += stats.mc_busy_cycles.len() as u64 * stats.cycles();
        self.balance_sum += stats.mc_balance();
        self.services += probe.services;
        self.queue_len_sum += probe.queue_len_sum;
        for (a, b) in self.stall.iter_mut().zip(probe.stall) {
            *a += b;
        }
    }

    /// Writes the kernels/engine/l2/mc per-layer metrics.
    pub fn write(&self, v: &mut crate::report::Values) {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        v.insert(
            "kernels.trace_ns_per_op",
            per(self.drain_s * 1e9, self.trace_ops),
        );
        v.insert("engine.run_s", self.run_s);
        v.insert("engine.ns_per_op", per(self.run_s * 1e9, self.trace_ops));
        v.insert("engine.mem_ops", self.mem_ops as f64);
        v.insert("engine.nacks_per_op", per(self.nacks as f64, self.mem_ops));
        v.insert("engine.sim_cycles", self.sim_cycles as f64);
        v.insert("engine.stall_cycles.nack", self.stall[0] as f64);
        v.insert("engine.stall_cycles.load_miss", self.stall[1] as f64);
        v.insert("engine.stall_cycles.pipe", self.stall[2] as f64);
        v.insert("engine.stall_cycles.barrier", self.stall[3] as f64);
        v.insert(
            "l2.ns_per_access",
            per(self.l2_replay.0 * 1e9, self.l2_replay.1),
        );
        let accesses = self.l2[0] + self.l2[1];
        v.insert("l2.hit_rate", per(self.l2[0] as f64, accesses));
        v.insert("l2.accesses", accesses as f64);
        v.insert("l2.writebacks", self.l2[2] as f64);
        v.insert("mc.services", self.services as f64);
        v.insert(
            "mc.queue_len.mean",
            per(self.queue_len_sum as f64, self.services),
        );
        v.insert("mc.busy_share", per(self.mc_busy as f64, self.mc_capacity));
        v.insert("mc.balance", per(self.balance_sum, self.sims));
        v.insert(
            "mc.ns_per_service",
            per(self.mc_replay.0 * 1e9, self.mc_replay.1),
        );
    }
}

/// Runs one simulation under an [`EngineProbe`], then measures the layers
/// underneath it from outside: the same traces drained without the engine,
/// their accesses replayed through a fresh L2, and the controller services
/// replayed through fresh controllers. `programs` must build the trace the
/// simulation runs.
pub fn probe_simulation(
    spans: &mut crate::spans::Spans,
    totals: &mut EngineTotals,
    sim: &Simulation,
    threads: impl FnOnce() -> Vec<ThreadSpec>,
    programs: impl Fn() -> Vec<Program>,
) -> SimStats {
    let chip = sim.config();
    let threads = spans.time("kernels.build_trace", |_| threads());
    let mut probe = EngineProbe::default();
    let t = Instant::now();
    let stats = spans.time("engine.run", |_| sim.run_with_probe(threads, &mut probe));
    let run_s = t.elapsed().as_secs_f64();
    let progs = programs();
    let t = Instant::now();
    let ops = spans.time("kernels.drain", |_| count_ops(progs));
    totals.drain_s += t.elapsed().as_secs_f64();
    totals.add(&stats, &probe, run_s, ops.total);
    let accesses = interleaved_accesses(programs());
    let l2_s = spans.time("l2.replay", |_| l2_replay(chip, &accesses));
    totals.l2_replay.0 += l2_s;
    totals.l2_replay.1 += accesses.len() as u64;
    let mc_s = spans.time("mc.replay", |_| mc_replay(chip, &probe.service_log));
    totals.mc_replay.0 += mc_s;
    totals.mc_replay.1 += probe.service_log.len() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(ops: Vec<Op>) -> Program {
        Box::new(ops.into_iter())
    }

    #[test]
    fn op_counts_split_at_the_first_barrier() {
        let progs = vec![
            program(vec![
                Op::Read(0),
                Op::Barrier(0),
                Op::Write(64),
                Op::Compute(2),
            ]),
            program(vec![
                Op::Write(128),
                Op::Barrier(0),
                Op::Read(192),
                Op::Read(256),
            ]),
        ];
        assert_eq!(
            count_ops(progs),
            OpCount {
                total: 5,
                after_barrier: 3
            }
        );
    }

    #[test]
    fn accesses_interleave_threads_in_turn() {
        let progs = vec![
            program(vec![Op::Read(0), Op::Read(64)]),
            program(vec![Op::Write(128), Op::Delay(3), Op::Write(192)]),
        ];
        assert_eq!(
            interleaved_accesses(progs),
            vec![(0, false), (128, true), (64, false), (192, true)]
        );
    }

    #[test]
    fn probe_counts_follow_the_measurement_window() {
        let chip = ChipConfig::ultrasparc_t2();
        let mk = || -> Vec<Program> {
            (0..4u64)
                .map(|t| {
                    program(vec![
                        Op::Read(t * 4096),
                        Op::Barrier(0),
                        Op::Read((1 << 24) + t * 4096),
                        Op::Write((1 << 25) + t * 4096),
                    ])
                })
                .collect()
        };
        let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
        let mut spans = crate::spans::Spans::new(true);
        let mut totals = EngineTotals::default();
        let threads = || {
            mk().into_iter()
                .enumerate()
                .map(|(t, p)| ThreadSpec::new(t, p))
                .collect()
        };
        let stats = probe_simulation(&mut spans, &mut totals, &sim, threads, mk);
        assert_eq!(stats.mem_ops, 8);
        assert_eq!(totals.trace_ops, 12);
        assert_eq!(totals.l2[0] + totals.l2[1], 8);
        assert!(totals.services > 0 && totals.services <= 8);
        assert_eq!(totals.l2_replay.1, 12);
        let again = Simulation::new(chip)
            .measure_after_barrier(0)
            .run(threads());
        assert_eq!(
            crate::stats::stats_digest(&stats),
            crate::stats::stats_digest(&again)
        );
    }
}
