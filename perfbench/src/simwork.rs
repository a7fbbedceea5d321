//! The two paper-figure workloads: `fig2-triad` (Fig. 2, the aliasing
//! collapse of the STREAM triad) and `fig6-jacobi` (Fig. 6, an
//! L2-resident 2-D Jacobi). Both are deterministic: the seed changes
//! nothing, and every pass must reproduce the same `SimStats` digests.

use crate::hostref::HostRef;
use crate::layers::{count_ops, probe_simulation, EngineTotals, OpCount};
use crate::spans::Spans;
use crate::stats::stats_digest;
use crate::Checks;
use t2opt_kernels::common::place_threads;
use t2opt_kernels::jacobi::{self, JacobiConfig};
use t2opt_kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt_parallel::Placement;
use t2opt_sim::trace::Program;
use t2opt_sim::{ChipConfig, SimStats, Simulation, ThreadSpec};

/// Triad array length: three 8 MiB arrays, six times the 4 MB L2.
const TRIAD_N: usize = 1 << 20;
/// Fig. 2 offsets in words: fully aliased, half period, spread.
const TRIAD_OFFSETS: [(usize, &str); 3] = [(0, "aliased"), (32, "half-period"), (16, "spread")];
/// Measured triad sweeps after the warm-up sweep.
const TRIAD_SWEEPS: usize = 1;
/// Jacobi grid side: both 500² grids (4 MB) stay L2-resident.
const JACOBI_N: usize = 500;
/// Measured Jacobi sweeps after the warm-up sweep.
const JACOBI_SWEEPS: usize = 20;
/// Simulated threads (the T2's 8 cores × 8 threads, scatter placement).
const THREADS: usize = 64;

/// Paper reference for the triad at 64 threads (EXPERIMENTS.md):
/// the aliased minimum and the spread maximum, GB/s, and their swing.
const PAPER_ALIASED_GBS: (f64, f64) = (4.2, 4.5);
const PAPER_SPREAD_GBS: (f64, f64) = (12.5, 13.0);
const PAPER_SWING: f64 = 2.8;

/// One simulated point of a workload.
pub enum Case {
    /// A STREAM triad at one offset.
    Triad(&'static str, StreamConfig),
    /// A Jacobi layout.
    Jacobi(&'static str, JacobiConfig),
}

impl Case {
    fn label(&self) -> &'static str {
        match self {
            Case::Triad(l, _) | Case::Jacobi(l, _) => l,
        }
    }

    fn programs(&self, chip: &ChipConfig) -> Vec<Program> {
        match self {
            Case::Triad(_, cfg) => stream::build_trace(cfg, StreamKernel::Triad, chip),
            Case::Jacobi(_, cfg) => jacobi::build_trace(cfg, chip),
        }
    }

    fn threads(&self, chip: &ChipConfig) -> Vec<ThreadSpec> {
        place_threads(
            self.programs(chip),
            &Placement::t2_scatter(),
            chip.core.n_cores,
        )
    }

    /// Simulated bandwidth in GB/s: STREAM-reported for the triad, actual
    /// DRAM-side for Jacobi (which mostly hits the L2).
    fn gbs(&self, chip: &ChipConfig, stats: &SimStats) -> f64 {
        match self {
            Case::Triad(_, cfg) => stats.reported_bandwidth_gbs(
                chip,
                cfg.reported_bytes_per_sweep(StreamKernel::Triad) * cfg.ntimes as u64,
            ),
            Case::Jacobi(..) => stats.actual_bandwidth_gbs(chip),
        }
    }
}

/// Everything a pass needs, built by the timed set-up.
pub struct Prepared {
    chip: ChipConfig,
    sim: Simulation,
    cases: Vec<Case>,
    ops: Vec<OpCount>,
}

/// The set-up: chip, cases, and the memory-op count of every trace (the
/// traces are generated and drained once here).
pub fn prepare(workload: &str) -> Prepared {
    let chip = ChipConfig::ultrasparc_t2();
    let cases: Vec<Case> = match workload {
        "fig2-triad" => TRIAD_OFFSETS
            .iter()
            .map(|&(offset, label)| {
                Case::Triad(
                    label,
                    StreamConfig {
                        n: TRIAD_N,
                        offset,
                        threads: THREADS,
                        ntimes: TRIAD_SWEEPS,
                    },
                )
            })
            .collect(),
        "fig6-jacobi" => {
            let mut opt = JacobiConfig::optimized(JACOBI_N, THREADS);
            let mut plain = JacobiConfig::plain(JACOBI_N, THREADS);
            opt.sweeps = JACOBI_SWEEPS;
            plain.sweeps = JACOBI_SWEEPS;
            vec![Case::Jacobi("optimized", opt), Case::Jacobi("plain", plain)]
        }
        other => panic!("not a simulator workload: {other}"),
    };
    let ops = cases.iter().map(|c| count_ops(c.programs(&chip))).collect();
    Prepared {
        sim: Simulation::new(chip.clone()).measure_after_barrier(0),
        chip,
        cases,
        ops,
    }
}

/// One pass over every case.
pub struct Pass {
    /// Host seconds of each simulation.
    pub secs: Vec<f64>,
    /// Statistics of each simulation.
    pub stats: Vec<SimStats>,
}

impl Pass {
    /// Host seconds of the whole pass.
    pub fn wall_s(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Runs every case once. With spans enabled each simulation goes through
/// the engine probe and the layer replays, which are folded into `totals`
/// (their host time is not part of `secs`).
pub fn run_pass(
    p: &Prepared,
    host: &mut HostRef,
    spans: &mut Spans,
    totals: &mut EngineTotals,
) -> Pass {
    let mut pass = Pass {
        secs: Vec::new(),
        stats: Vec::new(),
    };
    for case in &p.cases {
        let (stats, secs) = if spans.enabled() {
            let before = totals.run_s;
            let stats = probe_simulation(
                spans,
                totals,
                &p.sim,
                || case.threads(&p.chip),
                || case.programs(&p.chip),
            );
            (stats, totals.run_s - before)
        } else {
            let threads = case.threads(&p.chip);
            host.time(|| p.sim.run(threads))
        };
        pass.secs.push(secs);
        pass.stats.push(stats);
    }
    pass
}

/// Memory ops the engine executes in one pass.
pub fn pass_ops(p: &Prepared) -> u64 {
    p.ops.iter().map(|o| o.total).sum()
}

/// The workload's correctness checks on one pass; `reference` is an
/// earlier pass of the same run, whose statistics must match bitwise.
pub fn check_pass(p: &Prepared, pass: &Pass, reference: Option<&Pass>, checks: &mut Checks) {
    if let Some(r) = reference {
        for (i, case) in p.cases.iter().enumerate() {
            checks.check(
                &format!("{} statistics repeat bitwise", case.label()),
                r.stats[i] == pass.stats[i],
            );
        }
    }
    for (i, case) in p.cases.iter().enumerate() {
        let s = &pass.stats[i];
        checks.check(
            &format!("{} window ops equal the trace's", case.label()),
            s.mem_ops == p.ops[i].after_barrier,
        );
        checks.check(
            &format!("{} read bytes equal misses x line", case.label()),
            s.total_read_bytes() == s.l2_misses * p.chip.l2.line as u64,
        );
    }
    match p.cases[0] {
        Case::Triad(_, ref cfg) => {
            let gbs: Vec<f64> = (0..3)
                .map(|i| p.cases[i].gbs(&p.chip, &pass.stats[i]))
                .collect();
            checks.check(
                "GB/s ordered aliased < half-period < spread",
                gbs[0] < gbs[1] && gbs[1] < gbs[2],
            );
            checks.check("spread/aliased swing >= 1.5", gbs[2] >= 1.5 * gbs[0]);
            // Three 8-byte streams per element, each line fetched once
            // (demand reads of B and C, read-for-ownership of A). Lines the
            // warm-up sweep leaves in the L2 may hit: allow 0.1%.
            let expected = (3 * 8 * cfg.n * cfg.ntimes) as f64;
            for (i, case) in p.cases.iter().enumerate() {
                let read = pass.stats[i].total_read_bytes() as f64;
                checks.check(
                    &format!(
                        "{} read bytes within 0.1% of 24 B x N x sweeps",
                        case.label()
                    ),
                    (read - expected).abs() <= 1e-3 * expected,
                );
            }
        }
        Case::Jacobi(..) => {
            for (i, case) in p.cases.iter().enumerate() {
                let s = &pass.stats[i];
                checks.check(
                    &format!("{} L2 hit rate >= 0.95", case.label()),
                    s.l2_hit_rate() >= 0.95,
                );
                checks.check(
                    &format!("{} NACKs/op ~ 0", case.label()),
                    (s.nacks as f64) <= 1e-3 * s.mem_ops as f64,
                );
            }
        }
    }
}

/// The simulated-statistics record of a pass: per point its label, GB/s,
/// `SimStats` digest and counters, and for the triad the paper reference
/// with the error.
pub fn record(p: &Prepared, pass: &Pass) -> String {
    let mut points = Vec::new();
    let mut gbs = Vec::new();
    for (i, case) in p.cases.iter().enumerate() {
        let s = &pass.stats[i];
        let g = case.gbs(&p.chip, s);
        gbs.push(g);
        let reference = match (case, i) {
            (Case::Triad(..), 0) => Some(PAPER_ALIASED_GBS),
            (Case::Triad(..), 2) => Some(PAPER_SPREAD_GBS),
            _ => None,
        };
        let paper = reference.map_or(String::new(), |(lo, hi)| {
            let mid = 0.5 * (lo + hi);
            format!(
                r#","paper_gbs":[{lo},{hi}],"paper_error":{:.4}"#,
                g / mid - 1.0
            )
        });
        let extra = match case {
            Case::Jacobi(_, cfg) => {
                format!(r#","mlups":{:.3}"#, s.mlups(&p.chip, cfg.site_updates()))
            }
            Case::Triad(..) => String::new(),
        };
        points.push(format!(
            r#"{{"point":"{}","gbs":{:.4}{paper}{extra},"digest":"{}","mem_ops":{},"nacks":{},"l2_hit_rate":{:.6},"host_s":{:.4}}}"#,
            case.label(),
            g,
            stats_digest(s),
            s.mem_ops,
            s.nacks,
            s.l2_hit_rate(),
            pass.secs[i],
        ));
    }
    let swing = match p.cases[0] {
        Case::Triad(..) => format!(
            r#","swing":{:.4},"paper_swing":{PAPER_SWING},"swing_error":{:.4}"#,
            gbs[2] / gbs[0],
            gbs[2] / gbs[0] / PAPER_SWING - 1.0
        ),
        Case::Jacobi(..) => String::new(),
    };
    format!(r#"{{"points":[{}]{swing}}}"#, points.join(","))
}
