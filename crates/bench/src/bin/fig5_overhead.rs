//! Figure 5: performance overhead of segmented iterators vs a plain
//! parallel loop — measured on the **host**.
//!
//! This figure is about abstraction cost, not about T2 memory behaviour,
//! so the honest reproduction is a native measurement: the same vector
//! triad kernel through (a) a plain pooled `parallel_for` over slices and
//! (b) `SegArray` segments dispatched per worker (the paper's manual
//! ⌊N/t⌋+1 / ⌊N/t⌋ scheduling). The paper finds the overhead "negligible
//! even for tight loops like the vector triad", visible only at small N.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin fig5_overhead
//! cargo run --release -p t2opt-bench --bin fig5_overhead -- --threads 8 --ntimes 9
//! ```

use t2opt_bench::experiments::fig5_series;
use t2opt_bench::{write_json, Args, Table};
use t2opt_parallel::{chunk_assignment, Placement, Schedule, ThreadPool};

/// Simulator variant: the same vector triad with and without a modelled
/// per-segment dispatch overhead (function call + iterator construction,
/// ~30 cycles — deliberately generous). The paper's point holds *a
/// fortiori*: at bandwidth-bound sizes a constant per-segment cost
/// disappears into the memory time.
fn sim_variant(ns: &[usize]) {
    use t2opt_kernels::common::{place_threads, VirtualAlloc};
    use t2opt_sim::trace::{sweep_programs, Op, StreamLoop, StreamSpec};
    use t2opt_sim::{ChipConfig, Simulation};

    let chip = ChipConfig::ultrasparc_t2();
    let threads = 64;
    let mut table = Table::new(vec![
        "N",
        "plain GB/s (sim)",
        "segmented GB/s (sim)",
        "overhead %",
    ]);
    for &n in ns {
        let run = |dispatch_overhead: u32| {
            let mut va = VirtualAlloc::new();
            let bytes = n as u64 * 8;
            let a = va.alloc(bytes, 8192, 0);
            let b = va.alloc(bytes, 8192, 128);
            let c = va.alloc(bytes, 8192, 256);
            let d = va.alloc(bytes, 8192, 384);
            let assignment = chunk_assignment(Schedule::Static, n, threads);
            let sweep = || {
                let mut loops = Vec::new();
                for (tid, chunks) in assignment.iter().enumerate() {
                    for ch in chunks {
                        let off = ch.start as u64 * 8;
                        let head = (dispatch_overhead > 0).then_some(Op::Delay(dispatch_overhead));
                        let streams = vec![
                            StreamSpec::load(b + off),
                            StreamSpec::load(c + off),
                            StreamSpec::load(d + off),
                            StreamSpec::store(a + off),
                        ];
                        let body = StreamLoop::new(streams, ch.len(), 8, 2.0, 64);
                        loops.push((tid, head.into_iter().chain(body)));
                    }
                }
                loops
            };
            let programs = sweep_programs(threads, vec![sweep(), sweep()]);
            let specs = place_threads(programs, &Placement::t2_scatter(), chip.core.n_cores);
            let sim = Simulation::new(chip.clone()).measure_after_barrier(0);
            let stats = sim.run(specs);
            stats.reported_bandwidth_gbs(&chip, n as u64 * 32)
        };
        let plain = run(0);
        let seg = run(30);
        table.row(vec![
            n.to_string(),
            format!("{plain:.2}"),
            format!("{seg:.2}"),
            format!("{:+.1}", (plain / seg - 1.0) * 100.0),
        ]);
    }
    table.print();
}

fn main() {
    let args = Args::from_env();
    let threads: usize = args.get(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    );
    let ntimes: usize = args.get("ntimes", 5);
    let pool = ThreadPool::with_placement(threads, Placement::Scatter { n_cores: threads });

    // Log-scan N from 10³ to 10⁷ like the paper's x-axis.
    let mut ns = Vec::new();
    let mut n = 1000usize;
    while n <= 10_000_000 {
        ns.push(n);
        ns.push(n * 2);
        ns.push(n * 5);
        n *= 10;
    }
    ns.retain(|&x| x <= 10_000_000);

    eprintln!(
        "fig5: segmented-iterator overhead on the host, {threads} threads, best of {ntimes}+1 runs"
    );
    let rows = fig5_series(&pool, &ns, ntimes);

    let mut table = Table::new(vec!["N", "plain GB/s", "segmented GB/s", "overhead %"]);
    for r in &rows {
        table.row(vec![
            r.n.to_string(),
            format!("{:.2}", r.plain_gbs),
            format!("{:.2}", r.segmented_gbs),
            format!("{:+.1}", r.overhead_pct),
        ]);
    }
    table.print();

    // The paper's conclusion: overhead negligible at large N.
    let large: Vec<&_> = rows.iter().filter(|r| r.n >= 1_000_000).collect();
    if !large.is_empty() {
        let mean_overhead: f64 =
            large.iter().map(|r| r.overhead_pct).sum::<f64>() / large.len() as f64;
        println!("\nmean overhead for N ≥ 10^6: {mean_overhead:+.1} % (paper: negligible)");
    }

    if args.has_flag("sim") {
        println!("\nsimulator variant (64 threads, optimal offsets, 30-cycle dispatch):");
        sim_variant(&[10_000, 100_000, 1_000_000]);
    }

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
