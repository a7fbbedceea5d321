//! Ablation A1: what if the T2's controller selection were not the naive
//! bits-8:7 slice?
//!
//! Re-runs the Fig. 2 worst case (offset 0) and best case (offset 16 =
//! 128 B) under three mapping policies: the real bit-sliced interleave, an
//! XOR-folded hash (as used by later chip generations), and page-granular
//! interleave. The XOR fold destroys the congruence classes that cause the
//! aliasing, so the offset dependence should largely vanish — quantifying
//! how much of the paper's problem is the mapping itself.
//!
//! ```text
//! cargo run --release -p t2opt-bench --bin ablation_mapping
//! ```

use t2opt_bench::{write_json, Args, Table};
use t2opt_core::json::ToJson;
use t2opt_core::mapping::{AddressMap, MapPolicy};
use t2opt_kernels::stream::{run_sim, StreamConfig, StreamKernel};
use t2opt_parallel::Placement;
use t2opt_sim::ChipConfig;

fn main() {
    let args = Args::from_env();
    let n: usize = args.get("n", 1 << 21);
    let threads: usize = args.get("threads", 64);

    let policies: Vec<(&str, MapPolicy)> = vec![
        ("sliced (real T2)", MapPolicy::t2()),
        (
            "xor-fold",
            MapPolicy::XorFold {
                base: AddressMap::ultrasparc_t2(),
                folds: 10,
            },
        ),
        (
            "page 4k",
            MapPolicy::PageInterleave {
                base: AddressMap::ultrasparc_t2(),
                page: 4096,
            },
        ),
    ];

    let mut table = Table::new(vec![
        "mapping",
        "offset 0 GB/s",
        "offset 16 GB/s",
        "sensitivity",
    ]);
    #[derive(ToJson)]
    struct Row {
        mapping: String,
        worst_gbs: f64,
        best_gbs: f64,
        sensitivity: f64,
    }
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let mut chip = ChipConfig::ultrasparc_t2();
        chip.map = policy;
        let bw = |offset: usize| {
            let cfg = StreamConfig::fig2(n, offset, threads);
            run_sim(&cfg, StreamKernel::Triad, &chip, &Placement::t2_scatter()).reported_gbs
        };
        let worst = bw(0);
        let best = bw(16);
        table.row(vec![
            name.to_string(),
            format!("{worst:.2}"),
            format!("{best:.2}"),
            format!("{:.2}×", best / worst),
        ]);
        rows.push(Row {
            mapping: name.to_string(),
            worst_gbs: worst,
            best_gbs: best,
            sensitivity: best / worst,
        });
    }
    table.print();
    println!("\nsensitivity = best/worst; 1.0 = mapping makes offsets irrelevant");

    if let Some(path) = args.get_str("json") {
        write_json(path, &rows).expect("failed to write JSON");
        eprintln!("wrote {path}");
    }
}
