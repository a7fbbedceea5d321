//! The engine's differential-pinning matrices.
//!
//! The `QueuePolicy` refactor (DESIGN.md §13) moved memory-controller
//! service-time decisions out of the enqueue path and into an arbitration
//! step, with the historical FIFO discipline as the pinned default. The
//! contract is *bitwise* equality: under `PolicyKind::Fifo` every
//! [`SimStats`] field must match the pre-refactor engine exactly, on every
//! registered chip preset, for read-heavy and write-heavy workloads, on
//! both the probe-off and the traced path.
//!
//! A second matrix, [`run_policy_matrix`], pins what the FIFO matrix does
//! not reach (the arbitrated back end, the NUMA presets); it was captured
//! before the engine's two back ends came to share one memory-op front
//! end. `examples/policy_golden.rs` regenerates both committed files;
//! `tests/policy_differential.rs` compares against them field by field.
//!
//! The matrix shrinks each preset's L2 to 256 KiB so the 3 × 256 KiB STREAM
//! arrays overflow it and the memory controllers — the refactored layer —
//! see real traffic at a tier-1-friendly problem size. The aliasing lives
//! in the controller mapping, which the cache size does not touch. Two
//! stock-T2 cases (the Fig. 4 layout extremes at 64 threads) cover the
//! unshrunk calibrated machine.

use t2opt_core::chip::PRESET_NAMES;
use t2opt_core::json::{JsonValue, ToJson};
use t2opt_core::mapping::PagePlacement;
use t2opt_kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt_kernels::triad::{self, TriadConfig, TriadLayout};
use t2opt_parallel::Placement;
use t2opt_sim::policy::PolicyKind;
use t2opt_sim::{ChipConfig, SimStats};

/// Where the committed pre-refactor capture lives, relative to the
/// workspace root.
pub const GOLDEN_PATH: &str = "tests/golden/policy_fifo.json";

/// Where the committed arbitrated + NUMA capture ([`run_policy_matrix`])
/// lives, relative to the workspace root.
pub const POLICY_GOLDEN_PATH: &str = "tests/golden/policy_arbitrated.json";

/// Serialized envelope of one matrix capture.
#[derive(ToJson)]
pub struct GoldenFile {
    /// All matrix cases, in matrix order.
    pub cases: Vec<GoldenCase>,
}

/// One (workload, chip) cell of the matrix.
#[derive(ToJson)]
pub struct GoldenCase {
    /// Stable case name, `<preset>/<workload>`.
    pub name: String,
    /// The statistics the FIFO engine produced for it.
    pub stats: SimStats,
}

/// The preset config with the L2 shrunk to 256 KiB (see module docs).
fn shrunk(preset: &str) -> ChipConfig {
    let mut c = ChipConfig::preset(preset).expect("registry preset resolves");
    c.l2.bytes = 1 << 18;
    c
}

fn scatter(chip: &ChipConfig) -> Placement {
    Placement::Scatter {
        n_cores: chip.core.n_cores,
    }
}

/// One `n`-element STREAM run on `chip` (≤ 16 scattered threads).
fn stream_stats(chip: &ChipConfig, n: usize, kernel: StreamKernel, offset: usize) -> SimStats {
    stream::run_sim(
        &StreamConfig::fig2(n, offset, chip.max_threads().min(16)),
        kernel,
        chip,
        &scatter(chip),
    )
    .stats
}

/// Runs the full FIFO matrix and returns `(name, stats)` per case.
pub fn run_matrix() -> Vec<(String, SimStats)> {
    let mut out = Vec::new();
    for preset in PRESET_NAMES {
        // The golden file is a *pre-NUMA* capture: it pins the single-socket
        // engine bitwise. NUMA presets are pinned by [`run_policy_matrix`].
        let chip = shrunk(preset);
        if chip.numa.is_numa() {
            continue;
        }
        let threads = chip.max_threads().min(16);
        let run = |kernel, offset: usize| stream_stats(&chip, 1 << 15, kernel, offset);
        // Read-heavy, fully aliased / advisor-spread, plus a write-heavy
        // kernel: the three MC service regimes (north-bound convoy, spread
        // pipelining, south-bound pressure).
        out.push((
            format!("{preset}/triad-aliased"),
            run(StreamKernel::Triad, 0),
        ));
        out.push((
            format!("{preset}/triad-spread"),
            run(StreamKernel::Triad, 16),
        ));
        out.push((format!("{preset}/copy-8"), run(StreamKernel::Copy, 8)));
        // The probe path: a traced run must produce the same statistics.
        let (traced, _) = stream::run_sim_traced(
            &StreamConfig::fig2(1 << 15, 0, threads),
            StreamKernel::Triad,
            &chip,
            &scatter(&chip),
            4096,
        );
        out.push((format!("{preset}/triad-aliased-traced"), traced.stats));
    }
    // Stock calibrated T2 at full thread count: the Fig. 4 layout extremes.
    let chip = ChipConfig::ultrasparc_t2();
    for (label, layout) in [
        ("align8k", TriadLayout::Align8k),
        ("offset128", TriadLayout::AlignOffset(128)),
    ] {
        let cfg = TriadConfig {
            n: 1 << 14,
            layout,
            threads: 64,
            ntimes: 1,
        };
        out.push((
            format!("t2-stock/triad64-{label}"),
            triad::run_sim(&cfg, &chip, &Placement::t2_scatter()).stats,
        ));
    }
    out
}

/// Runs the arbitrated + NUMA matrix and returns `(name, stats)` per case.
/// Its triads run half the FIFO matrix's size (3 × 128 KiB, still 1.5×
/// the shrunk L2); its copies keep the full size, because 2 × 128 KiB
/// would fit the L2. That keeps the 30 cases about as cheap as the FIFO
/// matrix's 18:
///
/// * every single-socket preset × {`read-first`, `fr-fcfs`} × {aliased
///   triad, write-heavy copy} — the arbitration step, starvation caps,
///   NACK parking and write-back admission;
/// * the T2 with 4 outstanding load misses × {`fifo`, `fr-fcfs`} on the
///   spread triad — hit-under-miss budgets on both back ends;
/// * every NUMA preset × {first-touch, interleave, remote} × {`fifo`,
///   `read-first`} on the aliased triad — the controller remap, the remote
///   read and write-back link crossings on both service paths.
pub fn run_policy_matrix() -> Vec<(String, SimStats)> {
    let mut out = Vec::new();
    let numa = |preset: &str| shrunk(preset).numa.is_numa();
    for preset in PRESET_NAMES.into_iter().filter(|p| !numa(p)) {
        for policy in ["read-first", "fr-fcfs"] {
            let mut chip = shrunk(preset);
            chip.policy = PolicyKind::parse(policy).expect("registry policy parses");
            out.push((
                format!("{preset}/{policy}/triad-aliased"),
                stream_stats(&chip, 1 << 14, StreamKernel::Triad, 0),
            ));
            out.push((
                format!("{preset}/{policy}/copy-8"),
                stream_stats(&chip, 1 << 15, StreamKernel::Copy, 8),
            ));
        }
    }
    // Hit-under-miss (4 outstanding load misses) on both back ends: their
    // budgets wake on different entries once completions leave order.
    for policy in ["fifo", "fr-fcfs"] {
        let mut chip = shrunk("ultrasparc-t2");
        chip.core.outstanding_misses = 4;
        chip.policy = PolicyKind::parse(policy).expect("registry policy parses");
        out.push((
            format!("ultrasparc-t2/{policy}/outstanding-4/triad-spread"),
            stream_stats(&chip, 1 << 14, StreamKernel::Triad, 16),
        ));
    }
    for preset in PRESET_NAMES.into_iter().filter(|p| numa(p)) {
        for placement in PagePlacement::ALL {
            for policy in ["fifo", "read-first"] {
                let mut chip = shrunk(preset);
                chip.placement = placement;
                chip.policy = PolicyKind::parse(policy).expect("registry policy parses");
                out.push((
                    format!("{preset}/{}/{policy}/triad-aliased", placement.label()),
                    stream_stats(&chip, 1 << 14, StreamKernel::Triad, 0),
                ));
            }
        }
    }
    out
}

/// `stats` in the parsed JSON form a golden file stores them in. Two of
/// these compare every [`SimStats`] field with `==`; a field `SimStats`
/// gains later shows up on one side only, so it is flagged, not defaulted.
pub fn stats_json(stats: &SimStats) -> JsonValue {
    t2opt_core::json::parse_json(&t2opt_core::json::to_json_string(stats))
        .expect("serialized stats parse")
}

/// Loads a committed golden file as `(name, stats)` pairs, the stats in
/// the form [`stats_json`] gives.
pub fn load_golden(path: &std::path::Path) -> Vec<(String, JsonValue)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    let doc = t2opt_core::json::parse_json(&text).expect("golden file parses");
    let cases = doc
        .as_object()
        .and_then(|o| o.get("cases"))
        .and_then(JsonValue::as_array)
        .expect("golden file has a cases array");
    cases
        .iter()
        .map(|c| {
            let obj = c.as_object().expect("case is an object");
            let name = obj.get("name").and_then(JsonValue::as_str);
            let stats = obj.get("stats").expect("case has stats").clone();
            (name.expect("case has a name").to_string(), stats)
        })
        .collect()
}
