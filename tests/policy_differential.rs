//! Differential pinning: the engine's statistics must stay **bitwise
//! identical** to the committed captures in `tests/golden/` — the FIFO
//! matrix (`policy_fifo.json`, captured before `QueuePolicy` existed) and
//! the arbitrated + NUMA matrix (`policy_arbitrated.json`, captured before
//! the two engine back ends shared one memory-op front end). See
//! `t2opt::golden` for the matrices. A mismatch is a regression in the
//! engine's pinned behavior, not a reason to regenerate a golden file.

use t2opt::golden::{
    load_golden, run_matrix, run_policy_matrix, stats_json, GOLDEN_PATH, POLICY_GOLDEN_PATH,
};
use t2opt::sim::policy::PolicyKind;
use t2opt::sim::SimStats;

/// Compares `current` against the committed golden file at `rel_path`.
fn assert_matches_golden(rel_path: &str, current: Vec<(String, SimStats)>) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    let golden = load_golden(&path);
    assert_eq!(
        golden.len(),
        current.len(),
        "matrix size drifted from {rel_path} — \
         extend the golden only via examples/policy_golden.rs"
    );
    let mut failures = Vec::new();
    for ((gname, gstats), (cname, cstats)) in golden.iter().zip(current.iter()) {
        assert_eq!(gname, cname, "matrix case order drifted");
        if *gstats != stats_json(cstats) {
            failures.push(format!("{cname}: golden {gstats:?} vs current {cstats:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "the engine is no longer bitwise identical to {rel_path} \
         ({} of {} cases differ):\n{}",
        failures.len(),
        golden.len(),
        failures.join("\n")
    );
}

#[test]
fn fifo_is_the_default_policy() {
    assert!(PolicyKind::default().is_fifo());
    assert!(t2opt::sim::ChipConfig::ultrasparc_t2().policy.is_fifo());
    for name in t2opt::core::chip::PRESET_NAMES {
        let c = t2opt::sim::ChipConfig::preset(name).expect("preset resolves");
        assert!(c.policy.is_fifo(), "preset {name} must default to FIFO");
    }
}

#[test]
fn fifo_stats_match_the_pre_refactor_golden_bitwise() {
    assert_matches_golden(GOLDEN_PATH, run_matrix());
}

#[test]
fn arbitrated_and_numa_stats_match_the_golden_bitwise() {
    assert_matches_golden(POLICY_GOLDEN_PATH, run_policy_matrix());
}
