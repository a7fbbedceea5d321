//! Regenerates the engine's differential-pinning golden files
//! (`tests/golden/policy_fifo.json`, `tests/golden/policy_arbitrated.json`)
//! from the matrices defined in `t2opt::golden`. They are the ground truth
//! `tests/policy_differential.rs` holds the engine to. Re-run this only
//! when a matrix itself is intentionally extended — never to "fix" a
//! differential failure, which is a real regression in the engine's
//! pinned behavior.
//!
//! ```text
//! cargo run --release --example policy_golden
//! ```

use t2opt::golden::{
    run_matrix, run_policy_matrix, GoldenCase, GoldenFile, GOLDEN_PATH, POLICY_GOLDEN_PATH,
};

fn main() {
    std::fs::create_dir_all("tests/golden").expect("create tests/golden");
    for (path, matrix) in [
        (GOLDEN_PATH, run_matrix()),
        (POLICY_GOLDEN_PATH, run_policy_matrix()),
    ] {
        let cases: Vec<GoldenCase> = matrix
            .into_iter()
            .map(|(name, stats)| GoldenCase { name, stats })
            .collect();
        eprintln!("captured {} matrix cases", cases.len());
        for c in &cases {
            eprintln!(
                "  {:48} cycles {:8}  misses {:7}  nacks {:6}",
                c.name,
                c.stats.cycles(),
                c.stats.l2_misses,
                c.stats.nacks
            );
        }
        t2opt_core::json::write_json(path, &GoldenFile { cases }).expect("write golden file");
        eprintln!("wrote {path}");
    }
}
