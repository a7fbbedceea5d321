//! The t2opt repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2-triad|fig6-jacobi|advise --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run sets up several times (the
//! median is `setup_s`), then repeats passes of the workload until `S`
//! seconds have been measured and reports medians over the passes. Host
//! time is gated in units of a fixed reference computation run after each
//! unit of work ([`hostref`]), which cancels most of a shared host's speed
//! swings; raw seconds are recorded beside it. Every pass is checked; any
//! failed check makes the run exit non-zero.
//!
//! * `--trace 0` prints the end-to-end metrics ([`report::END_TO_END`]).
//! * `--trace 1` adds one traced pass — spans around each call into the
//!   t2opt crates, the engine probe, trace/L2/controller replays and the
//!   advice-session replays — and prints the per-layer metrics
//!   ([`report::PER_LAYER`]) with `trace_overhead`, the traced pass's
//!   host time over that of the untraced pass just before it.
//!
//! Output: a record line (provenance, per-point GB/s with `SimStats`
//! digests and the paper reference, check results) and, last, the result
//! line. The record and the spans are also written to
//! `perfbench/out/<workload>-seed<N>-trace<T>.json`.

mod advise;
mod hostref;
mod layers;
mod report;
mod simwork;
mod spans;
mod stats;

use hostref::HostRef;
use layers::EngineTotals;
use report::{Values, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use t2opt_sim::ChipConfig;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig2-triad", "fig6-jacobi", "advise"];

/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 9;
/// Daemon set-ups timed per `advise` run: one takes about 0.1 ms and
/// varies by half of that, so many samples steady the median.
const ADVISE_SETUP_REPS: usize = 201;
/// Repetitions of the per-trial micro-measurements.
const MICRO_REPS: usize = 201;

/// Correctness checks of a run, feeding `attempted`/`failed`.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: u64,
    /// Names of the checks that failed at least once.
    failed: Vec<String>,
}

impl Checks {
    /// Records one named check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.requests(name, 1, u64::from(!ok));
    }

    /// Records `n` requests checked under one name, `bad` of which failed.
    pub fn requests(&mut self, name: &str, n: u64, bad: u64) {
        self.attempted += n;
        self.failures += bad;
        if bad > 0 && !self.failed.iter().any(|f| f == name) {
            self.failed.push(name.to_string());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run hands back to `main`.
struct Outcome {
    values: Values,
    checks: Checks,
    /// Workload-specific part of the record line (JSON object).
    record: String,
    passes: usize,
    spans: Spans,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let outcome = match args.workload.as_str() {
        "advise" => run_advise(args.seed, budget, args.trace),
        w => run_sim(w, budget, args.trace),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        outcome.values.insert("peak_rss_mb", peak_rss_mb());
    }
    let checks = &outcome.checks;
    let failed = checks.failures;
    let record = format!(
        r#"{{"workload":"{}","seed":{},"seed_changes_inputs":{},"trace":{},"passes":{},"error_rate":{},"failed_checks":[{}],"result":{},"provenance":{}}}"#,
        args.workload,
        args.seed,
        args.workload == "advise",
        args.trace,
        outcome.passes,
        failed as f64 / checks.attempted.max(1) as f64,
        checks
            .failed
            .iter()
            .map(|f| format!("{f:?}"))
            .collect::<Vec<_>>()
            .join(","),
        outcome.record,
        provenance(args.seed, t0.elapsed().as_secs_f64()),
    );
    println!("{record}");
    write_out(&args, &record, &outcome.spans);
    for f in &checks.failed {
        eprintln!("perfbench: check failed: {f}");
    }
    match report::result_line(failed == 0, checks.attempted, failed, defs, &outcome.values) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Host time of a run's measured passes. "Work" is the part that runs
/// simulations: the whole pass for the simulator workloads, the refine
/// phase for `advise`.
#[derive(Default)]
struct Timing {
    wall_s: Vec<f64>,
    work_s: Vec<f64>,
}

impl Timing {
    /// The end-to-end metrics: medians over the passes, host time in units
    /// of the run's median reference chunk (`unit` seconds, see
    /// [`hostref`]); `ops` and `sims` are the simulated memory ops and
    /// simulations of one pass.
    fn write(&self, values: &mut Values, setup_s: &[f64], unit: f64, ops: f64, sims: f64) {
        let work = median(&self.work_s) / unit;
        values.insert("setup_s", median(setup_s));
        values.insert("wall_ref", median(&self.wall_s) / unit);
        values.insert("sim_ops_per_ref", ops / work);
        values.insert("trials_per_kref", 1e3 * sims / work);
    }

    /// The same figures in raw host time, for the record.
    fn record(&self, setup_s: &[f64], unit: f64, ops: f64, sims: f64) -> String {
        let work = median(&self.work_s);
        format!(
            r#""setup_s":{:?},"pass_wall_s":{:?},"ref_unit_s":{unit},"wall_s":{},"sim_mops_per_s":{},"trials_per_s":{}"#,
            setup_s,
            self.wall_s,
            median(&self.wall_s),
            ops / work / 1e6,
            sims / work,
        )
    }
}

/// Host time of the traced pass over that of the untraced pass just before
/// it: adjacent passes see nearly the same host speed.
fn trace_overhead(traced_s: f64, timing: &Timing) -> f64 {
    traced_s / timing.wall_s.last().expect("at least one untraced pass")
}

/// `fig2-triad` / `fig6-jacobi`.
fn run_sim(workload: &str, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(simwork::prepare(workload));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");
    let ops = simwork::pass_ops(&p) as f64;

    let mut checks = Checks::default();
    let mut host = HostRef::new();
    let mut untraced = Spans::new(false);
    let mut unused = EngineTotals::default();
    let mut passes: Vec<simwork::Pass> = Vec::new();
    let mut timing = Timing::default();
    let t = Instant::now();
    while passes.is_empty() || t.elapsed() < budget {
        let pass = simwork::run_pass(&p, &mut host, &mut untraced, &mut unused);
        simwork::check_pass(&p, &pass, passes.first(), &mut checks);
        timing.wall_s.push(pass.wall_s());
        passes.push(pass);
    }
    timing.work_s = timing.wall_s.clone();
    let sims = passes[0].secs.len() as f64;

    let mut values = Values::new();
    let mut spans = Spans::new(trace);
    if trace {
        let mut totals = EngineTotals::default();
        let traced = simwork::run_pass(&p, &mut host, &mut spans, &mut totals);
        simwork::check_pass(&p, &traced, passes.first(), &mut checks);
        totals.write(&mut values);
        values.insert("trace_overhead", trace_overhead(traced.wall_s(), &timing));
        // The service layers, which these workloads do not drive, come
        // from one advice session so every layer is measured in every run.
        service_probe(&mut spans, &mut values, &mut checks)?;
        micro_metrics(&mut values);
        self_times(&spans, &mut values);
    } else {
        timing.write(&mut values, &setup_s, host.unit(), ops, sims);
    }
    let record = format!(
        r#"{{"deterministic":true,{},"sim":{}}}"#,
        timing.record(&setup_s, host.unit(), ops, sims),
        simwork::record(&p, &passes[0])
    );
    Ok(Outcome {
        values,
        checks,
        record,
        passes: passes.len(),
        spans,
    })
}

/// `advise`.
fn run_advise(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let plan = advise::plan(seed);
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    for _ in 0..ADVISE_SETUP_REPS {
        let t = Instant::now();
        let live = advise::start();
        setup_s.push(t.elapsed().as_secs_f64());
        live.stop();
    }
    let mut host = HostRef::new();
    let mut untraced = Spans::new(false);
    let mut passes: Vec<advise::Pass> = Vec::new();
    let mut timing = Timing::default();
    let t = Instant::now();
    while passes.is_empty() || t.elapsed() < budget {
        let mut live = advise::start();
        let (pass, secs) =
            host.time(|| advise::run_pass(&mut live, &plan, &mut untraced, &mut checks));
        live.stop();
        if let Some(first) = passes.first() {
            checks.check(
                "refined answers repeat across passes",
                first.answers_digest() == pass.answers_digest(),
            );
            checks.check(
                "simulation count repeats across passes",
                first.sims == pass.sims,
            );
        }
        timing.wall_s.push(secs);
        timing.work_s.push(pass.phase_s[1]);
        passes.push(pass);
    }
    let trials = advise::simulated_trials(&plan, &passes[0].trials);
    let ops = advise::trial_ops(&trials) as f64;
    let sims = passes[0].sims as f64;
    let enumerated = trials.len() == passes[0].trials.len();
    if !enumerated {
        eprintln!(
            "perfbench: recovered {} of {} refined trials; sim_ops_per_ref undercounts",
            trials.len(),
            passes[0].trials.len()
        );
    }

    let mut values = Values::new();
    let mut spans = Spans::new(trace);
    if trace {
        let mut live = advise::start();
        let t = Instant::now();
        let traced = advise::run_pass(&mut live, &plan, &mut spans, &mut checks);
        values.insert(
            "trace_overhead",
            trace_overhead(t.elapsed().as_secs_f64(), &timing),
        );
        advise::layer_metrics(&live, &plan, &traced, &mut spans, &mut values)?;
        live.stop();
        let mut totals = EngineTotals::default();
        advise::replay_trials(
            &trials,
            &traced.trials,
            &mut spans,
            &mut totals,
            &mut checks,
        );
        totals.write(&mut values);
        micro_metrics(&mut values);
        self_times(&spans, &mut values);
    } else {
        timing.write(&mut values, &setup_s, host.unit(), ops, sims);
    }
    let record = format!(
        r#"{{"deterministic":false,{},"trials_enumerated":{enumerated},"advise":{}}}"#,
        timing.record(&setup_s, host.unit(), ops, sims),
        advise::record(&passes[0], sims as u64, ops as u64)
    );
    Ok(Outcome {
        values,
        checks,
        record,
        passes: passes.len(),
        spans,
    })
}

/// One traced advice session for the service layers of a simulator
/// workload (seed 1, so it is the same session in every run).
fn service_probe(
    spans: &mut Spans,
    values: &mut Values,
    checks: &mut Checks,
) -> Result<(), String> {
    let plan = advise::plan(1);
    let mut live = advise::start();
    let pass = advise::run_pass(&mut live, &plan, spans, checks);
    let out = advise::layer_metrics(&live, &plan, &pass, spans, values);
    live.stop();
    out
}

/// Per-trial fixed costs, measured the same way in every workload.
fn micro_metrics(values: &mut Values) {
    let chip = ChipConfig::ultrasparc_t2();
    values.insert(
        "engine.fixed_us",
        layers::engine_fixed_us(&chip, MICRO_REPS),
    );
    values.insert("l2.new_us", layers::l2_new_us(&chip, MICRO_REPS));
}

/// Span self time per layer (0 for a layer with no spans in this run).
fn self_times(spans: &Spans, values: &mut Values) {
    let selfs = spans.self_seconds();
    for d in PER_LAYER.iter().filter(|d| d.name.starts_with("self_s.")) {
        let layer = &d.name["self_s.".len()..];
        values.insert(d.name, selfs.get(layer).copied().unwrap_or(0.0));
    }
}

/// Peak resident set of this process, MB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Git revision (when run from a git checkout), a digest of the workspace
/// sources (always), host cores, build profile, rustc version, seed and
/// the run's wall time.
fn provenance(seed: u64, wall_s: f64) -> String {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let git = cmd("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        r#"{{"git_rev":"{git}","source_fnv":"{}","host_cores":{cores},"profile":"{profile}","rustc":"{rustc}","seed":{seed},"wall_s":{wall_s:.3},"unix_time":{unix}}}"#,
        source_digest()
    )
}

/// FNV-1a over the workspace's Rust sources and manifests, in path order.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    t2opt_store::fnv1a64_hex(&bytes)
}

/// Writes the record and the spans to `perfbench/out/`.
fn write_out(args: &Args, record: &str, spans: &Spans) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let doc = format!(r#"{{"record":{record},"spans":{}}}"#, spans.to_json());
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::Checks;

    #[test]
    fn checks_count_every_failed_request_and_name_each_failed_check_once() {
        let mut checks = Checks::default();
        checks.check("ordering", true);
        checks.requests("warm tier", 100, 3);
        checks.requests("warm tier", 100, 1);
        checks.check("ordering", false);
        assert_eq!(checks.attempted, 202);
        assert_eq!(checks.failures, 5);
        assert_eq!(checks.failed, ["warm tier", "ordering"]);
    }
}
