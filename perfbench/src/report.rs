//! The metric registry and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of truth for
//! metric names and units; `BENCHMARK.json` at the repository root must
//! list exactly the same metrics (a unit test holds the two together).

use std::collections::BTreeMap;

// `better`, `bound` and `as_str` are what `BENCHMARK.json` declares; only
// the consistency test reads them.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed regression as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics every workload reports in an untraced run (`--trace 0`). Host
/// time is gated in units of the run's median reference chunk (see
/// `hostref`): `wall_ref` is one pass, `sim_ops_per_ref` the simulated
/// memory ops and `trials_per_kref` the simulations per unit (per 1000
/// units) of the pass's simulating part. Raw seconds go to the record.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_ref", "ref", Lower, 0.2),
    e2e("sim_ops_per_ref", "op/ref", Higher, 0.2),
    e2e("trials_per_kref", "1/kref", Higher, 0.2),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Metrics every workload reports in a traced run (`--trace 1`), grouped
/// by the layer they attribute.
pub const PER_LAYER: &[MetricDef] = &[
    // t2opt-kernels: trace generation alone.
    layer("kernels.trace_ns_per_op", "ns", Lower),
    // t2opt-sim engine.
    layer("engine.run_s", "s", Lower),
    layer("engine.ns_per_op", "ns", Lower),
    layer("engine.mem_ops", "count", Higher),
    layer("engine.nacks_per_op", "nack/op", Lower),
    layer("engine.sim_cycles", "cycles", Lower),
    layer("engine.stall_cycles.nack", "cycles", Lower),
    layer("engine.stall_cycles.load_miss", "cycles", Lower),
    layer("engine.stall_cycles.pipe", "cycles", Lower),
    layer("engine.stall_cycles.barrier", "cycles", Lower),
    // t2opt-sim per-trial setup.
    layer("engine.fixed_us", "us", Lower),
    layer("l2.new_us", "us", Lower),
    // t2opt-sim L2 model.
    layer("l2.ns_per_access", "ns", Lower),
    layer("l2.hit_rate", "ratio", Higher),
    layer("l2.accesses", "count", Higher),
    layer("l2.writebacks", "count", Lower),
    // t2opt-sim memory controllers (simulated time) and their host cost.
    layer("mc.services", "count", Higher),
    layer("mc.queue_len.mean", "count", Lower),
    layer("mc.busy_share", "ratio", Higher),
    layer("mc.balance", "ratio", Higher),
    layer("mc.ns_per_service", "ns", Lower),
    // t2opt-model through the autotune surrogate.
    layer("model.predict_us", "us", Lower),
    layer("model.rel_error", "ratio", Lower),
    // t2opt-autotune refinement.
    layer("tune.sims", "count", Lower),
    layer("tune.sims_per_job", "count", Lower),
    layer("tune.cache_hit_ratio", "ratio", Higher),
    // t2opt-store.
    layer("store.get_us.p50", "us", Lower),
    layer("store.update_us.p50", "us", Lower),
    layer("store.entries", "count", Higher),
    layer("store.lock_wait_us", "us", Lower),
    // t2opt-serve and its HTTP front end.
    layer("serve.handle_us.p50", "us", Lower),
    layer("serve.handle_us.p99", "us", Lower),
    layer("http.overhead_us.p50", "us", Lower),
    layer("refine.queue_dropped", "count", Lower),
    // The advice session's user-visible latencies.
    layer("advise_cold_us.p50", "us", Lower),
    layer("advise_cold_us.p90", "us", Lower),
    layer("advise_warm_us.p50", "us", Lower),
    layer("advise_warm_us.p99", "us", Lower),
    layer("refine_ms.p50", "ms", Lower),
    layer("refine_ms.p90", "ms", Lower),
    // Span self time per layer, and what tracing itself costs: the traced
    // pass's raw host time over the untraced pass before it (the host's own
    // swings between adjacent passes, about ±10%, are in it too).
    layer("self_s.kernels", "s", Lower),
    layer("self_s.engine", "s", Lower),
    layer("self_s.l2", "s", Lower),
    layer("self_s.mc", "s", Lower),
    layer("self_s.model", "s", Lower),
    layer("self_s.autotune", "s", Lower),
    layer("self_s.store", "s", Lower),
    layer("self_s.serve", "s", Lower),
    layer("self_s.http", "s", Lower),
    layer("trace_overhead", "ratio", Lower),
];

/// Metric values collected by a run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The run's last stdout line: `{"correct", "attempted", "failed",
/// "metrics"}` with exactly the metrics in `defs`. Fails when a metric is
/// missing, unknown or not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric {extra} is not in the registry"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = *values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        // `{v}` prints the shortest decimal that reads back as exactly `v`,
        // never in exponent form, so every digit survives.
        metrics.push(format!(
            r#""{}":{{"value":{v},"unit":"{}"}}"#,
            d.name, d.unit
        ));
    }
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2opt_core::json::{parse_json, JsonValue};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_valid_unique_name_and_unit() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} for {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric names");
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    fn metric_list(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.as_object().unwrap()[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let o = m.as_object().unwrap();
                (
                    o["name"].as_str().unwrap().to_string(),
                    o["unit"].as_str().unwrap().to_string(),
                    o["better"].as_str().unwrap().to_string(),
                    o.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    fn registry(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        assert_eq!(metric_list(&doc, "end_to_end"), registry(END_TO_END));
        assert_eq!(metric_list(&doc, "per_layer"), registry(PER_LAYER));
        let workloads: Vec<&str> = doc.as_object().unwrap()["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.as_object().unwrap()["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric_with_name_and_unit() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, [0.123456789012345, 1e-7, 3.0, 2e21, 61.98][i % 5]))
            .collect();
        let line = result_line(true, 7, 0, END_TO_END, &values).unwrap();
        let doc = parse_json(&line).unwrap();
        let top = doc.as_object().unwrap();
        let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
        keys.sort();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(top["attempted"].as_f64(), Some(7.0));
        let metrics = top["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for d in END_TO_END {
            let m = metrics[d.name].as_object().unwrap();
            assert_eq!(m["unit"].as_str(), Some(d.unit));
            assert_eq!(
                m["value"].as_f64(),
                Some(values[d.name]),
                "{} keeps every digit",
                d.name
            );
        }
    }

    #[test]
    fn result_line_rejects_missing_unknown_and_non_finite_values() {
        let mut values: Values = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        values.remove("wall_ref");
        assert!(result_line(true, 1, 0, END_TO_END, &values).is_err());
        values.insert("wall_ref", f64::NAN);
        assert!(result_line(true, 1, 0, END_TO_END, &values).is_err());
        values.insert("wall_ref", 1.0);
        values.insert("not_a_metric", 1.0);
        assert!(result_line(true, 1, 0, END_TO_END, &values).is_err());
    }
}
