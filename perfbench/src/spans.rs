//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the t2opt crates from the benchmark's
//! own code (nothing inside the crates is instrumented), kept in memory
//! while the run measures, and written out once it ends. A disabled
//! recorder (the untraced run) only runs the closures.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `engine.run`; the layer is the part before the
    /// first dot.
    pub name: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds each layer spent in its own spans, excluding time in child
    /// spans (whatever their layer).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end_us - s.start_us - child) / 1e6;
        }
        out
    }

    /// The spans as a JSON array of `{name, start_us, end_us, parent}`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{}}}"#,
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut spans = Spans::new(true);
        spans.time("engine.run", |s| {
            s.time("l2.replay", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let recs = spans.spans();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].parent, None);
        assert_eq!(recs[1].parent, Some(0));
        assert!(recs.iter().all(|s| s.end_us >= s.start_us));
        let selfs = spans.self_seconds();
        assert!(selfs["l2"] >= 0.005);
        assert!(selfs["engine"] >= 0.0 && selfs["engine"] < selfs["l2"]);
    }

    #[test]
    fn disabled_recorder_runs_closures_without_recording() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("engine.run", |_| 7), 7);
        assert!(spans.spans().is_empty());
        assert_eq!(spans.to_json(), "[]");
    }
}
