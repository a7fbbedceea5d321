//! Time-resolved simulator telemetry: fixed-width cycle windows of per-MC
//! and per-bank activity, per-thread stall breakdowns, and a bounded event
//! log, assembled into a serializable [`Timeline`].
//!
//! The [`TimelineRecorder`] implements [`SimProbe`]: the engine calls its
//! hooks as requests are admitted, and the recorder buckets each
//! observation into the window `(cycle - origin) / interval`. The origin
//! follows the measurement window — a `window_reset` (warm-up barrier)
//! discards everything collected before it, mirroring
//! `SimStats::reset_window`.

use crate::metrics::RingLog;
use crate::probe::{SimProbe, StallKind};
use t2opt_core::json::ToJson;

/// A named address stream, used by the alias analysis to report *which*
/// arrays convoy (their congruence class mod 512 B is what matters).
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct StreamLabel {
    /// Human-readable stream name (e.g. `"B"` or `"src row 3"`).
    pub name: String,
    /// Byte base address of the stream.
    pub base: u64,
}

impl StreamLabel {
    /// A label for the stream starting at `base`.
    pub fn new(name: impl Into<String>, base: u64) -> Self {
        StreamLabel {
            name: name.into(),
            base,
        }
    }
}

/// Configuration of a traced simulation run.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Window width in cycles. Values near the per-controller convoy dwell
    /// (1–2k cycles on the calibrated T2) resolve the one-hot-MC rotation;
    /// the default is 1024.
    pub interval: u64,
    /// Labels of the address streams the run touches (optional; enables
    /// stream naming in the alias report).
    pub streams: Vec<StreamLabel>,
    /// Capacity of the bounded event log (NACKs, barrier releases).
    pub event_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            interval: 1024,
            streams: Vec::new(),
            event_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// A config with the given window width and defaults otherwise.
    pub fn with_interval(interval: u64) -> Self {
        TraceConfig {
            interval: interval.max(1),
            ..Default::default()
        }
    }

    /// Sets the stream labels.
    pub fn streams(mut self, streams: Vec<StreamLabel>) -> Self {
        self.streams = streams;
        self
    }
}

/// One fixed-width window of simulator activity.
#[derive(Debug, Clone, Default, PartialEq, Eq, ToJson)]
pub struct Window {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Channel-busy cycles charged per memory controller.
    pub mc_busy: Vec<u64>,
    /// NACKs per memory controller.
    pub mc_nacks: Vec<u64>,
    /// Peak controller input-queue occupancy observed per controller.
    pub mc_queue_peak: Vec<u64>,
    /// L2 accesses per bank.
    pub bank_accesses: Vec<u64>,
    /// Total memory operations retired in the window.
    pub mem_ops: u64,
}

impl Window {
    fn new(start_cycle: u64, n_mcs: usize, n_banks: usize) -> Self {
        Window {
            start_cycle,
            mc_busy: vec![0; n_mcs],
            mc_nacks: vec![0; n_mcs],
            mc_queue_peak: vec![0; n_mcs],
            bank_accesses: vec![0; n_banks],
            mem_ops: 0,
        }
    }

    /// Effective memory parallelism of the window: total MC busy cycles
    /// over the busiest controller's (∈ `[1, n_mcs]`; 0 when idle). A
    /// convoyed run sits near 1, a balanced one near the controller count.
    pub fn effective_parallelism(&self) -> f64 {
        let max = self.mc_busy.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        self.mc_busy.iter().sum::<u64>() as f64 / max as f64
    }

    /// Imbalance of the window: busiest controller over the mean (1.0 =
    /// even, `n_mcs` = one hotspot; 1.0 when idle).
    pub fn imbalance(&self) -> f64 {
        let max = self.mc_busy.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.mc_busy.iter().sum::<u64>() as f64 / self.mc_busy.len() as f64;
        max as f64 / mean
    }
}

/// Per-thread cycles lost to each stall cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, ToJson)]
pub struct ThreadStalls {
    /// Outstanding-load-miss budget.
    pub load_miss: u64,
    /// Full TSO store buffer.
    pub store_buffer: u64,
    /// Memory-pipe issue slot.
    pub pipe: u64,
    /// Shared-FPU serialization.
    pub fpu: u64,
    /// NACK retry backoff.
    pub nack: u64,
    /// Gang drift window.
    pub drift: u64,
    /// Barrier waits.
    pub barrier: u64,
}

impl ThreadStalls {
    fn add(&mut self, kind: StallKind, cycles: u64) {
        match kind {
            StallKind::LoadMiss => self.load_miss += cycles,
            StallKind::StoreBuffer => self.store_buffer += cycles,
            StallKind::Pipe => self.pipe += cycles,
            StallKind::Fpu => self.fpu += cycles,
            StallKind::Nack => self.nack += cycles,
            StallKind::Drift => self.drift += cycles,
            StallKind::Barrier => self.barrier += cycles,
        }
    }

    /// Total stalled cycles across all causes.
    pub fn total(&self) -> u64 {
        self.load_miss
            + self.store_buffer
            + self.pipe
            + self.fpu
            + self.nack
            + self.drift
            + self.barrier
    }
}

/// A discrete simulator event retained in the bounded log.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub enum SimEvent {
    /// A request was NACKed.
    Nack {
        /// Cycle of the rejection.
        cycle: u64,
        /// Issuing thread.
        tid: u32,
        /// Target controller.
        mc: u32,
        /// Target bank.
        bank: u32,
        /// Full controller queue (vs full bank miss buffer).
        mc_full: bool,
    },
    /// A barrier released all threads.
    BarrierRelease {
        /// Release cycle.
        cycle: u64,
        /// Barrier id.
        id: u32,
    },
}

/// The assembled time-resolved record of one simulation run.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Window width in cycles.
    pub interval: u64,
    /// Memory-controller count.
    pub n_mcs: usize,
    /// L2 bank count.
    pub n_banks: usize,
    /// First recorded cycle (measurement-window open).
    pub start_cycle: u64,
    /// Last simulated cycle.
    pub end_cycle: u64,
    /// Consecutive windows covering `[start_cycle, end_cycle)`.
    pub windows: Vec<Window>,
    /// Per-thread stall breakdowns.
    pub thread_stalls: Vec<ThreadStalls>,
    /// Stream labels carried through from the [`TraceConfig`].
    pub streams: Vec<StreamLabel>,
    /// Retained discrete events, oldest first.
    pub events: Vec<SimEvent>,
    /// Events dropped because the log filled up.
    pub events_dropped: u64,
}

impl Timeline {
    /// Recorded duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Utilization of controller `mc` in window `w` as a fraction of the
    /// window, clamped to `[0, 1]` (busy cycles are attributed to the
    /// admission window, so a tail window can nominally exceed it).
    pub fn utilization(&self, w: usize, mc: usize) -> f64 {
        let busy = self.windows[w].mc_busy[mc];
        (busy as f64 / self.interval as f64).min(1.0)
    }
}

/// A [`SimProbe`] that collects a [`Timeline`]; see the module docs.
pub struct TimelineRecorder {
    interval: u64,
    n_mcs: usize,
    n_banks: usize,
    origin: u64,
    windows: Vec<Window>,
    stalls: Vec<ThreadStalls>,
    streams: Vec<StreamLabel>,
    events: RingLog<SimEvent>,
    event_capacity: usize,
}

impl TimelineRecorder {
    /// A recorder for a chip with `n_mcs` controllers and `n_banks` banks
    /// running `n_threads` simulated threads.
    pub fn new(n_mcs: usize, n_banks: usize, n_threads: usize, cfg: &TraceConfig) -> Self {
        TimelineRecorder {
            interval: cfg.interval.max(1),
            n_mcs,
            n_banks,
            origin: 0,
            windows: Vec::new(),
            stalls: vec![ThreadStalls::default(); n_threads],
            streams: cfg.streams.clone(),
            events: RingLog::new(cfg.event_capacity),
            event_capacity: cfg.event_capacity,
        }
    }

    fn window_mut(&mut self, cycle: u64) -> &mut Window {
        let idx = (cycle.saturating_sub(self.origin) / self.interval) as usize;
        while self.windows.len() <= idx {
            let start = self.origin + self.windows.len() as u64 * self.interval;
            self.windows
                .push(Window::new(start, self.n_mcs, self.n_banks));
        }
        &mut self.windows[idx]
    }

    /// Finalizes the record. `end_cycle` is the simulation's last cycle
    /// (`SimStats::end_cycle`); the window list is padded so it covers the
    /// whole measured span even if the tail was idle.
    pub fn finish(mut self, end_cycle: u64) -> Timeline {
        if end_cycle > self.origin {
            self.window_mut(end_cycle - 1);
        }
        Timeline {
            interval: self.interval,
            n_mcs: self.n_mcs,
            n_banks: self.n_banks,
            start_cycle: self.origin,
            end_cycle: end_cycle.max(self.origin),
            windows: self.windows,
            thread_stalls: self.stalls,
            streams: self.streams,
            events_dropped: self.events.dropped(),
            events: self.events.into_vec(),
        }
    }
}

impl SimProbe for TimelineRecorder {
    fn mc_service(
        &mut self,
        mc: usize,
        at_cycle: u64,
        busy_added: u64,
        queue_len: usize,
        _is_write: bool,
    ) {
        let w = self.window_mut(at_cycle);
        w.mc_busy[mc] += busy_added;
        w.mc_queue_peak[mc] = w.mc_queue_peak[mc].max(queue_len as u64);
    }

    fn bank_access(&mut self, bank: usize, at_cycle: u64) {
        let w = self.window_mut(at_cycle);
        w.bank_accesses[bank] += 1;
        w.mem_ops += 1;
    }

    fn nack(&mut self, at_cycle: u64, tid: u32, mc: usize, bank: usize, mc_full: bool) {
        self.window_mut(at_cycle).mc_nacks[mc] += 1;
        self.events.push(SimEvent::Nack {
            cycle: at_cycle,
            tid,
            mc: mc as u32,
            bank: bank as u32,
            mc_full,
        });
    }

    fn stall(&mut self, tid: u32, kind: StallKind, from_cycle: u64, until_cycle: u64) {
        // Stalls that began before the window opened count only their
        // in-window part.
        let from = from_cycle.max(self.origin);
        let cycles = until_cycle.saturating_sub(from);
        if cycles > 0 {
            self.stalls[tid as usize].add(kind, cycles);
        }
    }

    fn barrier_release(&mut self, id: u32, at_cycle: u64) {
        self.events.push(SimEvent::BarrierRelease {
            cycle: at_cycle,
            id,
        });
    }

    fn window_reset(&mut self, at_cycle: u64) {
        self.origin = at_cycle;
        self.windows.clear();
        for s in &mut self.stalls {
            *s = ThreadStalls::default();
        }
        self.events = RingLog::new(self.event_capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> TimelineRecorder {
        TimelineRecorder::new(4, 8, 2, &TraceConfig::with_interval(100))
    }

    #[test]
    fn observations_land_in_their_window() {
        let mut r = recorder();
        r.mc_service(1, 50, 12, 3, false);
        r.mc_service(1, 250, 12, 5, false);
        r.bank_access(7, 250);
        let t = r.finish(300);
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.windows[0].mc_busy[1], 12);
        assert_eq!(t.windows[1].mc_busy[1], 0);
        assert_eq!(t.windows[2].mc_busy[1], 12);
        assert_eq!(t.windows[2].mc_queue_peak[1], 5);
        assert_eq!(t.windows[2].bank_accesses[7], 1);
        assert_eq!(t.windows[2].mem_ops, 1);
        assert_eq!(t.windows[1].start_cycle, 100);
    }

    #[test]
    fn window_reset_discards_warmup_and_rebases() {
        let mut r = recorder();
        r.mc_service(0, 10, 99, 1, false);
        r.stall(0, StallKind::Nack, 0, 50);
        r.nack(5, 0, 0, 0, true);
        r.window_reset(1000);
        r.mc_service(2, 1010, 7, 1, false);
        r.stall(1, StallKind::Barrier, 900, 1100); // clamped to origin
        let t = r.finish(1100);
        assert_eq!(t.start_cycle, 1000);
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.windows[0].start_cycle, 1000);
        assert_eq!(t.windows[0].mc_busy[2], 7);
        assert!(t.events.is_empty());
        assert_eq!(t.thread_stalls[0].total(), 0);
        assert_eq!(t.thread_stalls[1].barrier, 100);
    }

    #[test]
    fn stalls_accumulate_by_kind() {
        let mut r = recorder();
        r.stall(1, StallKind::LoadMiss, 0, 30);
        r.stall(1, StallKind::LoadMiss, 40, 50);
        r.stall(1, StallKind::Fpu, 0, 5);
        let t = r.finish(50);
        assert_eq!(t.thread_stalls[1].load_miss, 40);
        assert_eq!(t.thread_stalls[1].fpu, 5);
        assert_eq!(t.thread_stalls[1].total(), 45);
    }

    #[test]
    fn event_log_is_bounded() {
        let mut cfg = TraceConfig::with_interval(100);
        cfg.event_capacity = 2;
        let mut r = TimelineRecorder::new(4, 8, 1, &cfg);
        for i in 0..5 {
            r.nack(i, 0, 0, 0, false);
        }
        let t = r.finish(10);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events_dropped, 3);
    }

    #[test]
    fn effective_parallelism_and_imbalance() {
        let mut w = Window::new(0, 4, 8);
        assert_eq!(w.effective_parallelism(), 0.0);
        assert_eq!(w.imbalance(), 1.0);
        w.mc_busy = vec![100, 100, 100, 100];
        assert!((w.effective_parallelism() - 4.0).abs() < 1e-12);
        assert!((w.imbalance() - 1.0).abs() < 1e-12);
        w.mc_busy = vec![400, 0, 0, 0];
        assert!((w.effective_parallelism() - 1.0).abs() < 1e-12);
        assert!((w.imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn finish_pads_idle_tail() {
        let mut r = recorder();
        r.bank_access(0, 10);
        let t = r.finish(1000);
        assert_eq!(t.windows.len(), 10);
        assert_eq!(t.duration(), 1000);
    }
}
