//! The discrete-event simulation engine.
//!
//! Each simulated hardware thread executes its [`Program`] op by op. The
//! engine keeps a priority queue of thread wake-ups and models five
//! resource classes:
//!
//! * per-core **memory pipes** (2 on the T2) — every memory op takes an
//!   issue slot;
//! * per-core **FPU** (one shared unit) — `Compute` ops serialize on it,
//!   which is what caps the LBM at low bytes/flop (§2.4);
//! * **L2 banks** — each access occupies its bank for `bank_cycles`, and
//!   each bank tracks a finite number of outstanding misses (MSHRs);
//! * **memory controllers** — dual-channel FB-DIMM links (see
//!   [`crate::mc`]): reads pipeline on the northbound channel, write-backs
//!   and read commands share the southbound channel, with finite input
//!   queues;
//! * per-thread **load/miss and store-buffer budgets** — a thread blocks on
//!   every L2 *load* miss until the line returns (the T2's single
//!   outstanding miss per thread; configurable for the ablation study),
//!   while *stores* retire through an 8-entry TSO store buffer whose
//!   read-for-ownerships drain asynchronously.
//!
//! ## One front end, two admission back ends
//!
//! Every memory op runs one front-end sequence: gang window, load/store
//! budget, memory-pipe slot, controller routing (with the NUMA remap), the
//! NACK shell, bank access, L2 lookup, and on a miss the write-back
//! victim's routing and link crossing and the thread-side bookkeeping.
//! The service discipline is a back end chosen once per run by
//! [`crate::policy::PolicyKind::is_fifo`]; it owns only the budget check,
//! the NACK check, request submission and the arbitration step:
//!
//! * **Inline (FIFO, the pinned default).** FIFO's decision never depends
//!   on later arrivals, so submission services the request at once:
//!   channel state, jitter draws and a remote read's link crossing are
//!   committed in admission order and the thread's wake-up is exact. No
//!   controller event is ever scheduled.
//! * **Arbitrated (FR-FCFS, read-over-write, …).** Submission parks the
//!   request and schedules a `(next_tick, mc_id)` arbitration event (see
//!   [`crate::policy`], DESIGN.md §13). When the southbound channel is
//!   free the [`crate::policy::QueuePolicy`] picks among the requests that
//!   have arrived, and the owner's wake-up is scheduled at the resolved
//!   completion. Threads whose retry time is still unknown park until a
//!   service resolves it.
//!
//! The inline back end is not the arbitrated one running FIFO: cap-0
//! `read-first` (oldest-first through arbitration) lands at 1.0000×,
//! 1.0015× and 0.9945× the inline cycles on the 64-thread spread, aliased
//! and half-period triads. Deleting it would move every FIFO number, so
//! `tests/policy_differential.rs` pins both back ends bitwise instead.
//! Everything is deterministically seeded and policies must be
//! deterministic, so every run is bit-reproducible.
//!
//! ## Why the gang window exists
//!
//! The paper's central observation — at aliased offsets "all threads hit
//! exactly one memory controller at a time. As the loop count proceeds,
//! successive controllers are of course used in turn, but not concurrently"
//! (§2.1) — is a statement about *convoy stability*. An idealized
//! infinite-FIFO queue model does not produce it: the initial service order
//! smears the threads into a stable, perfectly staggered conveyor that
//! covers all controllers and hides the aliasing entirely (we verified
//! this; configure `gang_window: None` to get that machine, or run the
//! `ablation_outstanding` binary). On the real chip, fair round-robin
//! crossbar arbitration, NACK storms and retry congestion keep the threads
//! of a bulk-synchronous loop batched, and the measured 3–4× collapse
//! follows. The engine models that net effect directly: no thread may
//! commit more than `gang_window` memory operations beyond the slowest
//! still-running thread (threads leave the gang at barriers and at program
//! end, so the window cannot deadlock).

use crate::cache::{Access, L2Cache};
use crate::config::ChipConfig;
use crate::mc::MemController;
use crate::policy::{MemRequest, QueuePolicy, ReqClass};
use crate::stats::SimStats;
use crate::trace::{Op, Program};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use t2opt_core::mapping::PageHomes;
use t2opt_telemetry::probe::{NoProbe, SimProbe, StallKind};
use t2opt_telemetry::timeline::{Timeline, TimelineRecorder, TraceConfig};

/// One simulated hardware thread: which core it is pinned to and what it
/// executes.
pub struct ThreadSpec {
    /// Core index in `0..cfg.core.n_cores`.
    pub core: usize,
    /// The thread's op stream.
    pub program: Program,
}

impl ThreadSpec {
    /// Creates a thread spec.
    pub fn new(core: usize, program: Program) -> Self {
        ThreadSpec { core, program }
    }
}

/// A configured simulation, ready to run.
pub struct Simulation {
    cfg: ChipConfig,
    measure_after_barrier: Option<u32>,
}

impl Simulation {
    /// A simulation of the given chip.
    pub fn new(cfg: ChipConfig) -> Self {
        cfg.validate().expect("invalid chip configuration");
        Simulation {
            cfg,
            measure_after_barrier: None,
        }
    }

    /// A simulation of the calibrated UltraSPARC T2.
    pub fn t2() -> Self {
        Simulation::new(ChipConfig::ultrasparc_t2())
    }

    /// Starts the measurement window when barrier `id` releases: all
    /// counters collected before it are discarded. Use the warm-up sweep +
    /// barrier pattern from [`crate::trace::sweep_programs`].
    pub fn measure_after_barrier(mut self, id: u32) -> Self {
        self.measure_after_barrier = Some(id);
        self
    }

    /// The chip configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Batch entry point: wraps per-thread programs into [`ThreadSpec`]s —
    /// thread `tid` runs on core `core_of(tid)` — and runs them. This is
    /// the reusable path for callers that generate whole program batches
    /// (kernel harnesses, the autotuner's trial runner) and only care about
    /// a placement rule, not individual [`ThreadSpec`] construction.
    ///
    /// # Panics
    /// As [`Simulation::run`].
    pub fn run_programs<F>(&self, programs: Vec<Program>, core_of: F) -> SimStats
    where
        F: Fn(usize) -> usize,
    {
        self.run(Self::specs_from(programs, core_of))
    }

    fn specs_from<F>(programs: Vec<Program>, core_of: F) -> Vec<ThreadSpec>
    where
        F: Fn(usize) -> usize,
    {
        programs
            .into_iter()
            .enumerate()
            .map(|(tid, program)| ThreadSpec::new(core_of(tid), program))
            .collect()
    }

    /// Runs the given threads to completion and returns the statistics.
    ///
    /// This is the uninstrumented path: it monomorphizes over the no-op
    /// [`NoProbe`], so it compiles to exactly the same code — and produces
    /// bitwise-identical [`SimStats`] — as before the telemetry hooks
    /// existed.
    ///
    /// # Panics
    /// Panics if a thread's core index is out of range, if a core's
    /// hardware-thread capacity is exceeded, or on inconsistent barrier use
    /// (deadlock: some threads finished while others wait).
    pub fn run(&self, threads: Vec<ThreadSpec>) -> SimStats {
        self.run_with_probe(threads, &mut NoProbe)
    }

    /// Runs the threads with time-resolved telemetry: per-MC busy/queue/
    /// NACK windows, per-bank samples, per-thread stall breakdowns, and a
    /// bounded event log, collected into a [`Timeline`]. The measurement
    /// window of the timeline follows [`Simulation::measure_after_barrier`]
    /// exactly as the statistics do.
    pub fn run_traced(
        &self,
        threads: Vec<ThreadSpec>,
        trace: &TraceConfig,
    ) -> (SimStats, Timeline) {
        let mut recorder = TimelineRecorder::new(
            self.cfg.n_controllers(),
            self.cfg.n_banks(),
            threads.len(),
            trace,
        );
        let stats = self.run_with_probe(threads, &mut recorder);
        let timeline = recorder.finish(stats.end_cycle);
        (stats, timeline)
    }

    /// Runs the threads against a caller-supplied [`SimProbe`] — the
    /// generic instrumentation entry point [`Simulation::run`] and
    /// [`Simulation::run_traced`] are wrappers over.
    ///
    /// # Panics
    /// As [`Simulation::run`].
    pub fn run_with_probe<P: SimProbe>(&self, threads: Vec<ThreadSpec>, probe: &mut P) -> SimStats {
        Engine::new(self, threads, probe).run()
    }
}

/// Drops completed entries (≤ now) from the front of a completion-time
/// queue.
#[inline]
fn prune(q: &mut VecDeque<u64>, now: u64) {
    while q.front().is_some_and(|&c| c <= now) {
        q.pop_front();
    }
}

/// Drops completed entries (≤ now) from an *unordered* completion list —
/// the arbitrated back end resolves completions out of admission order, so
/// the front-only [`prune`] would leak entries there.
#[inline]
fn retain_future(q: &mut VecDeque<u64>, now: u64) {
    q.retain(|&c| c > now);
}

/// What an event wakes.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Hardware thread `tid`.
    Thread(u32),
    /// Controller `mc`'s arbitration step.
    McArb(u32),
}

/// An event-queue entry, ordered by `(at, seq)` alone, earliest first (the
/// heap is a max-heap). `seq` is push order and globally unique, so ties
/// never reach the event and thread-only streams — the inline back end —
/// pop in exactly the pre-policy order.
#[derive(Clone, Copy)]
struct Event {
    at: u64,
    seq: u64,
    ev: Ev,
}

impl Ord for Event {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let key = |e: &Event| (e.at as u128) << 64 | e.seq as u128;
        key(other).cmp(&key(self))
    }
}

impl PartialOrd for Event {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Event {}

/// The event queue and its push counter.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Event>,
    seq: u64,
}

impl Events {
    /// Schedules `ev` at cycle `at`.
    #[inline]
    fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Event {
            at,
            seq: self.seq,
            ev,
        });
    }
}

/// When a blocked thread may try again.
enum Retry {
    /// At this cycle.
    At(u64),
    /// Unknown until a service resolves a blocking entry (arbitrated back
    /// end only): the thread parks.
    OnService,
}

struct ThreadState {
    core: usize,
    program: Program,
    /// An op fetched but not yet committed (blocked, retried on wake-up).
    pending: Option<Op>,
    /// Completion times of outstanding load misses.
    loads: VecDeque<u64>,
    /// Completion times of in-flight store RFOs (buffer entries).
    stores: VecDeque<u64>,
    /// Arbitrated back end: issued load misses not yet serviced (their
    /// completion times do not exist yet).
    loads_pending: usize,
    /// Arbitrated back end: issued store RFOs not yet serviced.
    stores_pending: usize,
    /// Latest completion over everything this thread issued.
    drain_until: u64,
    /// What the thread is parked on and since when; `None` while a wake-up
    /// is scheduled. `Barrier` and `Drift` park at a barrier and in the
    /// gang window; `LoadMiss`/`StoreBuffer` on a full budget whose release
    /// is unresolved, and `Nack` on a controller's or bank's retry list
    /// (both arbitrated back end only).
    parked: Option<(StallKind, u64)>,
    finished: bool,
}

impl ThreadState {
    /// Wakes this parked thread (`tid`) at `at`, recording its stall.
    fn release<P: SimProbe>(&mut self, tid: u32, at: u64, probe: &mut P, events: &mut Events) {
        let (kind, since) = self.parked.take().expect("released thread is parked");
        probe.stall(tid, kind, since, at);
        events.push(at, Ev::Thread(tid));
    }

    /// Records the resolved completion of one of this thread's misses and
    /// returns when it stops blocking the thread.
    fn resolve(&mut self, store: bool, completion: u64, extra_latency: u64) -> u64 {
        let ready = if store {
            self.stores.push_back(completion);
            completion
        } else {
            let data_ready = completion + extra_latency;
            self.loads.push_back(data_ready);
            data_ready
        };
        self.drain_until = self.drain_until.max(ready);
        ready
    }
}

/// One controller's queue state under the arbitrated back end.
#[derive(Default)]
struct McState {
    /// The socket this controller belongs to (contiguous groups of
    /// `mcs_per_socket`; always 0 on single-socket chips).
    socket: u32,
    /// Admitted requests awaiting arbitration. Each occupies a queue slot
    /// until its transfer *completes*.
    pending: Vec<MemRequest>,
    /// Completion times of serviced transfers still occupying a queue slot.
    inflight: VecDeque<u64>,
    /// Threads NACKed while every slot occupant was unresolved (no retry
    /// time computable); released at the next service.
    retry: Vec<u32>,
    /// Earliest scheduled arbitration wake-up (event dedup).
    arb_at: Option<u64>,
}

impl McState {
    /// Schedules controller `mci`'s next arbitration at `at`, deduplicating
    /// against an earlier-or-equal one already queued.
    fn schedule(&mut self, events: &mut Events, mci: usize, at: u64) {
        if self.arb_at.is_none_or(|t| at < t) {
            self.arb_at = Some(at);
            events.push(at, Ev::McArb(mci as u32));
        }
    }
}

/// One L2 bank's MSHR state under the arbitrated back end.
#[derive(Default)]
struct BankState {
    /// Misses holding an MSHR whose transfer is not yet serviced.
    pending: usize,
    /// Completion times of serviced misses still holding an MSHR.
    inflight: VecDeque<u64>,
    /// Threads NACKed on a full MSHR file with no resolved entry.
    retry: Vec<u32>,
}

/// The service discipline behind the shared memory-op front end (see the
/// module docs).
enum Backend {
    /// FIFO: completion times resolved at admission.
    Inline {
        /// Completion times of requests admitted to each controller's
        /// finite input queue, in admission order.
        mc_admitted: Vec<VecDeque<u64>>,
        /// Completion times of outstanding misses per L2 bank (MSHRs).
        bank_inflight: Vec<VecDeque<u64>>,
    },
    /// A [`QueuePolicy`] decides at controller arbitration events.
    Arbitrated {
        policies: Vec<Box<dyn QueuePolicy>>,
        mc_st: Vec<McState>,
        bank_st: Vec<BankState>,
        /// Global admission sequence: id order is age order for the
        /// policies.
        next_req: u64,
        /// Scratch for the arbitration step: indices into `pending` and
        /// the eligible requests themselves.
        elig_idx: Vec<usize>,
        elig_req: Vec<MemRequest>,
    },
}

impl Backend {
    fn new(cfg: &ChipConfig) -> Self {
        if cfg.policy.is_fifo() {
            return Backend::Inline {
                mc_admitted: vec![VecDeque::new(); cfg.n_controllers()],
                bank_inflight: vec![VecDeque::new(); cfg.n_banks()],
            };
        }
        Backend::Arbitrated {
            policies: (0..cfg.n_controllers())
                .map(|_| cfg.policy.build())
                .collect(),
            mc_st: (0..cfg.n_controllers())
                .map(|i| McState {
                    socket: cfg.socket_of_controller(i) as u32,
                    ..McState::default()
                })
                .collect(),
            bank_st: (0..cfg.n_banks()).map(|_| BankState::default()).collect(),
            next_req: 0,
            elig_idx: Vec::new(),
            elig_req: Vec::new(),
        }
    }

    /// The thread-side budget check: `None` while completion queue `q` plus
    /// `unresolved` requests leave room under `limit`, else when to retry.
    #[inline]
    fn budget(
        &self,
        q: &mut VecDeque<u64>,
        unresolved: usize,
        limit: usize,
        now: u64,
    ) -> Option<Retry> {
        match self {
            // Completions resolve in admission order: wait for the oldest.
            Backend::Inline { .. } => {
                prune(q, now);
                (q.len() >= limit).then(|| Retry::At(*q.front().expect("budgets are ≥ 1")))
            }
            // Entries may still await arbitration: the wake-up is the
            // earliest *resolved* completion, if any.
            Backend::Arbitrated { .. } => {
                retain_future(q, now);
                (q.len() + unresolved >= limit)
                    .then(|| q.iter().min().map_or(Retry::OnService, |&c| Retry::At(c)))
            }
        }
    }

    /// The NACK check of a miss by thread `tid` to controller `mc` and bank
    /// `bank`: `None` if both have a free slot, else whether the controller
    /// queue was the full one and when a slot frees. A thread told
    /// [`Retry::OnService`] is already on the blocking retry list.
    #[inline]
    fn nack(
        &mut self,
        mc: usize,
        bank: usize,
        tid: u32,
        now: u64,
        queue_depth: usize,
        mshr_per_bank: usize,
    ) -> Option<(bool, Retry)> {
        match self {
            Backend::Inline {
                mc_admitted,
                bank_inflight,
            } => {
                let (q, b) = (&mut mc_admitted[mc], &mut bank_inflight[bank]);
                prune(q, now);
                prune(b, now);
                let mc_full = q.len() >= queue_depth;
                if !mc_full && b.len() < mshr_per_bank {
                    return None;
                }
                // The slot frees when the entry `depth` places from the
                // newest completes.
                let wake = if mc_full {
                    q[q.len() - queue_depth]
                } else {
                    b[b.len() - mshr_per_bank]
                };
                Some((mc_full, Retry::At(wake)))
            }
            Backend::Arbitrated { mc_st, bank_st, .. } => {
                let (st, bs) = (&mut mc_st[mc], &mut bank_st[bank]);
                retain_future(&mut st.inflight, now);
                retain_future(&mut bs.inflight, now);
                let mc_full = st.pending.len() + st.inflight.len() >= queue_depth;
                if !mc_full && bs.pending + bs.inflight.len() < mshr_per_bank {
                    return None;
                }
                // The earliest slot release is the earliest *resolved*
                // completion; when every occupant still awaits arbitration
                // the time is unknowable — park until the next service.
                let (known, retry) = if mc_full {
                    (st.inflight.iter().min(), &mut st.retry)
                } else {
                    (bs.inflight.iter().min(), &mut bs.retry)
                };
                if known.is_none() {
                    retry.push(tid);
                }
                Some((mc_full, known.map_or(Retry::OnService, |&c| Retry::At(c))))
            }
        }
    }
}

/// NUMA routing state, inert on single-socket chips. On a multi-socket chip
/// the raw mapping picks the *local* controller shape (`raw % mps`); the
/// page's home socket picks which socket's group serves it. Remote
/// transfers additionally occupy the shared inter-socket link (one global
/// busy horizon — the coarse link-occupancy approximation of DESIGN §14)
/// and pay a remote latency adder.
struct Numa {
    on: bool,
    mcs_per_socket: usize,
    homes: PageHomes,
    core_socket: Vec<u32>,
    link_cycles: u64,
    link_busy: u64,
}

impl Numa {
    /// The controller serving `line` (raw mapping `raw_mc`) when a thread
    /// on socket `toucher` touches it, and whether it is remote.
    #[inline]
    fn route(&mut self, raw_mc: usize, line: u64, toucher: u32) -> (usize, bool) {
        if !self.on {
            return (raw_mc, false);
        }
        let home = self.homes.home(line, toucher);
        (
            home as usize * self.mcs_per_socket + raw_mc % self.mcs_per_socket,
            home != toucher,
        )
    }

    /// Sends one line across the inter-socket link once it is `ready`;
    /// returns when the crossing ends.
    fn cross(&mut self, ready: u64) -> u64 {
        self.link_busy = ready.max(self.link_busy) + self.link_cycles;
        self.link_busy
    }
}

#[derive(Default)]
struct BarrierState {
    arrivals: usize,
    release: u64,
    waiters: Vec<u32>,
}

/// One run of a [`Simulation`]: the whole machine state, stepped event by
/// event.
struct Engine<'a, P: SimProbe> {
    cfg: &'a ChipConfig,
    probe: &'a mut P,
    measure_after_barrier: Option<u32>,
    stats: SimStats,
    cache: L2Cache,
    mcs: Vec<MemController>,
    backend: Backend,
    numa: Numa,
    bank_busy: Vec<u64>,
    fpu_busy: Vec<u64>,
    pipes: Vec<Vec<u64>>,
    ts: Vec<ThreadState>,
    barriers: HashMap<u32, BarrierState>,
    events: Events,
    live: usize,
    // Gang drift window: per-thread memory-op counts, gang membership, and
    // the current minimum over members. Threads leave the gang when they
    // finish or park at a barrier (else a short-program thread would
    // freeze the window and deadlock the rest).
    gang_window: Option<u64>,
    gang_count: Vec<u64>,
    in_gang: Vec<bool>,
    gang_min: u64,
    drift_parked: Vec<u32>,
}

impl<'a, P: SimProbe> Engine<'a, P> {
    fn new(sim: &'a Simulation, threads: Vec<ThreadSpec>, probe: &'a mut P) -> Self {
        let cfg = &sim.cfg;
        let n_threads = threads.len();
        assert!(n_threads > 0, "need at least one thread");
        let mut occupancy = vec![0usize; cfg.core.n_cores];
        for t in &threads {
            assert!(
                t.core < cfg.core.n_cores,
                "core index {} out of range ({} cores)",
                t.core,
                cfg.core.n_cores
            );
            occupancy[t.core] += 1;
            assert!(
                occupancy[t.core] <= cfg.core.threads_per_core,
                "core {} oversubscribed (> {} hardware threads)",
                t.core,
                cfg.core.threads_per_core
            );
        }
        let mut events = Events::default();
        for tid in 0..n_threads {
            events.push(0, Ev::Thread(tid as u32));
        }
        Engine {
            cfg,
            probe,
            measure_after_barrier: sim.measure_after_barrier,
            stats: SimStats::new(cfg.n_controllers(), cfg.n_banks()),
            cache: L2Cache::new(&cfg.l2),
            mcs: (0..cfg.n_controllers())
                .map(|i| MemController::new_seeded(&cfg.mem, i as u64 + 1))
                .collect(),
            backend: Backend::new(cfg),
            numa: Numa {
                on: cfg.numa.is_numa(),
                mcs_per_socket: cfg.mcs_per_socket(),
                homes: PageHomes::new(cfg.placement, cfg.numa.n_sockets, cfg.numa.page_bytes),
                core_socket: (0..cfg.core.n_cores)
                    .map(|c| cfg.socket_of_core(c) as u32)
                    .collect(),
                link_cycles: cfg.numa.link_cycles_per_line,
                link_busy: 0,
            },
            bank_busy: vec![0; cfg.n_banks()],
            fpu_busy: vec![0; cfg.core.n_cores],
            pipes: vec![vec![0; cfg.core.mem_pipes]; cfg.core.n_cores],
            ts: threads
                .into_iter()
                .map(|t| ThreadState {
                    core: t.core,
                    program: t.program,
                    pending: None,
                    loads: VecDeque::new(),
                    stores: VecDeque::new(),
                    loads_pending: 0,
                    stores_pending: 0,
                    drain_until: 0,
                    parked: None,
                    finished: false,
                })
                .collect(),
            barriers: HashMap::new(),
            events,
            live: n_threads,
            gang_window: cfg.core.gang_window.map(u64::from),
            gang_count: vec![0; n_threads],
            in_gang: vec![true; n_threads],
            gang_min: 0,
            drift_parked: Vec::new(),
        }
    }

    fn run(mut self) -> SimStats {
        while let Some(Event { at: now, ev, .. }) = self.events.heap.pop() {
            match ev {
                Ev::Thread(tid) => self.step(tid, now),
                Ev::McArb(mci) => self.arbitrate(mci as usize, now),
            }
        }
        let live = self.live;
        assert_eq!(
            live, 0,
            "deadlock: {live} thread(s) never finished (barrier mismatch?)"
        );
        // Request conservation: every admitted request was serviced exactly
        // once, every MSHR released, every parked thread released.
        if let Backend::Arbitrated { mc_st, bank_st, .. } = &self.backend {
            for (i, st) in mc_st.iter().enumerate() {
                let (reqs, parked) = (st.pending.len(), st.retry.len());
                assert!(
                    reqs + parked == 0,
                    "conservation: controller {i} still holds {reqs} request(s), parks {parked} thread(s)"
                );
            }
            for (i, b) in bank_st.iter().enumerate() {
                assert!(
                    b.pending + b.retry.len() == 0,
                    "conservation: bank {i} still tracks unserviced misses or parks threads"
                );
            }
        }
        for (i, t) in self.ts.iter().enumerate() {
            assert_eq!(
                t.loads_pending + t.stores_pending,
                0,
                "conservation: thread {i} ended with unresolved requests"
            );
        }
        self.stats
    }

    /// Recomputes the gang minimum and wakes drift-parked threads that are
    /// back inside the window. Called whenever a count or a membership
    /// changes at the current minimum.
    fn gang_update(&mut self, now: u64) {
        let new_min = self
            .gang_count
            .iter()
            .zip(&self.in_gang)
            .filter(|&(_, &g)| g)
            .map(|(&c, _)| c)
            .min()
            .unwrap_or(u64::MAX);
        if new_min == self.gang_min {
            return;
        }
        self.gang_min = new_min;
        if let Some(w) = self.gang_window {
            self.drift_parked.retain(|&p| {
                if self.gang_count[p as usize] >= new_min.saturating_add(w) {
                    return true;
                }
                self.ts[p as usize].release(p, now, &mut *self.probe, &mut self.events);
                false
            });
        }
    }

    /// Runs thread `tid`'s next op at `now`.
    fn step(&mut self, tid: u32, now: u64) {
        let ti = tid as usize;
        let t = &mut self.ts[ti];
        // (An explicit match, not `Option::or_else`: the combinator's
        // round trip of the op through the stack stalls store forwarding
        // on the hottest line of the loop.)
        let op = match t.pending.take() {
            Some(op) => op,
            None => match t.program.next() {
                Some(op) => op,
                None => {
                    t.finished = true;
                    self.live -= 1;
                    self.stats.end_cycle = self.stats.end_cycle.max(now).max(t.drain_until);
                    self.in_gang[ti] = false;
                    self.gang_update(now);
                    return;
                }
            },
        };
        let core = t.core;
        match op {
            Op::Delay(c) => self.events.push(now + c as u64, Ev::Thread(tid)),
            Op::Compute(flops) => {
                let cycles = (flops as f64 / self.cfg.core.fpu_flops_per_cycle)
                    .ceil()
                    .max(1.0) as u64;
                let start = now.max(self.fpu_busy[core]);
                if start > now {
                    self.probe.stall(tid, StallKind::Fpu, now, start);
                }
                self.fpu_busy[core] = start + cycles;
                self.stats.flops += flops as u64;
                self.events.push(start + cycles, Ev::Thread(tid));
            }
            Op::Barrier(id) => self.barrier(tid, id, now),
            Op::Read(addr) | Op::Write(addr) => {
                self.mem_op(tid, core, op, addr, matches!(op, Op::Write(_)), now)
            }
        }
    }

    fn barrier(&mut self, tid: u32, id: u32, now: u64) {
        let b = self.barriers.entry(id).or_default();
        b.arrivals += 1;
        b.release = b.release.max(now);
        if b.arrivals < self.ts.len() {
            self.ts[tid as usize].parked = Some((StallKind::Barrier, now));
            b.waiters.push(tid);
            // Leave the gang while parked, else a straggler on the way to
            // the barrier could deadlock the window.
            self.in_gang[tid as usize] = false;
            self.gang_update(now);
            return;
        }
        let release_at = b.release;
        for w in std::mem::take(&mut b.waiters) {
            self.ts[w as usize].release(w, release_at, &mut *self.probe, &mut self.events);
            self.in_gang[w as usize] = true;
        }
        self.events.push(release_at, Ev::Thread(tid));
        self.probe.barrier_release(id, release_at);
        if self.measure_after_barrier == Some(id) {
            self.stats.reset_window(release_at);
            self.probe.window_reset(release_at);
        }
        self.gang_update(release_at);
    }

    /// Whether thread `tid`'s load (`is_write == false`) or store budget is
    /// full at `now`. If so the thread is scheduled to retry when an entry
    /// frees, or parked until a service resolves one; its stall is
    /// recorded from `from`.
    #[inline]
    fn budget_blocks(&mut self, tid: u32, is_write: bool, now: u64, from: u64) -> bool {
        let (t, core) = (&mut self.ts[tid as usize], &self.cfg.core);
        let (q, unresolved, limit, kind) = if is_write {
            let (buffer, kind) = (core.store_buffer.max(1), StallKind::StoreBuffer);
            (&mut t.stores, t.stores_pending, buffer, kind)
        } else {
            let kind = StallKind::LoadMiss;
            (&mut t.loads, t.loads_pending, core.outstanding_misses, kind)
        };
        match self.backend.budget(q, unresolved, limit, now) {
            None => return false,
            Some(Retry::At(wake)) => {
                self.probe.stall(tid, kind, from, wake);
                self.events.push(wake, Ev::Thread(tid));
            }
            Some(Retry::OnService) => t.parked = Some((kind, from)),
        }
        true
    }

    /// The memory-op sequence, shared by both back ends.
    fn mem_op(&mut self, tid: u32, core: usize, op: Op, addr: u64, is_write: bool, now: u64) {
        let ti = tid as usize;
        // Gang drift window: a thread too far ahead of the slowest gang
        // member parks until the gang catches up.
        if let Some(w) = self.gang_window {
            if self.in_gang[ti] && self.gang_count[ti] >= self.gang_min.saturating_add(w) {
                let t = &mut self.ts[ti];
                t.pending = Some(op);
                t.parked = Some((StallKind::Drift, now));
                self.drift_parked.push(tid);
                return;
            }
        }
        // Loads: outstanding-miss budget. Stores: TSO store buffer.
        if self.budget_blocks(tid, is_write, now, now) {
            self.ts[ti].pending = Some(op);
            return;
        }
        // Memory-pipe issue slot.
        let (pipe_idx, &pipe_free) = self.pipes[core]
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| b)
            .expect("mem_pipes > 0");
        if pipe_free > now {
            self.ts[ti].pending = Some(op);
            self.probe.stall(tid, StallKind::Pipe, now, pipe_free);
            self.events.push(pipe_free, Ev::Thread(tid));
            return;
        }
        let cfg = self.cfg;
        let bank = cfg.map.bank(addr) as usize;
        let my_sock = self.numa.core_socket[core];
        let (mc, remote) = self
            .numa
            .route(cfg.map.controller(addr) as usize, addr, my_sock);
        // NACK checks: a miss needs a controller-queue slot and a bank miss
        // buffer; if either is full the request is rejected and retried
        // when a slot frees. The probe occupies the pipe like any other
        // access.
        if !self.cache.contains(addr) {
            let mshr_per_bank = cfg.l2.mshr_per_bank.max(1);
            let full = self
                .backend
                .nack(mc, bank, tid, now, cfg.mem.queue_depth, mshr_per_bank);
            if let Some((mc_full, retry)) = full {
                self.stats.nacks += 1;
                self.ts[ti].pending = Some(op);
                self.pipes[core][pipe_idx] = now + 2;
                self.probe.nack(now, tid, mc, bank, mc_full);
                match retry {
                    Retry::At(wake) => {
                        let retry_at = wake.max(now + 1);
                        self.probe.stall(tid, StallKind::Nack, now, retry_at);
                        self.events.push(retry_at, Ev::Thread(tid));
                    }
                    Retry::OnService => self.ts[ti].parked = Some((StallKind::Nack, now)),
                }
                return;
            }
        }
        self.pipes[core][pipe_idx] = now + 1;
        // L2 bank access.
        let bank_start = (now + 1).max(self.bank_busy[bank]);
        let bank_done = bank_start + cfg.l2.bank_cycles;
        self.bank_busy[bank] = bank_done;
        self.stats.bank_accesses[bank] += 1;
        self.stats.mem_ops += 1;
        self.probe.bank_access(bank, bank_start);
        // The op is committed: advance this thread's gang progress.
        let count = &mut self.gang_count[ti];
        *count += 1;
        if *count - 1 == self.gang_min {
            self.gang_update(now);
        }
        let writeback = match self.cache.access(addr, is_write) {
            Access::Hit => {
                self.stats.l2_hits += 1;
                // A store hit retires through the store buffer: the thread
                // moves on at once.
                let resume = if is_write {
                    bank_done
                } else {
                    bank_start + cfg.l2.hit_latency
                };
                self.events.push(resume, Ev::Thread(tid));
                return;
            }
            Access::Miss { writeback } => writeback,
        };
        self.stats.l2_misses += 1;
        let line_bytes = cfg.l2.line as u64;
        if let Some(victim) = writeback {
            // Write-backs come from the L2's eviction buffers: southbound
            // transfer, no bank MSHR, no thread wait. A remote victim's line
            // crosses the inter-socket link before its home controller can
            // serve it.
            let (vmc, vremote) =
                self.numa
                    .route(cfg.map.controller(victim) as usize, victim, my_sock);
            let arrival = if vremote {
                self.numa.cross(bank_done) + cfg.numa.remote_write_extra
            } else {
                bank_done
            };
            self.stats.mc_write_bytes[vmc] += line_bytes;
            self.stats.l2_writebacks += 1;
            let req = MemRequest {
                id: 0,
                arrival,
                addr: victim,
                class: ReqClass::Writeback,
                tid: None,
                bank: None,
                bypassed: 0,
            };
            self.submit(vmc, req, false, bank_done);
        }
        self.stats.mc_read_bytes[mc] += line_bytes;
        let req = MemRequest {
            id: 0,
            arrival: bank_done,
            addr,
            class: if is_write {
                ReqClass::StoreRfo
            } else {
                ReqClass::DemandRead
            },
            tid: Some(tid),
            bank: Some(bank),
            bypassed: 0,
        };
        let resolved = self.submit(mc, req, remote, bank_done);
        let t = &mut self.ts[ti];
        match resolved {
            Some(completion) => {
                t.resolve(is_write, completion, cfg.mem.extra_latency);
            }
            None if is_write => t.stores_pending += 1,
            None => t.loads_pending += 1,
        }
        // A store miss drains from the store buffer and the thread moves
        // on; a load miss blocks once the budget is full (the T2 case),
        // else continues under hit-under-miss headroom (ablations).
        if is_write || !self.budget_blocks(tid, false, now, bank_done) {
            self.events.push(bank_done, Ev::Thread(tid));
        }
    }

    /// Hands `req` to controller `mc`; `at` is when it left the L2 bank.
    /// A `remote` read's data crosses the inter-socket link after service.
    /// Returns the completion time if the back end resolves it now.
    fn submit(&mut self, mc: usize, mut req: MemRequest, remote: bool, at: u64) -> Option<u64> {
        match &mut self.backend {
            Backend::Inline {
                mc_admitted,
                bank_inflight,
            } => {
                let out = if req.is_read() {
                    self.mcs[mc].service_read(req.arrival)
                } else {
                    self.mcs[mc].service_write(req.arrival)
                };
                // The controller's queue slot frees at its own completion;
                // a *remote* line additionally crosses the shared link
                // (occupancy) and pays the remote latency adder before the
                // issuing socket sees it.
                let completion = if remote {
                    self.numa.cross(out.completion) + self.cfg.numa.remote_read_extra
                } else {
                    out.completion
                };
                self.stats.mc_busy_cycles[mc] += out.busy_added;
                mc_admitted[mc].push_back(out.completion);
                if let Some(b) = req.bank {
                    bank_inflight[b].push_back(completion);
                }
                let queue_len = mc_admitted[mc].len();
                self.probe
                    .mc_service(mc, at, out.busy_added, queue_len, !req.is_read());
                Some(completion)
            }
            // Park the request and arbitrate once both it and the southbound
            // channel can be ready. A remote read's link charge happens at
            // service, where its completion is resolved.
            Backend::Arbitrated {
                mc_st,
                bank_st,
                next_req,
                ..
            } => {
                *next_req += 1;
                req.id = *next_req;
                if let Some(b) = req.bank {
                    bank_st[b].pending += 1;
                }
                let at = req.arrival.max(self.mcs[mc].south_busy);
                mc_st[mc].pending.push(req);
                mc_st[mc].schedule(&mut self.events, mc, at);
                None
            }
        }
    }

    /// Controller `mci`'s arbitration step (arbitrated back end only).
    fn arbitrate(&mut self, mci: usize, now: u64) {
        let Backend::Arbitrated {
            policies,
            mc_st,
            bank_st,
            elig_idx,
            elig_req,
            ..
        } = &mut self.backend
        else {
            unreachable!("the inline back end schedules no arbitration");
        };
        let st = &mut mc_st[mci];
        if st.arb_at == Some(now) {
            st.arb_at = None;
        }
        if st.pending.is_empty() {
            return;
        }
        // Don't reserve a busy southbound channel: selecting now would
        // commit an order before later arrivals are seen — the exact FIFO
        // behavior the policies exist to avoid. Re-arbitrate when the
        // channel frees.
        let south = self.mcs[mci].south_busy;
        if south > now {
            st.schedule(&mut self.events, mci, south);
            return;
        }
        // Requests that have actually arrived are eligible.
        elig_idx.clear();
        elig_req.clear();
        for (i, r) in st.pending.iter().enumerate() {
            if r.arrival <= now {
                elig_idx.push(i);
                elig_req.push(r.clone());
            }
        }
        if elig_idx.is_empty() {
            let at = st.pending.iter().map(|r| r.arrival).min();
            st.schedule(&mut self.events, mci, at.expect("pending is non-empty"));
            return;
        }
        // One service slot: the policy picks, the channel model resolves
        // the completion time.
        let sel = policies[mci].select(elig_req, now);
        assert!(
            sel < elig_req.len(),
            "policy {} returned out-of-range index {sel} ({} eligible)",
            policies[mci].name(),
            elig_req.len()
        );
        let req = st.pending.swap_remove(elig_idx[sel]);
        let out = if req.is_read() {
            self.mcs[mci].service_read(now)
        } else {
            self.mcs[mci].service_write(now)
        };
        self.stats.mc_busy_cycles[mci] += out.busy_added;
        st.inflight.push_back(out.completion);
        // Every older request that was ready and passed over counts one
        // step toward its starvation cap.
        for p in st.pending.iter_mut() {
            if p.arrival <= now && p.id < req.id {
                p.bypassed = p.bypassed.saturating_add(1);
            }
        }
        policies[mci].on_service(&req);
        let queue_len = st.pending.len() + st.inflight.len();
        self.probe
            .mc_service(mci, now, out.busy_added, queue_len, !req.is_read());
        // A queue slot frees when this transfer completes: that resolves
        // the retry time for threads NACKed while all occupants were
        // unresolved.
        let slot_free = out.completion.max(now + 1);
        for w in st.retry.drain(..) {
            self.ts[w as usize].release(w, slot_free, &mut *self.probe, &mut self.events);
        }
        if let (Some(b), Some(owner)) = (req.bank, req.tid) {
            // A demand read or RFO: the MSHR it holds resolves, and so does
            // the owner thread's wait time. A remote line still has to
            // cross the shared inter-socket link (occupancy + remote
            // latency adder) before the owner's socket sees it.
            let oi = owner as usize;
            let completion = if self.numa.on && st.socket != self.numa.core_socket[self.ts[oi].core]
            {
                self.numa.cross(out.completion) + self.cfg.numa.remote_read_extra
            } else {
                out.completion
            };
            let bs = &mut bank_st[b];
            bs.pending -= 1;
            bs.inflight.push_back(completion);
            for w in bs.retry.drain(..) {
                self.ts[w as usize].release(w, slot_free, &mut *self.probe, &mut self.events);
            }
            let t = &mut self.ts[oi];
            let store = req.class == ReqClass::StoreRfo;
            if store {
                t.stores_pending -= 1;
            } else {
                t.loads_pending -= 1;
            }
            let ready = t.resolve(store, completion, self.cfg.mem.extra_latency);
            if t.finished {
                // The owner ran off the end of its program with this
                // request still in flight: extend the drain.
                self.stats.end_cycle = self.stats.end_cycle.max(t.drain_until);
            } else if matches!(
                t.parked,
                Some((StallKind::LoadMiss | StallKind::StoreBuffer, _))
            ) {
                t.release(owner, ready, &mut *self.probe, &mut self.events);
            }
        }
        if let Some(min_arr) = st.pending.iter().map(|r| r.arrival).min() {
            let at = self.mcs[mci].south_busy.max(min_arr).max(now);
            st.schedule(&mut self.events, mci, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{sweep_programs, StreamLoop, StreamSpec};

    fn ops(v: Vec<Op>) -> Program {
        Box::new(v.into_iter())
    }

    /// A T2 config with jitter disabled, for cycle-exact unit tests.
    fn exact_cfg() -> ChipConfig {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.mem.service_jitter = 0.0;
        cfg
    }

    #[test]
    fn numa_remote_read_pays_link_occupancy_and_latency() {
        use t2opt_core::mapping::PagePlacement;
        let mut cfg = ChipConfig::preset("2s-numa").unwrap();
        cfg.mem.service_jitter = 0.0;
        let run_one = |cfg: ChipConfig| {
            Simulation::new(cfg)
                .run(vec![ThreadSpec::new(0, ops(vec![Op::Read(0)]))])
                .end_cycle
        };
        let local = run_one(cfg.clone());
        let mut rcfg = cfg.clone();
        rcfg.placement = PagePlacement::Remote;
        let remote = run_one(rcfg);
        // One uncontended read: the remote run pays exactly one link
        // crossing plus the remote latency adder on top of the local time.
        assert_eq!(
            remote - local,
            cfg.numa.link_cycles_per_line + cfg.numa.remote_read_extra
        );
    }

    #[test]
    fn placement_is_inert_on_single_socket_chips() {
        use t2opt_core::mapping::PagePlacement;
        let base = exact_cfg();
        let mut moved = exact_cfg();
        moved.placement = PagePlacement::Remote;
        let run = |cfg: ChipConfig| {
            let programs: Vec<Program> = (0..16)
                .map(|t| {
                    Box::new(StreamLoop::new(
                        vec![StreamSpec::load(t as u64 * 65536)],
                        256,
                        8,
                        0.0,
                        64,
                    )) as Program
                })
                .collect();
            Simulation::new(cfg).run_programs(programs, |tid| tid % 8)
        };
        assert_eq!(run(base), run(moved));
    }

    #[test]
    fn single_read_latency() {
        let cfg = exact_cfg();
        let sim = Simulation::new(cfg.clone());
        let stats = sim.run(vec![ThreadSpec::new(0, ops(vec![Op::Read(0)]))]);
        // issue(1) + bank(2) + command(3) + read_service(12) + extra(100).
        let expected = 1
            + cfg.l2.bank_cycles
            + cfg.mem.command_cycles
            + cfg.mem.read_service
            + cfg.mem.extra_latency;
        assert_eq!(stats.end_cycle, expected);
        assert_eq!(stats.l2_misses, 1);
        assert_eq!(stats.total_read_bytes(), 64);
    }

    #[test]
    fn hit_is_much_faster_than_miss() {
        let sim = Simulation::new(exact_cfg());
        let miss = sim.run(vec![ThreadSpec::new(0, ops(vec![Op::Read(0)]))]);
        let hit = sim.run(vec![ThreadSpec::new(
            0,
            ops(vec![Op::Read(0), Op::Read(8)]),
        )]);
        let hit_cost = hit.end_cycle - miss.end_cycle;
        assert!(hit_cost < 40, "hit cost {hit_cost} should be ~hit_latency");
        assert_eq!(hit.l2_hits, 1);
    }

    #[test]
    fn write_allocates_and_writes_back_on_eviction() {
        let sim = Simulation::new(exact_cfg());
        let cfg = sim.config().clone();
        // Dirty a line, then stream enough lines through its set to evict.
        let set_stride = (cfg.l2.sets() * cfg.l2.line) as u64;
        let mut v = vec![Op::Write(0)];
        for w in 1..=cfg.l2.ways as u64 {
            v.push(Op::Read(w * set_stride));
        }
        let stats = sim.run(vec![ThreadSpec::new(0, ops(v))]);
        assert_eq!(stats.l2_writebacks, 1);
        assert_eq!(stats.total_write_bytes(), 64);
    }

    #[test]
    fn store_misses_do_not_block_the_thread() {
        // A burst of store misses (fitting the store buffer) costs far less
        // thread time than the same number of load misses.
        let sim = Simulation::new(exact_cfg());
        let stores: Vec<Op> = (0..8u64).map(|i| Op::Write(i * 4096)).collect();
        let loads: Vec<Op> = (0..8u64).map(|i| Op::Read((i + 100) * 4096)).collect();
        let s = sim.run(vec![ThreadSpec::new(0, ops(stores))]);
        let l = sim.run(vec![ThreadSpec::new(0, ops(loads))]);
        assert!(
            s.end_cycle * 2 < l.end_cycle,
            "stores ({}) should overlap, loads ({}) serialize",
            s.end_cycle,
            l.end_cycle
        );
    }

    #[test]
    fn full_store_buffer_stalls() {
        let mut cfg = exact_cfg();
        cfg.core.store_buffer = 2;
        let sim = Simulation::new(cfg);
        let many: Vec<Op> = (0..16u64).map(|i| Op::Write(i * 4096)).collect();
        let few: Vec<Op> = (0..2u64).map(|i| Op::Write(i * 4096)).collect();
        let many_t = sim.run(vec![ThreadSpec::new(0, ops(many))]).end_cycle;
        let few_t = sim.run(vec![ThreadSpec::new(0, ops(few))]).end_cycle;
        assert!(
            many_t > 4 * few_t,
            "16 stores through a 2-entry buffer must serialize: {few_t} vs {many_t}"
        );
    }

    #[test]
    fn compute_serializes_on_shared_fpu() {
        let sim = Simulation::new(exact_cfg());
        // 8 threads on one core, 100 flops each, FPU does 1 flop/cycle:
        // must take ≈ 800 cycles, not 100.
        let threads: Vec<ThreadSpec> = (0..8)
            .map(|_| ThreadSpec::new(0, ops(vec![Op::Compute(100)])))
            .collect();
        let stats = sim.run(threads);
        assert!(stats.end_cycle >= 800, "got {}", stats.end_cycle);
        assert_eq!(stats.flops, 800);
    }

    #[test]
    fn compute_scales_across_cores() {
        let sim = Simulation::new(exact_cfg());
        let threads: Vec<ThreadSpec> = (0..8)
            .map(|c| ThreadSpec::new(c, ops(vec![Op::Compute(100)])))
            .collect();
        let stats = sim.run(threads);
        assert!(
            stats.end_cycle < 200,
            "independent FPUs, got {}",
            stats.end_cycle
        );
    }

    #[test]
    fn barrier_synchronizes_and_opens_window() {
        let sim = Simulation::new(exact_cfg()).measure_after_barrier(0);
        let mk = |delay: u32| ops(vec![Op::Delay(delay), Op::Barrier(0), Op::Delay(50)]);
        let stats = sim.run(vec![
            ThreadSpec::new(0, mk(1000)),
            ThreadSpec::new(1, mk(10)),
        ]);
        // Window starts when the slowest thread reaches the barrier.
        assert_eq!(stats.start_cycle, 1000);
        assert_eq!(stats.end_cycle, 1050);
        assert_eq!(stats.cycles(), 50);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn core_capacity_enforced() {
        let sim = Simulation::t2();
        let threads: Vec<ThreadSpec> = (0..9)
            .map(|_| ThreadSpec::new(0, ops(vec![Op::Delay(1)])))
            .collect();
        sim.run(threads);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_barriers_deadlock_is_detected() {
        let sim = Simulation::t2();
        sim.run(vec![
            ThreadSpec::new(0, ops(vec![Op::Barrier(0)])),
            ThreadSpec::new(1, ops(vec![Op::Delay(1)])),
        ]);
    }

    /// Builds the 64-thread STREAM-triad-like workload of the paper with
    /// array-base offsets `offs` (A store, B/C loads) and returns the run.
    fn triad_run(offs: [u64; 3]) -> SimStats {
        triad_run_with(offs, crate::policy::PolicyKind::Fifo)
    }

    /// As [`triad_run`], but under the given arbitration policy.
    fn triad_run_with(offs: [u64; 3], policy: crate::policy::PolicyKind) -> SimStats {
        let mut cfg = ChipConfig::ultrasparc_t2();
        cfg.policy = policy;
        let sim = Simulation::new(cfg);
        let n = 1 << 12; // elements per thread chunk
        let chunk_bytes = (n * 8) as u64;
        let threads: Vec<ThreadSpec> = (0..64)
            .map(|t| {
                let a = offs[0] + t as u64 * chunk_bytes;
                let b = (1 << 30) + offs[1] + t as u64 * chunk_bytes;
                let c = (2 << 30) + offs[2] + t as u64 * chunk_bytes;
                ThreadSpec::new(
                    (t % 8) as usize,
                    Box::new(StreamLoop::new(
                        vec![
                            StreamSpec::load(b),
                            StreamSpec::load(c),
                            StreamSpec::store(a),
                        ],
                        n,
                        8,
                        2.0,
                        64,
                    )) as Program,
                )
            })
            .collect();
        sim.run(threads)
    }

    #[test]
    fn congruent_triad_convoys_spread_triad_flies() {
        // The paper's Fig. 2/Fig. 4 in miniature: all array bases congruent
        // mod 512 B → one controller at a time; optimal offsets → all four.
        let convoy = triad_run([0, 0, 0]);
        let spread = triad_run([0, 128, 256]);
        assert_eq!(convoy.total_read_bytes(), spread.total_read_bytes());
        let speedup = convoy.cycles() as f64 / spread.cycles() as f64;
        assert!(
            speedup > 1.5,
            "offset optimization must give a large speedup, got {speedup:.2}×"
        );
        let convoy_util =
            convoy.mc_busy_cycles.iter().sum::<u64>() as f64 / (4 * convoy.cycles()) as f64;
        let spread_util =
            spread.mc_busy_cycles.iter().sum::<u64>() as f64 / (4 * spread.cycles()) as f64;
        assert!(
            spread_util > 1.3 * convoy_util,
            "utilization gap: convoy {convoy_util:.2} vs spread {spread_util:.2}"
        );
    }

    #[test]
    fn offset_32_words_recovers_partially() {
        // Fig. 2: at odd multiples of 32 DP words two controllers are
        // addressed → roughly halfway recovery.
        let convoy = triad_run([0, 0, 0]);
        let half = triad_run([0, 256, 512]); // B flips bit 8, C congruent
        let spread = triad_run([0, 128, 256]);
        let t_convoy = convoy.cycles() as f64;
        let t_half = half.cycles() as f64;
        let t_spread = spread.cycles() as f64;
        assert!(
            t_half < 0.9 * t_convoy,
            "two controllers must beat one: {t_half} vs {t_convoy}"
        );
        assert!(
            t_half > 1.05 * t_spread,
            "two controllers must trail three: {t_half} vs {t_spread}"
        );
    }

    #[test]
    fn single_thread_streams_are_latency_bound() {
        // One thread, one outstanding miss: bandwidth ≈ 64 B per full miss
        // latency — far below one controller's service rate.
        let sim = Simulation::new(exact_cfg());
        let cfg = sim.config().clone();
        let n = 1 << 14;
        let stats = sim.run(vec![ThreadSpec::new(
            0,
            Box::new(StreamLoop::new(vec![StreamSpec::load(0)], n, 8, 0.0, 64)) as Program,
        )]);
        let lines = (n * 8 / 64) as u64;
        let per_miss = stats.cycles() as f64 / lines as f64;
        let min_latency = (1 + cfg.l2.bank_cycles + cfg.mem.read_service) as f64;
        assert!(
            per_miss >= min_latency,
            "per-miss time {per_miss} below physical minimum"
        );
        assert!(
            per_miss > 100.0,
            "single thread must be latency-bound: {per_miss}"
        );
    }

    #[test]
    fn more_threads_hide_latency() {
        let run = |n_threads: usize| {
            let sim = Simulation::t2();
            let n = 1 << 13;
            let threads: Vec<ThreadSpec> = (0..n_threads)
                .map(|t| {
                    let base = (t as u64) * (16 << 20) + 128 * (t as u64 % 4);
                    ThreadSpec::new(
                        t % 8,
                        Box::new(StreamLoop::new(vec![StreamSpec::load(base)], n, 8, 0.0, 64))
                            as Program,
                    )
                })
                .collect();
            let stats = sim.run(threads);
            let cfg = ChipConfig::ultrasparc_t2();
            stats.actual_bandwidth_gbs(&cfg)
        };
        let bw8 = run(8);
        let bw32 = run(32);
        assert!(
            bw32 > 2.0 * bw8,
            "32 threads should hide far more latency than 8: {bw8:.1} vs {bw32:.1} GB/s"
        );
    }

    #[test]
    fn warmup_window_excludes_cold_misses() {
        let sim = Simulation::new(exact_cfg()).measure_after_barrier(0);
        // Small array fits in L2: sweep twice; the measured window sees only
        // hits.
        let sweep = || StreamLoop::new(vec![StreamSpec::load(0)], 1 << 10, 8, 0.0, 64);
        let mut programs = sweep_programs(1, vec![vec![(0, sweep())], vec![(0, sweep())]]);
        let stats = sim.run(vec![ThreadSpec::new(0, programs.remove(0))]);
        assert_eq!(stats.l2_misses, 0, "second sweep must be all hits");
        assert!(stats.l2_hits > 0);
    }

    #[test]
    fn outstanding_misses_ablation_helps_a_lone_thread() {
        // With 4 outstanding misses a single streaming thread overlaps
        // latency and finishes much sooner.
        let mut cfg = exact_cfg();
        let run = |cfg: &ChipConfig| {
            let sim = Simulation::new(cfg.clone());
            sim.run(vec![ThreadSpec::new(
                0,
                Box::new(StreamLoop::new(
                    vec![StreamSpec::load(0)],
                    1 << 13,
                    8,
                    0.0,
                    64,
                )) as Program,
            )])
            .cycles()
        };
        let one = run(&cfg);
        cfg.core.outstanding_misses = 4;
        let four = run(&cfg);
        assert!(
            (four as f64) < 0.5 * one as f64,
            "4 outstanding misses should at least halve the time: {one} -> {four}"
        );
    }

    #[test]
    fn bank_mshr_limit_throttles_concentrated_misses() {
        // All threads stream with a 512 B stride through ONE bank:
        // outstanding misses are capped by that bank's MSHRs; spreading the
        // same traffic over all 8 banks lifts the cap.
        let run = |spread: bool| {
            let mut cfg = ChipConfig::ultrasparc_t2();
            cfg.core.gang_window = None; // isolate the MSHR effect
            let sim = Simulation::new(cfg);
            let threads: Vec<ThreadSpec> = (0..64)
                .map(|t| {
                    let base =
                        (t as u64) * (16 << 20) + if spread { 64 * (t as u64 % 8) } else { 0 };
                    let ops_v: Vec<Op> = (0..256u64).map(|i| Op::Read(base + i * 512)).collect();
                    ThreadSpec::new((t % 8) as usize, Box::new(ops_v.into_iter()) as Program)
                })
                .collect();
            sim.run(threads).cycles()
        };
        let one_bank = run(false);
        let all_banks = run(true);
        assert!(
            one_bank as f64 > 1.8 * all_banks as f64,
            "single-bank misses must be MSHR-throttled: {one_bank} vs {all_banks}"
        );
    }

    #[test]
    fn run_programs_matches_explicit_thread_specs() {
        let sim = Simulation::new(exact_cfg());
        let mk = || -> Vec<Program> {
            (0..16u64)
                .map(|t| {
                    let ops_v: Vec<Op> = (0..64u64)
                        .map(|i| Op::Read(t * (1 << 20) + i * 64))
                        .collect();
                    Box::new(ops_v.into_iter()) as Program
                })
                .collect()
        };
        let via_batch = sim.run_programs(mk(), |tid| tid % 8);
        let via_specs = sim.run(
            mk().into_iter()
                .enumerate()
                .map(|(tid, p)| ThreadSpec::new(tid % 8, p))
                .collect(),
        );
        assert_eq!(via_batch, via_specs);
    }

    #[test]
    fn deterministic_repeatability() {
        let a = triad_run([0, 128, 256]);
        let b = triad_run([0, 128, 256]);
        assert_eq!(a, b, "simulations must be bit-reproducible");
    }

    #[test]
    fn arbitrated_policies_conserve_traffic_and_stay_deterministic() {
        use crate::policy::PolicyKind;
        let fifo = triad_run([0, 0, 0]);
        for policy in [
            PolicyKind::ReadFirst { starvation_cap: 8 },
            PolicyKind::FrFcfs { starvation_cap: 8 },
        ] {
            let a = triad_run_with([0, 0, 0], policy);
            let b = triad_run_with([0, 0, 0], policy);
            assert_eq!(a, b, "{policy:?} must be bit-reproducible");
            // Reordering changes *when*, never *what*: the traffic volume
            // is identical to FIFO's.
            assert_eq!(a.mem_ops, fifo.mem_ops, "{policy:?} op conservation");
            assert_eq!(a.l2_misses, fifo.l2_misses, "{policy:?} miss count");
            assert_eq!(
                a.total_read_bytes(),
                fifo.total_read_bytes(),
                "{policy:?} read traffic"
            );
            // Write-backs are eviction-order dependent (reordering shifts
            // which lines are still dirty at the end), so only per-run
            // conservation and closeness hold for them.
            assert_eq!(
                a.total_write_bytes(),
                a.l2_writebacks * 64,
                "{policy:?} write-back byte conservation"
            );
            let wr = a.total_write_bytes() as f64 / fifo.total_write_bytes() as f64;
            assert!(
                (0.9..1.1).contains(&wr),
                "{policy:?} write traffic far from FIFO's: {wr:.3}"
            );
            assert!(a.end_cycle > 0 && a.cycles() > 0);
        }
    }

    #[test]
    fn arbitrated_fifo_semantics_stay_close_to_the_inline_path() {
        // The inline and the arbitrated back end share the memory-op front
        // end but are different service disciplines: arbitration serves
        // only arrived requests once the southbound channel is free, and
        // draws jitter in service order. So a FIFO-like arbitrated policy
        // (read-first with an immediate starvation cap is oldest-first) is
        // close to, not equal to, the inline path: measured 1.0000×,
        // 1.0015× and 0.9945× on the spread, aliased and half-period
        // triads. A front-end slip that only one back end absorbs would
        // show up here as a larger gap.
        for offs in [[0, 128, 256], [0, 0, 0], [0, 256, 512]] {
            let fifo = triad_run(offs);
            let arb = triad_run_with(
                offs,
                crate::policy::PolicyKind::ReadFirst { starvation_cap: 0 },
            );
            let ratio = arb.cycles() as f64 / fifo.cycles() as f64;
            assert!(
                (0.98..1.02).contains(&ratio),
                "cap-0 read-first should track FIFO on the {offs:?} triad: {ratio:.4}"
            );
        }
    }
}
