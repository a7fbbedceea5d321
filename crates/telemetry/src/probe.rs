//! The simulator-side instrumentation hook: [`SimProbe`].
//!
//! `t2opt_sim::engine` is generic over a `SimProbe` and calls these hooks
//! from its hot loop. The default implementation of every method is an
//! empty `#[inline]` body, and the uninstrumented entry points pass the
//! unit struct [`NoProbe`]; monomorphization therefore compiles the
//! disabled path down to exactly the code the engine had before
//! instrumentation — zero cost, and bitwise-identical `SimStats`
//! (pinned by a regression test in the workspace integration suite).

/// Why a simulated thread spent cycles not retiring ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Blocked on the per-thread outstanding-load-miss budget.
    LoadMiss,
    /// Blocked on a full TSO store buffer.
    StoreBuffer,
    /// Waiting for a core memory-pipe issue slot.
    Pipe,
    /// Serialized behind the core's shared FPU.
    Fpu,
    /// NACKed by a full controller queue or bank miss buffer, retrying.
    Nack,
    /// Parked by the gang drift window.
    Drift,
    /// Parked at a barrier.
    Barrier,
}

/// Engine instrumentation hooks. Every method defaults to an inlined no-op;
/// implementors override the subset they need. Cycle arguments are absolute
/// simulation cycles.
pub trait SimProbe {
    /// A memory controller admitted a request: `busy_added` channel-busy
    /// cycles charged at `at_cycle`, with `queue_len` entries occupying the
    /// controller's input queue afterwards.
    #[inline]
    fn mc_service(
        &mut self,
        _mc: usize,
        _at_cycle: u64,
        _busy_added: u64,
        _queue_len: usize,
        _is_write: bool,
    ) {
    }

    /// An L2 bank served an access.
    #[inline]
    fn bank_access(&mut self, _bank: usize, _at_cycle: u64) {}

    /// A request was NACKed (`mc_full` distinguishes a full controller
    /// queue from a full bank miss buffer).
    #[inline]
    fn nack(&mut self, _at_cycle: u64, _tid: u32, _mc: usize, _bank: usize, _mc_full: bool) {}

    /// Thread `tid` is stalled for `[from_cycle, until_cycle)`.
    #[inline]
    fn stall(&mut self, _tid: u32, _kind: StallKind, _from_cycle: u64, _until_cycle: u64) {}

    /// All threads passed barrier `id` at `at_cycle`.
    #[inline]
    fn barrier_release(&mut self, _id: u32, _at_cycle: u64) {}

    /// The measurement window (re)opened at `at_cycle`: discard everything
    /// collected so far.
    #[inline]
    fn window_reset(&mut self, _at_cycle: u64) {}
}

/// The no-op probe used by the uninstrumented simulator entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl SimProbe for NoProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_hooks_are_callable() {
        let mut p = NoProbe;
        p.mc_service(0, 0, 0, 0, false);
        p.bank_access(0, 0);
        p.nack(0, 0, 0, 0, true);
        p.stall(0, StallKind::Nack, 0, 1);
        p.barrier_release(0, 0);
        p.window_reset(0);
    }
}
