//! Access-trace abstraction: kernels describe each simulated thread's work
//! as a lazy stream of [`Op`]s at cache-line granularity.
//!
//! Rather than recording giant traces, kernels build *generators*:
//! [`StreamLoop`] covers every unit-stride multi-stream loop in the paper
//! (STREAM, vector triad, one Jacobi row, one LBM x-line) — it walks `n`
//! elements and emits one `Read`/`Write` per stream exactly when the walk
//! enters a new cache line of that stream, plus the configured compute work.
//! Arbitrary kernels can supply any `Iterator<Item = Op>`.
//!
//! Every kernel lists each sweep's work as `(owner thread, loop)` items in
//! the order its access analysis enumerates them (a thread's chunks, a
//! grid's rows); [`sweep_programs`] turns those lists into per-thread
//! programs with a global barrier between sweeps.

/// One simulated-thread operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load from the line containing this byte address (blocking on miss).
    Read(u64),
    /// Store to the line containing this byte address (write-allocate: a
    /// miss triggers a blocking read-for-ownership; the line is dirtied and
    /// written back on eviction).
    Write(u64),
    /// Floating-point work: charged against the core's shared FPU.
    Compute(u32),
    /// Plain pipeline cycles charged to this thread only (integer/branch
    /// work, loop overhead).
    Delay(u32),
    /// Synchronization point: the thread waits until *all* threads have
    /// reached barrier `id`. Ids must be used in increasing order (0, 1, …)
    /// and identically by every thread — exactly like the implicit barrier
    /// at the end of an OpenMP parallel-for.
    Barrier(u32),
}

/// A boxed lazy op stream for one simulated thread.
pub type Program = Box<dyn Iterator<Item = Op>>;

/// Direction of a [`StreamLoop`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The stream is loaded.
    Load,
    /// The stream is stored.
    Store,
}

/// One unit-stride stream participating in a [`StreamLoop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Byte address of the stream's element 0 for this loop.
    pub base: u64,
    /// Load or store.
    pub dir: Dir,
}

impl StreamSpec {
    /// A load stream at `base`.
    pub fn load(base: u64) -> Self {
        StreamSpec {
            base,
            dir: Dir::Load,
        }
    }

    /// A store stream at `base`.
    pub fn store(base: u64) -> Self {
        StreamSpec {
            base,
            dir: Dir::Store,
        }
    }
}

/// Generates the op stream of a loop `for i in 0..n { touch every stream at
/// element i; do flops }`, emitting memory ops only at line boundaries.
///
/// Per block of elements sharing a cache line, the emission order is: all
/// new-line loads, one `Compute` for the block's flops, then all new-line
/// stores — matching how an in-order core drains a stencil/streaming loop
/// body.
pub struct StreamLoop {
    streams: Vec<StreamSpec>,
    last_line: Vec<Option<u64>>,
    n: usize,
    elem_size: u64,
    flops_per_elem: f64,
    line_mask: u64,
    /// Memory ops emitted per cache line per stream (default 1). With
    /// `touches > 1` each line is accessed `touches` times as the loop
    /// walks through it, so a line evicted *mid-line* by set-conflicting
    /// streams re-misses — the mechanism behind the paper's "ruinous"
    /// D3Q19 cache thrashing at N+2 = 0 (mod 64), invisible at
    /// one-op-per-line granularity.
    touches: usize,
    /// Next element index to process.
    i: usize,
    /// Queued ops for the current block (drained before advancing).
    pending: std::collections::VecDeque<Op>,
    flop_carry: f64,
}

impl StreamLoop {
    /// A loop over `n` elements of `elem_size` bytes touching `streams`,
    /// performing `flops_per_elem` floating-point operations per element.
    /// `line` is the cache line size (64 on the T2).
    pub fn new(
        streams: Vec<StreamSpec>,
        n: usize,
        elem_size: usize,
        flops_per_elem: f64,
        line: usize,
    ) -> Self {
        assert!(elem_size > 0 && line.is_power_of_two());
        let k = streams.len();
        StreamLoop {
            streams,
            last_line: vec![None; k],
            n,
            elem_size: elem_size as u64,
            flops_per_elem,
            line_mask: !(line as u64 - 1),
            touches: 1,
            i: 0,
            pending: std::collections::VecDeque::new(),
            flop_carry: 0.0,
        }
    }

    /// Emits `touches` accesses per cache line per stream instead of one
    /// (see the field docs; used by the LBM traces to expose intra-line
    /// re-misses under set thrashing).
    pub fn with_touches(mut self, touches: usize) -> Self {
        self.touches = touches.max(1);
        self
    }

    /// Elements per cache line (block size) for this loop.
    fn block_elems(&self) -> usize {
        (((!self.line_mask) + 1) / self.elem_size).max(1) as usize
    }

    fn refill(&mut self) {
        if self.i >= self.n {
            return;
        }
        // With touches > 1, process the line in sub-blocks so each stream
        // re-touches its current line `touches` times.
        let block = (self.block_elems() / self.touches)
            .max(1)
            .min(self.n - self.i);
        let force = self.touches > 1;
        // Loads for every stream line entered in this sub-block.
        for which in 0..self.streams.len() {
            if self.streams[which].dir != Dir::Load {
                continue;
            }
            self.push_new_lines(which, block, force);
        }
        // Compute for the sub-block.
        let flops = self.flops_per_elem * block as f64 + self.flop_carry;
        let whole = flops.floor();
        self.flop_carry = flops - whole;
        if whole > 0.0 {
            self.pending.push_back(Op::Compute(whole as u32));
        }
        // Stores.
        for which in 0..self.streams.len() {
            if self.streams[which].dir != Dir::Store {
                continue;
            }
            self.push_new_lines(which, block, force);
        }
        self.i += block;
    }

    /// Emits the memory ops stream `which` performs over the next `block`
    /// elements: one op per newly entered line, or (when `force`) one op
    /// per sub-block regardless, modelling repeated element touches.
    fn push_new_lines(&mut self, which: usize, block: usize, force: bool) {
        let s = self.streams[which];
        let first = s.base + self.i as u64 * self.elem_size;
        let last = s.base + (self.i + block - 1) as u64 * self.elem_size;
        let mut line = first & self.line_mask;
        let last_line = last & self.line_mask;
        let mut first_line = true;
        loop {
            if self.last_line[which] != Some(line) || (force && first_line) {
                self.last_line[which] = Some(line);
                self.pending.push_back(match s.dir {
                    Dir::Load => Op::Read(line),
                    Dir::Store => Op::Write(line),
                });
            }
            first_line = false;
            if line == last_line {
                break;
            }
            line += (!self.line_mask) + 1;
        }
    }
}

impl Iterator for StreamLoop {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            self.refill();
        }
        self.pending.pop_front()
    }
}

/// Builds every simulated thread's program from per-sweep work lists.
///
/// `sweeps[s]` lists sweep `s`'s work items as `(owner thread, ops)`.
/// Thread `t` runs its items of sweep `s` in list order, then waits at
/// barrier `s` (no barrier follows the last sweep) — also when it owns
/// nothing in that sweep, as every thread meets the implicit barrier at
/// the end of an OpenMP parallel-for. So with a warm-up sweep first, the
/// measurement window opens at barrier 0
/// ([`crate::Simulation::measure_after_barrier`]).
///
/// # Panics
/// Panics if an item's owner is not below `threads`.
pub fn sweep_programs<I>(threads: usize, sweeps: Vec<Vec<(usize, I)>>) -> Vec<Program>
where
    I: Iterator<Item = Op> + 'static,
{
    let last = sweeps.len().saturating_sub(1);
    let mut work: Vec<Vec<Vec<I>>> = (0..threads)
        .map(|_| (0..sweeps.len()).map(|_| Vec::new()).collect())
        .collect();
    for (s, items) in sweeps.into_iter().enumerate() {
        for (owner, item) in items {
            work[owner][s].push(item);
        }
    }
    work.into_iter()
        .map(|per_sweep| -> Program {
            Box::new(
                per_sweep
                    .into_iter()
                    .enumerate()
                    .flat_map(move |(s, items)| {
                        let barrier = (s < last).then_some(Op::Barrier(s as u32));
                        items.into_iter().flatten().chain(barrier)
                    }),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(sl: StreamLoop) -> Vec<Op> {
        sl.collect()
    }

    #[test]
    fn aligned_single_read_stream() {
        // 16 f64 elements from an aligned base = 2 lines.
        let ops = collect(StreamLoop::new(
            vec![StreamSpec::load(0x1000)],
            16,
            8,
            0.0,
            64,
        ));
        assert_eq!(ops, vec![Op::Read(0x1000), Op::Read(0x1040)]);
    }

    #[test]
    fn unaligned_stream_touches_extra_line_once() {
        // Base 0x1008, 16 elements → bytes [0x1008, 0x1088) → 3 lines, each
        // read exactly once.
        let ops = collect(StreamLoop::new(
            vec![StreamSpec::load(0x1008)],
            16,
            8,
            0.0,
            64,
        ));
        assert_eq!(
            ops,
            vec![Op::Read(0x1000), Op::Read(0x1040), Op::Read(0x1080)]
        );
    }

    #[test]
    fn triad_block_structure() {
        // A = B + s*C over one line: reads B, C, compute, write A.
        let a = 0x0u64;
        let b = 0x10000u64;
        let c = 0x20000u64;
        let ops = collect(StreamLoop::new(
            vec![
                StreamSpec::store(a),
                StreamSpec::load(b),
                StreamSpec::load(c),
            ],
            8,
            8,
            2.0,
            64,
        ));
        assert_eq!(
            ops,
            vec![Op::Read(b), Op::Read(c), Op::Compute(16), Op::Write(a)]
        );
    }

    #[test]
    fn fractional_flops_accumulate_exactly() {
        // 0.5 flops per element × 64 elements = 32 flops total.
        let ops = collect(StreamLoop::new(vec![StreamSpec::load(0)], 64, 8, 0.5, 64));
        let flops: u32 = ops
            .iter()
            .filter_map(|op| match op {
                Op::Compute(f) => Some(*f),
                _ => None,
            })
            .sum();
        assert_eq!(flops, 32);
    }

    #[test]
    fn total_lines_match_span() {
        // n elements spanning exactly n*8/64 lines per stream when aligned.
        let n = 1000;
        let ops = collect(StreamLoop::new(
            vec![StreamSpec::load(0), StreamSpec::store(1 << 20)],
            n,
            8,
            1.0,
            64,
        ));
        let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
        let writes = ops.iter().filter(|o| matches!(o, Op::Write(_))).count();
        assert_eq!(reads, n * 8 / 64); // 1000*8 = 8000 B = exactly 125 lines
        assert_eq!(writes, 125);
    }

    #[test]
    fn empty_loop_emits_nothing() {
        let ops = collect(StreamLoop::new(vec![StreamSpec::load(0)], 0, 8, 1.0, 64));
        assert!(ops.is_empty());
    }

    #[test]
    fn small_elements_share_lines() {
        // f32 (4 B): 32 elements = 128 B = 2 lines.
        let ops = collect(StreamLoop::new(vec![StreamSpec::load(0)], 32, 4, 0.0, 64));
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn sweeps_end_in_barriers_even_for_idle_threads() {
        let one = |a: u64| vec![Op::Read(a)].into_iter();
        let programs = sweep_programs(
            3,
            vec![
                vec![(0, one(0)), (2, one(64)), (0, one(128))],
                vec![(1, one(192))],
                vec![(2, one(256))],
            ],
        );
        let ops: Vec<Vec<Op>> = programs.into_iter().map(|p| p.collect()).collect();
        assert_eq!(
            ops,
            vec![
                vec![Op::Read(0), Op::Read(128), Op::Barrier(0), Op::Barrier(1)],
                vec![Op::Barrier(0), Op::Read(192), Op::Barrier(1)],
                vec![Op::Read(64), Op::Barrier(0), Op::Barrier(1), Op::Read(256)],
            ]
        );
    }
}
