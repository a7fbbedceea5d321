//! A fixed reference computation that gauges how fast the host is running.
//!
//! Shared hosts change speed by tens of percent within seconds (a pure ALU
//! loop swings by ±25% on a shared 2-vCPU cloud VM), and every host-time
//! metric moves with them. The benchmark therefore runs one reference chunk
//! after each unit of work and reports host time in units of the run's
//! median chunk: the ratio cancels most of the host's speed while still
//! moving with any change to the t2opt code, which the reference never
//! calls.
//!
//! The mix resembles the simulator's own profile: a binary-heap event loop
//! driving lookups in an LRU set-associative table the size of the
//! simulated L2's tag store. It runs on the calling thread. (A second copy
//! running at once on the other core was tried for the tuner's two-thread
//! trial pool: when the two host cores were co-scheduled it slowed twice as
//! much as the pool did.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Sets of the table: 4096 sets × 16 ways × 24 B ≈ 1.5 MB.
const SETS: usize = 4096;
/// Ways per set.
const WAYS: usize = 16;
/// Events per chunk (about 20 ms on a 2020s server core).
const EVENTS: u64 = 300_000;

#[derive(Clone, Copy, Default)]
struct Way {
    tag: u64,
    stamp: u64,
    valid: bool,
}

/// The reference state, allocated once so chunks never time allocation.
pub struct HostRef {
    sets: Vec<Vec<Way>>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    tick: u64,
    /// Host seconds of every chunk run so far.
    chunks: Vec<f64>,
}

impl HostRef {
    /// Allocates the table.
    pub fn new() -> Self {
        HostRef {
            sets: vec![vec![Way::default(); WAYS]; SETS],
            heap: BinaryHeap::with_capacity(1024),
            tick: 0,
            chunks: Vec::new(),
        }
    }

    /// Runs one fixed chunk; returns its host seconds. Each event pops the
    /// earliest of 64 pending wake-ups, looks a pseudo-random line up in
    /// the table (filling the least recently used way on a miss) and
    /// schedules the next wake-up, like one simulated memory op.
    pub fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut hits = 0u64;
        self.heap.clear();
        for id in 0..64u32 {
            self.heap.push(Reverse((id as u64, id)));
        }
        for _ in 0..EVENTS {
            let Reverse((now, id)) = self.heap.pop().expect("pending wake-ups");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x >> 20) & 0x3_FFFF;
            let (set, tag) = ((line as usize) & (SETS - 1), line >> 12);
            self.tick += 1;
            let ways = &mut self.sets[set];
            let delay = match ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                Some(w) => {
                    w.stamp = self.tick;
                    hits += 1;
                    4
                }
                None => {
                    let victim = ways
                        .iter_mut()
                        .min_by_key(|w| if w.valid { w.stamp } else { 0 })
                        .expect("ways > 0");
                    *victim = Way {
                        tag,
                        stamp: self.tick,
                        valid: true,
                    };
                    100
                }
            };
            self.heap.push(Reverse((now + delay, id)));
        }
        black_box(hits);
        let secs = t.elapsed().as_secs_f64();
        self.chunks.push(secs);
        secs
    }

    /// Runs `f`, then one chunk; returns `f`'s output and host seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.chunk();
        (out, secs)
    }

    /// The reference unit: the median host seconds of the chunks so far.
    pub fn unit(&self) -> f64 {
        crate::stats::median(&self.chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_unit_is_the_median_chunk_and_work_scales_in_it() {
        let mut host = HostRef::new();
        let work = |n: usize| {
            let mut other = HostRef::new();
            (0..n).map(|_| other.chunk()).sum::<f64>()
        };
        let (_, one) = host.time(|| work(1));
        let (_, four) = host.time(|| work(4));
        assert_eq!(host.chunks.len(), 2);
        assert!(
            one / host.unit() > 0.0 && four > 2.0 * one,
            "one {one} four {four}"
        );
    }
}
