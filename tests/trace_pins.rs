//! Bitwise pins of every simulator trace builder: an FNV-1a-64 digest of
//! each simulated thread's complete op sequence, for each kernel builder
//! (`stream`, `triad`, `jacobi`, `lbm`) and each tuner [`Workload`]
//! constructor under three layout specs, plus a digest of each workload's
//! analytic `stream_units` (bases, kinds, lines). A mismatch means a trace
//! builder changed what the simulator or the model sees, not a reason to
//! re-pin: a refactor of the builders must keep every digest.

use t2opt::autotune::Workload;
use t2opt::core::advisor::StreamKind;
use t2opt::core::layout::LayoutSpec;
use t2opt::kernels::jacobi::{self, JacobiConfig};
use t2opt::kernels::lbm::{self, LbmConfig, LbmLayout};
use t2opt::kernels::stream::{self, StreamConfig, StreamKernel};
use t2opt::kernels::triad::{self, TriadConfig, TriadLayout};
use t2opt::sim::trace::{Op, Program};
use t2opt::sim::ChipConfig;

/// FNV-1a-64 over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, tag: u8, value: u64) {
        for b in std::iter::once(tag).chain(value.to_le_bytes()) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Hashes every thread's op sequence, threads in order.
fn put_programs(h: &mut Fnv, programs: Vec<Program>) {
    h.put(0xfe, programs.len() as u64);
    for (t, program) in programs.into_iter().enumerate() {
        h.put(0xff, t as u64);
        for op in program {
            match op {
                Op::Read(a) => h.put(0, a),
                Op::Write(a) => h.put(1, a),
                Op::Compute(f) => h.put(2, f as u64),
                Op::Delay(d) => h.put(3, d as u64),
                Op::Barrier(b) => h.put(4, b as u64),
            }
        }
    }
}

/// Digest of several trace builds, in order.
fn traces_digest(builds: impl IntoIterator<Item = Vec<Program>>) -> String {
    let mut h = Fnv::new();
    for programs in builds {
        put_programs(&mut h, programs);
    }
    h.hex()
}

/// The three layout specs every workload is pinned under: packed, the
/// Fig. 4 block offset, and the Fig. 6 row alignment plus shift.
fn specs() -> [LayoutSpec; 3] {
    [
        LayoutSpec::new().base_align(8192),
        LayoutSpec::new().base_align(8192).block_offset(128),
        LayoutSpec::new().base_align(8192).seg_align(512).shift(128),
    ]
}

/// Per workload constructor: the digest of its programs and the digest of
/// its `stream_units` (each unit's lines, then each stream's kind and
/// base), both over [`specs`].
fn workload_digests() -> Vec<(&'static str, String, String)> {
    let workloads = [
        ("triad", Workload::triad(1000, 7)),
        ("triad_smoke", Workload::triad_smoke(1000, 7)),
        ("jacobi", Workload::jacobi(20, 6)),
        ("jacobi_smoke", Workload::jacobi_smoke(20, 6)),
        ("lbm IJKv", Workload::lbm(6, LbmLayout::IJKv, 4)),
        ("lbm IvJK", Workload::lbm(6, LbmLayout::IvJK, 4)),
        ("lbm_smoke IJKv", Workload::lbm_smoke(6, LbmLayout::IJKv, 4)),
        ("lbm_smoke IvJK", Workload::lbm_smoke(6, LbmLayout::IvJK, 4)),
        (
            "mix 3r2w",
            Workload::StreamMix {
                reads: 3,
                writes: 2,
                n: 900,
                threads: 5,
                ntimes: 2,
                warmup: true,
            },
        ),
    ];
    workloads
        .into_iter()
        .map(|(name, w)| {
            let programs = traces_digest(specs().iter().map(|spec| w.build_programs(spec)));
            let mut units = Fnv::new();
            for spec in specs() {
                for unit in w.stream_units(&spec) {
                    units.put(0xff, unit.lines);
                    for s in &unit.streams {
                        let kind = match s.kind {
                            StreamKind::Read => 0,
                            StreamKind::Write => 1,
                            StreamKind::Writeback => 2,
                        };
                        units.put(kind, s.base);
                    }
                }
            }
            (name, programs, units.hex())
        })
        .collect()
}

/// Per kernel builder family: the digest of its variants' programs at
/// small sizes.
fn kernel_digests() -> Vec<(&'static str, String)> {
    let chip = ChipConfig::ultrasparc_t2();
    let mut out = Vec::new();
    for kernel in [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ] {
        let builds = [0, 16]
            .map(|offset| stream::build_trace(&StreamConfig::fig2(1000, offset, 6), kernel, &chip));
        out.push((kernel.name(), traces_digest(builds)));
    }
    let layouts = [
        TriadLayout::Plain,
        TriadLayout::Align8k,
        TriadLayout::AlignOffset(128),
    ];
    let builds = layouts.map(|layout| {
        let cfg = TriadConfig {
            n: 1000,
            layout,
            threads: 6,
            ntimes: 2,
        };
        triad::build_trace(&cfg, &chip)
    });
    out.push(("vector triad", traces_digest(builds)));
    let builds = [JacobiConfig::optimized(20, 6), JacobiConfig::plain(20, 6)]
        .map(|cfg| jacobi::build_trace(&cfg, &chip));
    out.push(("jacobi", traces_digest(builds)));
    for (name, layout) in [("lbm IJKv", LbmLayout::IJKv), ("lbm IvJK", LbmLayout::IvJK)] {
        let mut builds = Vec::new();
        for fused in [false, true] {
            for elem_size in [8, 4] {
                for timesteps in [1, 2] {
                    let cfg = LbmConfig {
                        elem_size,
                        timesteps,
                        y_rows: Some(4),
                        ..LbmConfig::new(6, layout, 4, fused)
                    };
                    builds.push(lbm::build_trace(&cfg, &chip));
                }
            }
        }
        out.push((name, traces_digest(builds)));
    }
    out
}

/// `(workload, programs digest, stream_units digest)`, in
/// [`workload_digests`] order.
const WORKLOAD_PINS: &[(&str, &str, &str)] = &[
    ("triad", "d8982c0e77d16b5c", "ca48e4d55fb7db36"),
    ("triad_smoke", "77be823ad53c08ac", "ca48e4d55fb7db36"),
    ("jacobi", "ca2ee3e4bae2817e", "dfaf1af3ccc912d4"),
    ("jacobi_smoke", "63dbf071d74637ae", "dfaf1af3ccc912d4"),
    ("lbm IJKv", "6723d6a01ca8e3f9", "beeb5e9a31432360"),
    ("lbm IvJK", "6ab0dd0a00f7206d", "ea3d4fe20f10fa43"),
    ("lbm_smoke IJKv", "f176354776c9fa25", "fce82c651216dba1"),
    ("lbm_smoke IvJK", "1f9883c183e60fbd", "3a8c22da05190035"),
    ("mix 3r2w", "632a85a0a4cc3227", "8c0dee141befdc66"),
];

/// `(kernel builder family, programs digest)`, in [`kernel_digests`] order.
const KERNEL_PINS: &[(&str, &str)] = &[
    ("copy", "c3c2138cb85d6c09"),
    ("scale", "df1b5bfe29f642f9"),
    ("add", "f6c04ddadc369a95"),
    ("triad", "543b64a7c529faff"),
    ("vector triad", "e8b5567434cb3249"),
    ("jacobi", "d36d68526064e298"),
    ("lbm IJKv", "ea4a322f09d49065"),
    ("lbm IvJK", "e624287fb391bbf5"),
];

#[test]
fn workload_programs_and_units_are_bitwise_pinned() {
    let current = workload_digests();
    let current: Vec<(&str, &str, &str)> = current
        .iter()
        .map(|(name, p, u)| (*name, p.as_str(), u.as_str()))
        .collect();
    assert_eq!(current, WORKLOAD_PINS, "workload traces changed");
}

#[test]
fn kernel_traces_are_bitwise_pinned() {
    let current = kernel_digests();
    let current: Vec<(&str, &str)> = current.iter().map(|(n, d)| (*n, d.as_str())).collect();
    assert_eq!(current, KERNEL_PINS, "kernel traces changed");
}
