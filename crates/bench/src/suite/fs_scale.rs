//! `fs_scale`: the file-system companion of `mt_scale` — wall-clock
//! throughput of whole workloads partitioned by [`workloads::run_concurrent`]
//! over one shared file system, 1/2/4/8 worker threads, on sharded ByteFS and
//! the single-lock ext4/nova baselines. Why it exists and how to read it:
//! `DESIGN.md`.

use mssd::MssdConfig;
use workloads::filebench::{Filebench, Personality};
use workloads::micro::{Micro, MicroOp};
use workloads::{run_concurrent, FsKind, Scale, Workload};

use crate::drive::{best_of, round3};
use crate::{BenchEntry, BenchReport};

/// Thread counts swept (the gate compares 4 threads vs 1).
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Timed repetitions per configuration; the fastest is reported.
const REPEATS: usize = 2;

/// One timed run on a fresh file system. Returns (wall seconds, ops, virtual
/// kops/s).
fn timed_run(kind: FsKind, workload: &dyn Workload, threads: usize) -> (f64, u64, f64) {
    // 1 GiB volume with the default 256 MB device DRAM region: the measured
    // runs never trigger a stop-the-world log cleaning, so the numbers
    // isolate host-lock scaling (cleaning stalls are fig14's subject).
    let (device, fs) = kind.build(MssdConfig::default().with_capacity(1 << 30));
    let result = run_concurrent(&device, &fs, workload, threads, 42)
        .unwrap_or_else(|e| panic!("{kind} {} x{threads}: {e:?}", workload.name()));
    (result.wall_ns as f64 / 1e9, result.aggregate.ops, result.aggregate.kops_per_sec)
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    // Warmup: brings the CPU out of its idle frequency state so the first
    // measured configuration is not systematically penalized.
    let _ = timed_run(FsKind::ByteFs, &Micro::new(MicroOp::Create, Scale::tiny()), 2);

    let workloads: [Box<dyn Workload>; 3] = [
        // Namespace-bound: every op holds the namespace write lock. The
        // honest contrast case — sharding cannot help pure metadata streams.
        Box::new(Micro::new(MicroOp::Create, scale)),
        // Mixed data/metadata over per-thread file subsets.
        Box::new(Filebench::new(Personality::Fileserver, scale)),
        // Read-heavy data path: per-inode read locks + sharded page cache.
        Box::new(Filebench::new(Personality::Webserver, scale)),
    ];
    let mut report = BenchReport::new("fs_scale", scale.factor());
    for kind in FsKind::SCALING {
        for workload in &workloads {
            let mut one_thread = 0.0;
            for threads in THREADS {
                let (wall, ops, virtual_kops) =
                    best_of(REPEATS, || timed_run(kind, workload.as_ref(), threads), |run| run.0);
                let ops_per_sec = ops as f64 / wall.max(1e-9);
                if threads == 1 {
                    one_thread = ops_per_sec;
                }
                report.entries.push(BenchEntry {
                    throughput_ops_s: round3(ops_per_sec),
                    ..BenchEntry::new(
                        format!("{kind}/{}/t{threads}", workload.name()),
                        &[
                            ("threads", threads as f64),
                            ("ops", ops as f64),
                            ("wall_ms", round3(wall * 1e3)),
                            ("speedup_vs_1t", round3(ops_per_sec / one_thread)),
                            ("virtual_kops_per_sec", round3(virtual_kops)),
                        ],
                    )
                });
            }
        }
    }
    report
}
