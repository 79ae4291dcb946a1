//! `qd_sweep`: wall-clock throughput and sampled per-command p99 of one op
//! stream ([`CmdGen`]) at queue depth 1 (the synchronous shim — one device
//! call per op) versus batched [`mssd::HostQueue`] submission at depths
//! 4/16/64, on 1/2/4/8 threads with one queue per thread over disjoint
//! partitions. Why it exists and how to read it: `DESIGN.md`.

use std::sync::Arc;
use std::time::Instant;

use mssd::log::PARTITION_BYTES;
use mssd::queue::Command;
use mssd::{DramMode, Mssd, MssdConfig, TxId};
use workloads::{Histogram, Scale};

use crate::drive::{best_of, drive_batched, round3, timed_threads, CmdGen, LAT_SAMPLE};
use crate::{BenchEntry, BenchReport};

/// Commands per thread at scale 1.0.
const OPS_PER_THREAD: usize = 60_000;

/// Thread counts swept (the gate compares qd16 vs qd1 at 4 threads).
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Queue depths swept (1 = the synchronous shim, no batching).
const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// Bytes of each thread's working window inside its partition.
const WINDOW_BYTES: u64 = 4 << 20;

/// Timed repetitions per configuration; the best run is reported. Five
/// (rather than mt_scale's three) because the qd=1-vs-qd=16 ratio is the
/// gated number and single-CPU containers time-slice multi-thread runs,
/// which widens run-to-run variance.
const REPEATS: usize = 5;

/// Thread `thread`'s command stream: its own partition, RNG seed and 2^20
/// transaction ids. `c10k`'s one-thread reference drives the same
/// shape over a smaller window.
pub(crate) fn thread_stream(thread: usize, seed_shift: u32, window_bytes: u64) -> CmdGen {
    CmdGen::new(
        0x51DE_CADE ^ ((thread as u64) << seed_shift) | 1,
        thread as u64 * PARTITION_BYTES,
        window_bytes,
        TxId((thread as u32 + 1) << 20),
    )
}

/// Applies one command through the synchronous depth-1 shim (the qd=1
/// baseline: exactly what the file systems do today).
fn apply_sync(dev: &Mssd, cmd: Command) {
    match cmd {
        Command::ByteWrite { addr, data, txid, cat } => {
            dev.try_byte_write(addr, &data, txid, cat).unwrap()
        }
        Command::ByteRead { addr, len, cat } => {
            std::hint::black_box(dev.try_byte_read(addr, len, cat).unwrap());
        }
        Command::Commit { txid } => dev.commit(txid),
        _ => unreachable!("the sweep only generates byte ops and commits"),
    }
}

/// One thread's measured loop. Returns a histogram of sampled per-command
/// wall latencies in ns.
fn drive_thread(dev: &Arc<Mssd>, thread: usize, qd: usize, ops: usize) -> Histogram {
    let mut gen = thread_stream(thread, 32, WINDOW_BYTES);
    if qd > 1 {
        return drive_batched(dev, &mut gen, qd, ops);
    }
    let mut lat = Histogram::new();
    for i in 0..ops {
        let cmd = gen.next_command();
        if i.is_multiple_of(LAT_SAMPLE) {
            let t0 = Instant::now();
            apply_sync(dev, cmd);
            lat.record(t0.elapsed().as_nanos() as u64);
        } else {
            apply_sync(dev, cmd);
        }
    }
    lat
}

fn timed_run(qd: usize, threads: usize, ops: usize) -> (f64, Histogram) {
    let dev = Mssd::new(MssdConfig::default().with_capacity(1 << 30), DramMode::WriteLog);
    // Warm up in a partition no measured thread uses.
    drive_thread(&dev, 60, qd, (ops / 10).max(500));
    dev.force_clean();
    dev.reset_stats();
    let (wall, lats) = timed_threads(threads, |t| drive_thread(&dev, t, qd, ops));
    let mut lat = Histogram::new();
    lats.iter().for_each(|l| lat.merge(l));
    (wall, lat)
}

fn best_run(qd: usize, threads: usize, ops: usize) -> (f64, Histogram) {
    best_of(REPEATS, || timed_run(qd, threads, ops), |run| run.0)
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    // The floor keeps even smoke-scale runs long enough (tens of ms per
    // configuration) that the gate measures work, not timer noise.
    let ops = ((OPS_PER_THREAD as f64 * scale.factor()) as usize).max(30_000);
    // Bring the CPU out of idle so the first configuration is not penalized.
    let _ = best_run(4, 2, ops / 4);

    let mut report = BenchReport::new("qd_sweep", scale.factor());
    for threads in THREADS {
        let mut qd1 = 0.0;
        for qd in DEPTHS {
            let (wall, lat) = best_run(qd, threads, ops);
            let total_ops = ops * threads;
            let ops_per_sec = total_ops as f64 / wall;
            if qd == 1 {
                qd1 = ops_per_sec;
            }
            let speedup = round3(ops_per_sec / qd1);
            if qd == 16 {
                report.summary.insert(format!("qd16_vs_qd1_t{threads}"), speedup);
            }
            report.entries.push(BenchEntry {
                throughput_ops_s: round3(ops_per_sec),
                p99_ns: lat.value_at(0.99),
                p999_ns: lat.value_at(0.999),
                ..BenchEntry::new(
                    format!("qd{qd}/t{threads}"),
                    &[
                        ("qd", qd as f64),
                        ("threads", threads as f64),
                        ("total_ops", total_ops as f64),
                        ("wall_ms", round3(wall * 1e3)),
                        ("speedup_vs_qd1", speedup),
                    ],
                )
            });
        }
    }
    report
}
