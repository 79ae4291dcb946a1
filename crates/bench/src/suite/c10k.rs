//! `c10k`: 1k/4k/10k logical clients as futures on [`mssd::Runtime`], driven
//! by the one thread that calls `block_on`, against one thread submitting
//! qd=64 batches synchronously, re-measured *in this bench* with the same
//! generator and op budget (wall numbers are not portable between hosts, so
//! the `cN_vs_qd64` ratios compare like with like: one driver thread on each
//! side). The reported p99 is the wall latency of a sampled batch from
//! submission to resolution, time parked on a full SQ *included*. Why it
//! exists and what its artifacts do and do not show: `DESIGN.md`.

use std::sync::Arc;
use std::time::Instant;

use mssd::log::PARTITION_BYTES;
use mssd::queue::Command;
use mssd::{DramMode, Mssd, MssdConfig, Runtime, TxId};
use workloads::{Histogram, Scale};

use super::qd_sweep::thread_stream;
use crate::drive::{best_of, drive_batched, round3, CmdGen, LAT_SAMPLE};
use crate::{BenchEntry, BenchReport};

/// Total commands per configuration at scale 1.0, split across clients.
const OPS_TOTAL: usize = 1_920_000;

/// Logical client counts swept.
const CLIENTS: [usize; 3] = [1000, 4000, 10_000];

/// Reactor queue lanes (clients hash onto these).
const LANES: usize = 32;

/// SQ depth per lane — deep enough that several client batches queue behind
/// one doorbell, shallow enough that 10k clients spend real time parked.
const DEPTH: usize = 256;

/// Commands per async submitted batch. A client future can fill a whole SQ
/// in one grant precisely because it does not block an OS thread while the
/// batch is in flight — deeper batches are the async design's advantage, and
/// the bench uses it.
const BATCH: usize = 64;

/// The synchronous reference's queue depth: the committed qd_sweep winner.
const REF_QD: usize = 64;

/// Timed repetitions per configuration; the best run is reported.
const REPEATS: usize = 3;

/// Bytes of each client's working window inside its lane's partition.
/// Smaller than qd_sweep's 4 MiB because a partition is shared by every
/// client on the lane; windows of co-resident clients may overlap, which is
/// harmless — the stream never verifies data, only drives the device.
const WINDOW_BYTES: u64 = 1 << 20;

/// One logical client: submits `ops` commands in `BATCH`-sized chunks over
/// its reactor lane, awaiting each batch. Returns a histogram of sampled
/// batch wall latencies (ns) and the count of non-Ok outcomes (must be zero
/// — the bench runs no fault plan).
async fn drive_client(rt: Runtime, client: usize, ops: usize) -> (Histogram, u64) {
    let reactor = Arc::clone(rt.reactor());
    let lane = reactor.lane_for(client);
    let base = lane as u64 * PARTITION_BYTES
        + ((client / LANES) as u64 * WINDOW_BYTES) % (PARTITION_BYTES - WINDOW_BYTES);
    // 1024 transaction ids per client — far more commits than one issues.
    let mut gen = CmdGen::new(
        (0x51DE_CADE ^ ((client as u64) << 24)) | 1,
        base,
        WINDOW_BYTES,
        TxId((client as u32 + 1) << 10),
    );
    let mut lat = Histogram::new();
    let mut errors = 0u64;
    let mut issued = 0usize;
    let mut batch_no = 0usize;
    while issued < ops {
        let n = BATCH.min(ops - issued);
        let cmds: Vec<Command> = (0..n).map(|_| gen.next_command()).collect();
        issued += n;
        let sample = batch_no.is_multiple_of(LAT_SAMPLE);
        batch_no += 1;
        let t0 = sample.then(Instant::now);
        let outcomes = reactor.submit_batch(lane, cmds).await;
        if let Some(t0) = t0 {
            lat.record(t0.elapsed().as_nanos() as u64);
        }
        for o in outcomes {
            match o {
                Ok(c) if c.status.is_ok() => {}
                _ => errors += 1,
            }
        }
    }
    (lat, errors)
}

/// The in-bench reference: the committed-best synchronous shape, qd=64
/// batched submission on the calling thread (qd_sweep's drive loop and its
/// transaction-id spacing).
fn drive_sync_thread(dev: &Arc<Mssd>, thread: usize, ops: usize) -> Histogram {
    drive_batched(dev, &mut thread_stream(thread, 24, WINDOW_BYTES), REF_QD, ops)
}

fn fresh_device(warm_ops: usize) -> Arc<Mssd> {
    let dev = Mssd::new(MssdConfig::default().with_capacity(1 << 30), DramMode::WriteLog);
    // Warm up in a partition no measured client or thread uses.
    drive_sync_thread(&dev, 60, warm_ops.max(500));
    dev.force_clean();
    dev.reset_stats();
    dev
}

/// One timed async run: `clients` futures driven by this thread. Returns
/// (wall seconds, sampled batch latency histogram).
fn timed_async(clients: usize, total_ops: usize) -> (f64, Histogram) {
    let ops_per_client = (total_ops / clients).max(16);
    let dev = fresh_device(total_ops / 10);
    let rt = Runtime::new(&dev, LANES, DEPTH);
    let start = Instant::now();
    let handles: Vec<_> =
        (0..clients).map(|c| rt.spawn(drive_client(rt.clone(), c, ops_per_client))).collect();
    let (mut lat, mut errors) = (Histogram::new(), 0u64);
    rt.block_on(async {
        for h in handles {
            let (l, e) = h.await;
            lat.merge(&l);
            errors += e;
        }
    });
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(errors, 0, "fault-free run completed with errors");
    (wall, lat)
}

/// One timed sync-reference run: qd=64 on this thread.
fn timed_sync(total_ops: usize) -> (f64, Histogram) {
    let dev = fresh_device(total_ops / 10);
    let start = Instant::now();
    let lat = drive_sync_thread(&dev, 0, total_ops);
    (start.elapsed().as_secs_f64(), lat)
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    // The floor keeps smoke runs long enough to measure work, not timer
    // noise, while still giving every client at least one batch.
    let total_ops = ((OPS_TOTAL as f64 * scale.factor()) as usize).max(160_000);
    // Bring the CPU out of idle so the first configuration is not penalized.
    let _ = timed_async(64, total_ops / 8);

    // The one-thread synchronous reference, then the async sweep: (entry
    // key, clients, best run).
    let sync = best_of(REPEATS, || timed_sync(total_ops), |run| run.0);
    let mut runs = vec![("qd64/t1".to_string(), 1, sync)];
    for clients in CLIENTS {
        let run = best_of(REPEATS, || timed_async(clients, total_ops), |run| run.0);
        runs.push((format!("c{clients}"), clients, run));
    }
    let mut report = BenchReport::new("c10k", scale.factor());
    let mut reference = 0.0;
    for (i, (key, clients, (wall, lat))) in runs.into_iter().enumerate() {
        let ops = (total_ops / clients).max(16) * clients;
        let ops_per_sec = ops as f64 / wall;
        if i == 0 {
            reference = ops_per_sec;
        } else {
            report.summary.insert(format!("{key}_vs_qd64"), round3(ops_per_sec / reference));
        }
        report.entries.push(BenchEntry {
            throughput_ops_s: round3(ops_per_sec),
            p99_ns: lat.value_at(0.99),
            p999_ns: lat.value_at(0.999),
            ..BenchEntry::new(
                key,
                &[
                    ("clients", clients as f64),
                    ("threads", 1.0),
                    ("total_ops", ops as f64),
                    ("wall_ms", round3(wall * 1e3)),
                    ("vs_qd64", round3(ops_per_sec / reference)),
                ],
            )
        });
    }
    let best = report.summary.values().fold(0.0f64, |best, ratio| best.max(*ratio));
    report.summary.insert("best_vs_qd64".to_string(), best);
    report
}
