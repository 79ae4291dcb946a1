//! Running a workload against a file system and collecting the paper's
//! metrics.

use std::sync::Arc;

use fskit::{FileSystem, FsResult};
use mssd::queue::{Command, HostQueue};
use mssd::stats::{Direction, TrafficCounter};
use mssd::{Clock, Mssd, MssdConfig, RetryPolicy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fsfactory::FsKind;
use crate::metrics::{LatencyStats, Recorder};
use crate::Workload;

/// The outcome of one workload run on one file system.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// File-system label.
    pub fs: String,
    /// Workload label.
    pub workload: String,
    /// Measured operations.
    pub ops: u64,
    /// Virtual time the measured phase took.
    pub elapsed_ns: u64,
    /// Throughput in thousands of operations per second.
    pub kops_per_sec: f64,
    /// Read-operation latency statistics.
    pub read: LatencyStats,
    /// Write-operation latency statistics.
    pub write: LatencyStats,
    /// Metadata-operation latency statistics.
    pub meta: LatencyStats,
    /// Latency statistics of device-queue completions drained during the
    /// run (empty for sequential runs, which use the depth-1 sync shim).
    pub queue: LatencyStats,
    /// Device traffic during the measured phase.
    pub traffic: TrafficCounter,
    /// Bytes the application asked to read.
    pub app_read_bytes: u64,
    /// Bytes the application asked to write.
    pub app_write_bytes: u64,
    /// Device page size (for flash-byte conversions).
    pub page_size: usize,
    /// End-of-phase FLUSH durability barriers that failed (see
    /// [`Recorder::flush_errors`]). Non-zero means the run's tail writes
    /// carry no durability guarantee.
    pub flush_errors: u64,
    /// Host-side command retries after transient completions (see
    /// [`Recorder::retries`]): each was preceded by a seeded
    /// [`RetryPolicy`] backoff on the virtual clock, never a busy spin.
    pub retries: u64,
}

impl RunResult {
    /// Write amplification: host-to-SSD write bytes over application write
    /// bytes (Table 2).
    pub fn write_amplification(&self) -> f64 {
        if self.app_write_bytes == 0 {
            return 0.0;
        }
        self.traffic.host_write_bytes() as f64 / self.app_write_bytes as f64
    }

    /// Read amplification: host-from-SSD read bytes over application read
    /// bytes (Table 2).
    pub fn read_amplification(&self) -> f64 {
        if self.app_read_bytes == 0 {
            return 0.0;
        }
        self.traffic.host_read_bytes() as f64 / self.app_read_bytes as f64
    }

    /// Flash bytes written (including firmware-internal writes), Figures 10/11.
    pub fn flash_write_bytes(&self) -> u64 {
        self.traffic.flash_write_bytes(self.page_size)
    }

    /// Flash bytes read (including firmware-internal reads), Figures 10/11.
    pub fn flash_read_bytes(&self) -> u64 {
        self.traffic.flash_read_bytes(self.page_size)
    }

    /// Host metadata write bytes (Figures 8/9 stacked bars).
    pub fn metadata_write_bytes(&self) -> u64 {
        self.traffic.host_metadata_bytes(Direction::Write)
    }

    /// Host data write bytes.
    pub fn data_write_bytes(&self) -> u64 {
        self.traffic.host_data_bytes(Direction::Write)
    }
}

/// Builds a fresh file system of `kind` and runs `workload` on it.
///
/// # Errors
///
/// Propagates file-system errors from the workload.
pub fn run_workload(
    kind: FsKind,
    cfg: MssdConfig,
    workload: &dyn Workload,
    seed: u64,
) -> FsResult<RunResult> {
    let (device, fs) = kind.build(cfg);
    run_on(&device, fs.as_ref(), workload, seed)
}

/// Runs `workload` on an already-constructed file system (used by the
/// sensitivity studies that need custom device configurations).
///
/// # Errors
///
/// Propagates file-system errors from the workload.
pub fn run_on(
    device: &Arc<Mssd>,
    fs: &dyn FileSystem,
    workload: &dyn Workload,
    seed: u64,
) -> FsResult<RunResult> {
    let mut rng = SmallRng::seed_from_u64(seed);
    workload.setup(fs, &mut rng)?;
    // Cold caches at the start of the measured phase, as the paper's runs
    // (fresh mounts of multi-GB file sets) imply.
    fs.drop_caches();

    let clock = device.clock();
    let before_traffic = device.traffic();
    let start_ns = clock.now_ns();
    let mut rec = Recorder::new();
    workload.run(fs, &mut rng, &mut rec)?;
    let elapsed_ns = clock.now_ns().saturating_sub(start_ns).max(1);
    let traffic = device.traffic().delta_since(&before_traffic);

    let ops = rec.ops;
    Ok(RunResult {
        fs: fs.name().to_string(),
        workload: workload.name(),
        ops,
        elapsed_ns,
        kops_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9) / 1e3,
        read: rec.read_stats(),
        write: rec.write_stats(),
        meta: rec.meta_stats(),
        queue: rec.queue_stats(),
        traffic,
        app_read_bytes: rec.app_read_bytes,
        app_write_bytes: rec.app_write_bytes,
        page_size: device.page_size(),
        flush_errors: rec.flush_errors,
        retries: rec.retries,
    })
}

/// Latency/byte statistics of one thread of a concurrent run.
#[derive(Debug, Clone)]
pub struct ThreadResult {
    /// Thread (shard) index.
    pub thread: usize,
    /// Operations this thread executed.
    pub ops: u64,
    /// Read-operation latency statistics.
    pub read: LatencyStats,
    /// Write-operation latency statistics.
    pub write: LatencyStats,
    /// Metadata-operation latency statistics.
    pub meta: LatencyStats,
    /// Latency statistics of this shard's device-queue completions.
    pub queue: LatencyStats,
    /// Bytes this thread asked to read.
    pub app_read_bytes: u64,
    /// Bytes this thread asked to write.
    pub app_write_bytes: u64,
    /// FLUSH durability barriers this thread lost (see
    /// [`Recorder::flush_errors`]).
    pub flush_errors: u64,
    /// Command retries this thread took (see [`Recorder::retries`]).
    pub retries: u64,
}

/// The outcome of one multi-threaded workload run.
#[derive(Debug, Clone)]
pub struct ConcurrentRunResult {
    /// Merged metrics over all threads; `traffic` is the device delta over
    /// the whole measured phase (snapshotted once, not per thread).
    pub aggregate: RunResult,
    /// Per-thread slices of the aggregate (one per shard).
    pub per_thread: Vec<ThreadResult>,
    /// Number of OS worker threads (shards) driving the run.
    pub threads: usize,
    /// Wall-clock (host) time of the measured phase in nanoseconds — the
    /// number that shows whether the file system's locking scales. Virtual
    /// time lives in `aggregate.elapsed_ns` as usual.
    pub wall_ns: u64,
}

/// The RNG seed thread `t` of a concurrent run derives from the run seed.
/// Public so differential tests can replay one shard's exact op stream
/// sequentially.
pub fn shard_seed(seed: u64, t: usize) -> u64 {
    seed ^ ((t as u64 + 1) << 32)
}

/// Issues one shard's end-of-phase FLUSH durability barrier through `queue`
/// as a batched doorbell, draining every completion into `rec`.
///
/// Bounded recovery, never a panic and never a silent drop:
///
/// * a full SQ gets one drain-and-resubmit;
/// * a barrier completion carrying a *transient* error status (hang-timeout
///   abort, uncorrectable-read retry) is resubmitted up to
///   [`RetryPolicy::max_retries`] times, each retry preceded by the
///   policy's seeded backoff charged to the **virtual** clock (the old
///   driver resubmitted immediately — a busy spin that devolves to
///   live-lock under a persisting transient) and counted in
///   [`Recorder::retries`];
/// * everything else — the device refusing the command even after a drain,
///   a persistent error status, retry exhaustion, or no completion at all
///   (a power cut or lane wedge left it unresolvable) — is counted in
///   [`Recorder::flush_errors`], which the driver propagates into
///   [`RunResult::flush_errors`]. The old driver `expect`ed the resubmit
///   and swallowed lost barriers, reporting a durability guarantee it no
///   longer had.
pub fn flush_barrier(
    queue: &mut HostQueue,
    rec: &mut Recorder,
    clock: &Clock,
    policy: &RetryPolicy,
) {
    let mut id = match queue.submit(Command::Flush) {
        Ok(id) => id,
        Err(_) => {
            queue.ring_doorbell();
            while let Some(c) = queue.poll() {
                rec.record_queue_completion(c.latency_ns);
            }
            match queue.submit(Command::Flush) {
                Ok(id) => id,
                Err(_) => {
                    // Even a doorbell could not drain the SQ: power is off
                    // and the barrier can never be accepted.
                    rec.flush_errors += 1;
                    return;
                }
            }
        }
    };
    let key = u64::from(queue.id());
    let mut attempt = 0u32;
    loop {
        queue.ring_doorbell();
        let mut barrier_status = None;
        while let Some(c) = queue.poll() {
            rec.record_queue_completion(c.latency_ns);
            if c.id == id {
                barrier_status = Some(c.status);
            }
        }
        match barrier_status {
            Some(Ok(())) => return,
            Some(Err(ref e)) if e.is_transient() && attempt < policy.max_retries => {
                clock.advance(policy.backoff_ns(key, attempt));
                attempt += 1;
                rec.retries += 1;
                match queue.submit(Command::Flush) {
                    Ok(new_id) => id = new_id,
                    Err(_) => {
                        rec.flush_errors += 1;
                        return;
                    }
                }
            }
            Some(Err(_)) | None => {
                rec.flush_errors += 1;
                return;
            }
        }
    }
}

/// Runs `workload` over one shared file system from `threads` worker threads:
/// the setup phase runs once (single-threaded), then each thread executes one
/// shard of the measured op stream via [`Workload::run_shard`].
///
/// Each shard drives **one device queue**: the thread opens a
/// submission/completion queue pair on the shared device, makes it the
/// thread's ambient queue (so the shard's file-system device calls are
/// attributed to that queue's accounting slot), and closes the measured
/// phase by issuing the shard's FLUSH barrier through it as a batched
/// doorbell.
///
/// Device traffic is snapshotted exactly **once** around the measured phase
/// and attached to the aggregate result; merging per-thread snapshots would
/// count the shared device's traffic once per thread. Per-thread recorders
/// carry latencies, application byte counts and the shard's drained queue
/// completions — all of which partition cleanly across threads and merge
/// via [`Recorder::merge`]; the driver never re-reads the device's
/// per-queue counters per thread.
///
/// # Errors
///
/// Propagates the first file-system error any thread hit.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics.
pub fn run_concurrent(
    device: &Arc<Mssd>,
    fs: &Arc<dyn FileSystem>,
    workload: &(dyn Workload + Sync),
    threads: usize,
    seed: u64,
) -> FsResult<ConcurrentRunResult> {
    assert!(threads > 0, "need at least one worker thread");
    let mut rng = SmallRng::seed_from_u64(seed);
    workload.setup(fs.as_ref(), &mut rng)?;
    fs.drop_caches();

    let clock = device.clock();
    let before_traffic = device.traffic();
    let start_ns = clock.now_ns();
    let wall_start = std::time::Instant::now();
    let outcomes: Vec<FsResult<Recorder>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let fs = Arc::clone(fs);
                let device = Arc::clone(device);
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(shard_seed(seed, t));
                    let mut rec = Recorder::new();
                    // Attribute this shard's trace events to tenant `t` for
                    // the thread's lifetime (no-op while tracing is off).
                    let _tenant = mssd::CtxScope::enter(mssd::trace::ctx().with_tenant(t as u16));
                    // One queue per shard; ambient while the shard runs.
                    let mut queue = device.open_queue(16);
                    let ambient = queue.make_ambient();
                    workload.run_shard(fs.as_ref(), t, threads, &mut rng, &mut rec)?;
                    drop(ambient);
                    // One retry schedule for the whole run, seeded by the
                    // run seed.
                    let policy = RetryPolicy::default().with_seed(seed);
                    flush_barrier(&mut queue, &mut rec, &device.clock(), &policy);
                    Ok(rec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("workload thread panicked")).collect()
    });
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let elapsed_ns = clock.now_ns().saturating_sub(start_ns).max(1);
    // One traffic snapshot for the whole run (see the doc comment).
    let traffic = device.traffic().delta_since(&before_traffic);

    let mut merged = Recorder::new();
    let mut per_thread = Vec::with_capacity(outcomes.len());
    for (t, outcome) in outcomes.into_iter().enumerate() {
        let rec = outcome?;
        per_thread.push(ThreadResult {
            thread: t,
            ops: rec.ops,
            read: rec.read_stats(),
            write: rec.write_stats(),
            meta: rec.meta_stats(),
            queue: rec.queue_stats(),
            app_read_bytes: rec.app_read_bytes,
            app_write_bytes: rec.app_write_bytes,
            flush_errors: rec.flush_errors,
            retries: rec.retries,
        });
        merged.merge(rec);
    }

    let ops = merged.ops;
    let aggregate = RunResult {
        fs: fs.name().to_string(),
        workload: workload.name(),
        ops,
        elapsed_ns,
        kops_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9) / 1e3,
        read: merged.read_stats(),
        write: merged.write_stats(),
        meta: merged.meta_stats(),
        queue: merged.queue_stats(),
        traffic,
        app_read_bytes: merged.app_read_bytes,
        app_write_bytes: merged.app_write_bytes,
        page_size: device.page_size(),
        flush_errors: merged.flush_errors,
        retries: merged.retries,
    };
    Ok(ConcurrentRunResult { aggregate, per_thread, threads, wall_ns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filebench::{Filebench, Personality};
    use crate::micro::{Micro, MicroOp};
    use crate::spec::Scale;
    use mssd::stats::Category;
    use mssd::{DramMode, FaultPlan};

    fn byte_write(addr: u64) -> Command {
        Command::ByteWrite { addr, data: vec![0xEE; 64], txid: None, cat: Category::Data }
    }

    #[test]
    fn flush_barrier_succeeds_on_a_healthy_queue() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let mut q = dev.open_queue(4);
        q.submit(byte_write(0)).unwrap();
        let mut rec = Recorder::new();
        flush_barrier(&mut q, &mut rec, &dev.clock(), &RetryPolicy::default());
        assert_eq!(rec.flush_errors, 0);
        // The barrier's doorbell drained the pending write and the FLUSH.
        assert_eq!(rec.queue_stats().count, 2);
    }

    #[test]
    fn flush_barrier_drains_a_full_queue_once_and_retries() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let mut q = dev.open_queue(1);
        q.submit(byte_write(0)).unwrap(); // SQ is now at depth
        let mut rec = Recorder::new();
        flush_barrier(&mut q, &mut rec, &dev.clock(), &RetryPolicy::default());
        assert_eq!(rec.flush_errors, 0);
        assert_eq!(rec.queue_stats().count, 2, "drained write, then the barrier itself");
    }

    #[test]
    fn flush_barrier_counts_a_power_cut_instead_of_dropping_the_barrier() {
        // Power fails inside the write group ahead of the barrier: the FLUSH
        // strands in the SQ and no completion ever arrives. The old driver
        // returned silently here, reporting durability it no longer had.
        let cfg = MssdConfig::small_test().with_fault_plan(FaultPlan::cut_at(1));
        let dev = Mssd::new(cfg, DramMode::WriteLog);
        let mut q = dev.open_queue(4);
        q.submit(byte_write(0)).unwrap();
        let mut rec = Recorder::new();
        flush_barrier(&mut q, &mut rec, &dev.clock(), &RetryPolicy::default());
        assert!(dev.fault_tripped());
        assert_eq!(rec.flush_errors, 1, "the lost barrier must be counted");
        assert_eq!(rec.queue_stats().count, 0, "nothing completed after the cut");
    }

    #[test]
    fn flush_barrier_counts_a_cut_that_jams_the_submission_queue() {
        // Depth-1 SQ jammed by a write the cut strands: even the bounded
        // drain cannot make room for the barrier.
        let cfg = MssdConfig::small_test().with_fault_plan(FaultPlan::cut_at(1));
        let dev = Mssd::new(cfg, DramMode::WriteLog);
        let mut q = dev.open_queue(1);
        q.submit(byte_write(0)).unwrap();
        q.ring_doorbell(); // trips the fault; the write is consumed in doubt
        q.submit(byte_write(4096)).unwrap(); // re-jams the now-dead queue
        let mut rec = Recorder::new();
        flush_barrier(&mut q, &mut rec, &dev.clock(), &RetryPolicy::default());
        assert_eq!(rec.flush_errors, 1);
    }

    #[test]
    fn run_result_metrics_are_consistent() {
        let w = Micro::new(MicroOp::Create, Scale::tiny());
        let r = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &w, 42).unwrap();
        assert_eq!(r.fs, "bytefs");
        assert_eq!(r.workload, "create");
        assert!(r.kops_per_sec > 0.0);
        assert!(r.write_amplification() > 0.0);
        assert!(r.metadata_write_bytes() > 0);
        assert_eq!(r.traffic.host_write_bytes(), r.metadata_write_bytes() + r.data_write_bytes());
    }

    #[test]
    fn same_seed_gives_identical_virtual_timing() {
        let w = Filebench::new(Personality::Varmail, Scale::tiny());
        let a = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &w, 9).unwrap();
        let b = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &w, 9).unwrap();
        assert_eq!(a.elapsed_ns, b.elapsed_ns, "simulation must be deterministic");
        assert_eq!(a.traffic.host_write_bytes(), b.traffic.host_write_bytes());
    }

    #[test]
    fn concurrent_run_matches_sequential_work() {
        let w = Micro::new(MicroOp::Create, Scale::tiny());
        let (dev, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
        let c = run_concurrent(&dev, &fs, &w, 4, 11).unwrap();
        assert_eq!(c.threads, 4);
        assert_eq!(c.per_thread.len(), 4);
        // Every object is created exactly once across the four shards, plus
        // one final sync per shard.
        let objects = w.objects as u64;
        assert_eq!(c.aggregate.ops, objects + 4);
        let shard_ops: u64 = c.per_thread.iter().map(|t| t.ops).sum();
        assert_eq!(shard_ops, c.aggregate.ops, "per-thread slices partition the aggregate");
        assert!(c.wall_ns > 0);
        // The single-shard run is byte-for-byte the old sequential driver.
        let seq = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &w, 11).unwrap();
        assert_eq!(seq.ops, objects + 1);
    }

    #[test]
    fn concurrent_traffic_is_snapshotted_once_not_per_thread() {
        // Regression test: merging per-thread recorders must not multiply the
        // shared device's traffic. The aggregate's traffic delta has to equal
        // the device-side growth over the measured phase exactly.
        let w = Micro::new(MicroOp::Create, Scale::tiny());
        let (dev, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
        let before_all = dev.traffic();
        let c = run_concurrent(&dev, &fs, &w, 4, 5).unwrap();
        let total_growth = dev.traffic().delta_since(&before_all);
        assert!(
            c.aggregate.traffic.host_write_bytes() <= total_growth.host_write_bytes(),
            "measured-phase traffic cannot exceed the whole run's traffic"
        );
        assert!(c.aggregate.traffic.host_write_bytes() > 0);
        // The application wrote each object's payload exactly once; if the
        // driver multiplied the traffic by the thread count, amplification
        // would be ~4x the sequential run's.
        let seq = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &w, 5).unwrap();
        let seq_wa = seq.write_amplification();
        let conc_wa = c.aggregate.write_amplification();
        assert!(
            conc_wa < seq_wa * 2.0,
            "concurrent WA {conc_wa:.2} vs sequential {seq_wa:.2}: traffic was double-counted"
        );
    }

    #[test]
    fn concurrent_run_drives_one_queue_per_shard() {
        let w = Micro::new(MicroOp::Create, Scale::tiny());
        let (dev, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
        let c = run_concurrent(&dev, &fs, &w, 3, 13).unwrap();
        // Every shard drained exactly its own FLUSH completion; the
        // aggregate gets them via Recorder::merge, never by re-reading the
        // device's per-queue counters per thread.
        assert_eq!(c.aggregate.queue.count, 3);
        for t in &c.per_thread {
            assert_eq!(t.queue.count, 1, "shard {} drains its own queue", t.thread);
        }
        // Ambient attribution: the shards' device traffic lands on queue
        // slots other than the sync-shim slot 0.
        let queued_ops: u64 =
            c.aggregate.traffic.queues.iter().filter(|(id, _)| **id != 0).map(|(_, q)| q.ops).sum();
        assert!(queued_ops >= 3, "per-shard queues saw {queued_ops} ops");
    }

    #[test]
    fn concurrent_filebench_partitions_cleanly() {
        for p in [Personality::Varmail, Personality::Fileserver, Personality::Webserver] {
            let w = Filebench::new(p, Scale::tiny());
            let (dev, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
            let c = run_concurrent(&dev, &fs, &w, 3, 7).unwrap();
            assert!(c.aggregate.ops > 0, "{p:?}");
            assert!(
                c.per_thread.iter().filter(|t| t.ops > 0).count() >= 2,
                "{p:?}: work lands on several shards"
            );
        }
    }

    #[test]
    fn default_run_shard_runs_everything_on_shard_zero() {
        struct Probe;
        impl crate::Workload for Probe {
            fn name(&self) -> String {
                "probe".into()
            }
            fn setup(&self, _fs: &dyn FileSystem, _rng: &mut SmallRng) -> FsResult<()> {
                Ok(())
            }
            fn run(
                &self,
                fs: &dyn FileSystem,
                _rng: &mut SmallRng,
                rec: &mut Recorder,
            ) -> FsResult<()> {
                let clock = fs.clock();
                let sw = rec.start(&clock);
                rec.finish(&clock, sw, crate::OpClass::Meta, 0);
                Ok(())
            }
        }
        let (dev, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
        let c = run_concurrent(&dev, &fs, &Probe, 4, 1).unwrap();
        assert_eq!(c.aggregate.ops, 1, "unpartitioned workloads fall back to shard 0");
        assert_eq!(c.per_thread[0].ops, 1);
        assert!(c.per_thread[1..].iter().all(|t| t.ops == 0));
    }

    #[test]
    fn ext4_has_higher_write_amplification_than_bytefs_on_varmail() {
        let w = Filebench::new(Personality::Varmail, Scale::tiny());
        let bytefs = run_workload(FsKind::ByteFs, MssdConfig::small_test(), &w, 1).unwrap();
        let ext4 = run_workload(FsKind::Ext4, MssdConfig::small_test(), &w, 1).unwrap();
        assert!(
            ext4.write_amplification() > bytefs.write_amplification(),
            "ext4 {:.2}x vs bytefs {:.2}x",
            ext4.write_amplification(),
            bytefs.write_amplification()
        );
    }
}
