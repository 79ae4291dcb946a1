//! What every workload shares: the device and file-system stack under test,
//! the shadow of what was written, segment timing, and the power-cut check.

use std::sync::Arc;
use std::time::Instant;

use baselines::Ext4Like;
use bytefs::{ByteFs, ByteFsConfig};
use fskit::{FileSystem, FileSystemExt, FsResult};
use mssd::{Clock, DramMode, Mssd, MssdConfig};
use workloads::{OpClass, Recorder};

use crate::gen::{Pool, LINE};
use crate::trace::{Span, TimedFs};

/// Every measured phase is cut into this many segments at fixed op indices
/// (see [`crate::estimate::quiet_total`]).
pub const SEGMENTS: usize = 50;

/// The device every workload runs on: the paper's emulator timing (Table 4)
/// at 1/128 of its size, every region in the paper's proportion — 256 MB
/// capacity (32 GB), 2 MB write log (256 MB), 128 KB FTL write buffer
/// (16 MB).
///
/// The repository's `fig6`/`fig7` harness device (1 GiB, 16 MB log, 16 MB
/// write buffer) is too roomy for a measured phase of about two seconds:
/// such a phase fills its log 0-2 times, never makes its FTL collect garbage
/// (0 erases), and `kv_ycsb_a`'s WAL and SSTables live and die inside its
/// write buffer without ever being programmed (measured: 6 MB of flash
/// writes for 270 MB of host writes). Numbers from a log that is never
/// cleaned and flash that is never written flatter both. At this size the
/// log is cleaned 5-30 times per phase and `kv_ycsb_a` erases blocks.
pub fn device_config() -> MssdConfig {
    let mut cfg = MssdConfig::default().with_capacity(256 << 20).with_dram_region(2 << 20);
    cfg.write_buffer_bytes = 128 << 10;
    cfg
}

/// Rounds an op count scaled by `scale` to a positive multiple of
/// [`SEGMENTS`], so that segments are equal and fall at fixed op indices.
pub fn scaled(base: usize, scale: f64) -> usize {
    let per_segment = ((base as f64 * scale) / SEGMENTS as f64).round().max(1.0) as usize;
    per_segment * SEGMENTS
}

/// What one measured phase hands back.
pub struct Phase {
    pub rec: Recorder,
    /// Wall nanoseconds of each of the [`SEGMENTS`] segments.
    pub seg_wall_ns: Vec<u64>,
    /// Ops that returned an unexpected `Err` or read back the wrong bytes.
    pub failed: u64,
    /// The spans each client thread recorded (empty lists when untraced).
    pub spans: Vec<Vec<Span>>,
    device: Arc<Mssd>,
    clock: Arc<Clock>,
}

impl Phase {
    pub fn new(device: &Arc<Mssd>) -> Self {
        Self {
            device: Arc::clone(device),
            clock: device.clock(),
            rec: Recorder::new(),
            seg_wall_ns: Vec::with_capacity(SEGMENTS),
            failed: 0,
            spans: Vec::new(),
        }
    }

    /// Judges one op (every op is also recorded in `rec`, whose `ops` is the
    /// number attempted): `Ok(true)` is success, `Ok(false)` a read-back
    /// mismatch, `Err` an operation the workload was built never to fail.
    pub fn count(&mut self, outcome: FsResult<bool>) {
        if !matches!(outcome, Ok(true)) {
            self.failed += 1;
        }
    }

    /// The `sync` a file-system workload ends its phase with, recorded as a
    /// write-class op of no bytes, as `workloads::Filebench` records it.
    pub fn final_sync(&mut self, fs: &dyn FileSystem) {
        let sw = self.rec.start(&self.clock);
        let outcome = fs.sync().map(|()| true);
        self.rec.finish(&self.clock, sw, OpClass::Write, 0);
        self.count(outcome);
    }

    /// Waits until the device's background log cleaner is idle.
    ///
    /// Workloads call this between ops. The cleaner is a host thread that the
    /// virtual clock does not govern: left to run free, how much of the log
    /// it has drained when the next op arrives — and with it that op's
    /// modelled cost, and whether a writer stalls on a full log — depends on
    /// how the host schedules it (measured: `dev_bytelog` 65 vs 100
    /// kops/virt_s between two runs of one seed). Waiting here makes the
    /// log's state at the start of every op a function of the op stream
    /// alone; only the op that starts the cleaner still races with it, which
    /// moves modelled totals by at most 0.05 %. The wait is host time inside
    /// the measured phase, under its own span.
    pub fn settle(&self) {
        let _wait = crate::trace::span("mssd.cleaner_wait", &self.clock);
        self.device.quiesce_cleaning();
    }

    /// Folds another client's phase into this one; segment times stay those
    /// of the client that kept them (see `mail_fsync_mt2`).
    pub fn absorb(&mut self, other: Phase) {
        self.rec.merge(other.rec);
        self.failed += other.failed;
        self.spans.extend(other.spans);
    }
}

/// Times segments: `lap` closes the current segment.
pub struct Laps {
    last: Instant,
}

impl Laps {
    pub fn start() -> Self {
        Self { last: Instant::now() }
    }

    pub fn lap(&mut self, into: &mut Vec<u64>) {
        let now = Instant::now();
        into.push(now.duration_since(self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// What reading everything back found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Audit {
    /// Files, keys or lines whose content differs from the shadow.
    pub mismatches: u64,
    pub fsck_violations: u64,
    pub device_violations: u64,
}

/// The outcome of cutting power after the traced repeat.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recovery {
    pub virt_ms: f64,
    pub wall_ms: f64,
    /// Acknowledged-durable units (files, keys, lines) not readable, or
    /// readable with other bytes, after recovery.
    pub lost_acked_writes: u64,
    pub audit: Audit,
}

/// One workload instance: built (set up) from a seed, run once, audited.
pub trait Workload {
    fn device(&self) -> &Arc<Mssd>;
    /// Digest of the generated op list.
    fn op_digest(&self) -> u64;
    /// Application-level ops the measured phase will issue.
    fn run(&mut self) -> Phase;
    /// Makes everything durable, drops host caches and reads every byte the
    /// shadow knows back; also runs the structural checkers.
    fn audit(&mut self) -> Audit;
    /// Cuts power, brings the durable image up on a fresh device, recovers
    /// and (for a file system) remounts. Returns `(virtual ns, wall ns)` of
    /// the recovery.
    fn power_cycle(&mut self) -> (u64, u64);
    /// [`Workload::power_cycle`] followed by a second audit. Called after
    /// the first audit, which made every write durable: whatever the second
    /// one misses was acknowledged and lost.
    fn power_cut(&mut self) -> Recovery {
        let (virt_ns, wall_ns) = self.power_cycle();
        let audit = self.audit();
        Recovery {
            virt_ms: virt_ns as f64 / 1e6,
            wall_ms: wall_ns as f64 / 1e6,
            lost_acked_writes: audit.mismatches,
            audit,
        }
    }
    /// Workload-specific counts for the per-layer report.
    fn extra_counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Which file system a file-system workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// ByteFS, the system under test; `traced` puts [`TimedFs`] in front.
    ByteFs { traced: bool },
    /// The Ext4-like baseline on a device with unmodified (page-cache)
    /// firmware, for `model.speedup_vs_ext4`.
    Ext4,
}

/// A file system on a fresh device.
pub struct Stack {
    pub device: Arc<Mssd>,
    /// What the workload calls.
    pub fs: Arc<dyn FileSystem>,
    /// The ByteFS under `fs`, for `fsck`; `None` on the baseline.
    bytefs: Option<Arc<ByteFs>>,
    config: ByteFsConfig,
    backend: Backend,
}

impl Stack {
    pub fn format(config: ByteFsConfig, backend: Backend) -> Self {
        match backend {
            Backend::ByteFs { traced } => {
                let device = Mssd::new(device_config(), DramMode::WriteLog);
                let bytefs = ByteFs::format(Arc::clone(&device), config.clone())
                    .expect("a 1 GiB write-log device formats");
                let fs = Self::front(&bytefs, traced);
                Self { device, fs, bytefs: Some(bytefs), config, backend }
            }
            Backend::Ext4 => {
                let device = Mssd::new(device_config(), DramMode::PageCache);
                let fs = Ext4Like::format(Arc::clone(&device));
                Self { device, fs, bytefs: None, config, backend }
            }
        }
    }

    fn front(bytefs: &Arc<ByteFs>, traced: bool) -> Arc<dyn FileSystem> {
        let plain: Arc<dyn FileSystem> = Arc::clone(bytefs) as Arc<dyn FileSystem>;
        if traced {
            TimedFs::new(plain)
        } else {
            plain
        }
    }

    /// The audit of a file-system workload: sync, drop the host caches, read
    /// every shadowed file back, then run the structural checkers.
    pub fn audit_files<'a>(
        &self,
        pool: &Pool,
        files: impl IntoIterator<Item = (&'a str, &'a FileShadow)>,
    ) -> Audit {
        let mut audit = Audit::default();
        if let Err(e) = self.fs.sync() {
            eprintln!("audit: sync: {e}");
            audit.mismatches += 1;
        }
        self.fs.drop_caches();
        audit.mismatches += mismatched_files(self.fs.as_ref(), pool, files);
        self.structural_violations(&mut audit);
        audit
    }

    pub fn structural_violations(&self, audit: &mut Audit) {
        if let Some(bytefs) = &self.bytefs {
            let fsck = bytefs.fsck();
            for v in fsck.iter().take(5) {
                eprintln!("fsck: {v}");
            }
            audit.fsck_violations += fsck.len() as u64;
        }
        self.device.quiesce_cleaning();
        let dev = self.device.check_consistency();
        for v in dev.iter().take(5) {
            eprintln!("device: {v}");
        }
        audit.device_violations += dev.len() as u64;
    }

    /// Power cut and return: the host loses everything (the mounted file
    /// system is dropped without unmount), the device keeps what its
    /// durability contract names. The durable image is restored into a
    /// fresh device, as when power comes back, and ByteFS mounts it — the
    /// volume is not clean, so mounting runs firmware `RECOVER()`.
    /// Returns `(virtual ns, wall ns)` of that mount.
    ///
    /// # Panics
    ///
    /// Panics on the baseline stack, which the benchmark never power-cycles.
    pub fn power_cycle(&mut self) -> (u64, u64) {
        let Backend::ByteFs { traced } = self.backend else {
            panic!("only the ByteFS stack is power-cycled");
        };
        self.device.crash();
        let image = self.device.crash_image();
        let device = Mssd::from_crash_image(device_config(), DramMode::WriteLog, &image);
        let wall = Instant::now();
        let virt = device.clock().now_ns();
        let bytefs = ByteFs::mount(Arc::clone(&device), self.config.clone())
            .expect("the durable image of a running volume mounts");
        let took = (device.clock().now_ns() - virt, wall.elapsed().as_nanos() as u64);
        self.fs = Self::front(&bytefs, traced);
        self.bytefs = Some(bytefs);
        self.device = device;
        took
    }
}

/// What a file should contain: payload-pool slices, in order.
#[derive(Debug, Default, Clone)]
pub struct FileShadow {
    /// `(first pool line, length in bytes)` of each piece.
    pub pieces: Vec<(u32, u32)>,
    pub bytes: u64,
}

impl FileShadow {
    pub fn push(&mut self, line: u32, len: usize) {
        self.pieces.push((line, len as u32));
        self.bytes += len as u64;
    }

    pub fn clear(&mut self) {
        self.pieces.clear();
        self.bytes = 0;
    }

    pub fn matches(&self, pool: &Pool, data: &[u8]) -> bool {
        if data.len() as u64 != self.bytes {
            return false;
        }
        let mut at = 0;
        self.pieces.iter().all(|&(line, len)| {
            let piece = &data[at..at + len as usize];
            at += len as usize;
            piece == pool.slice(line, len as usize)
        })
    }
}

impl FileShadow {
    /// [`FileShadow::matches`] at a fraction of the cost, for use inside the
    /// measured phase: the length, and the first cacheline of every 4 KB of
    /// every piece plus the piece's last cacheline. That catches what a
    /// cache or mapping bug produces — a short read, a stale, zeroed or
    /// foreign page — while touching 5 lines of a 16 KB file instead of 256
    /// (the full comparison was 6 % of `web_read_miss`'s host time). Every
    /// byte is still compared by the audit that follows each repeat.
    pub fn matches_sampled(&self, pool: &Pool, data: &[u8]) -> bool {
        const STRIDE: usize = 4096;
        if data.len() as u64 != self.bytes {
            return false;
        }
        let mut at = 0;
        self.pieces.iter().all(|&(line, len)| {
            let len = len as usize;
            let (got, want) = (&data[at..at + len], pool.slice(line, len));
            at += len;
            let probe = |from: usize| {
                let to = (from + LINE).min(len);
                got[from..to] == want[from..to]
            };
            (0..len).step_by(STRIDE).all(probe) && probe(len.saturating_sub(LINE))
        })
    }
}

/// Reads every shadowed file back and counts those that differ.
fn mismatched_files<'a>(
    fs: &dyn FileSystem,
    pool: &Pool,
    files: impl IntoIterator<Item = (&'a str, &'a FileShadow)>,
) -> u64 {
    files
        .into_iter()
        .filter(|(path, shadow)| match fs.read_file(path) {
            Ok(data) => !shadow.matches(pool, &data),
            Err(e) => {
                eprintln!("audit: {path}: {e}");
                true
            }
        })
        .count() as u64
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_are_positive_multiples_of_the_segment_count() {
        assert_eq!(scaled(50_000, 1.0), 50_000);
        assert_eq!(scaled(50_000, 0.25), 12_500);
        assert_eq!(scaled(1_000, 0.333), 350);
        assert_eq!(scaled(10, 0.01), SEGMENTS);
    }

    #[test]
    fn file_shadow_compares_piecewise() {
        let pool = Pool::new(1);
        let mut shadow = FileShadow::default();
        shadow.push(3, 128);
        shadow.push(900, 64);
        let mut data = pool.slice(3, 128).to_vec();
        data.extend_from_slice(pool.slice(900, 64));
        assert!(shadow.matches(&pool, &data));
        data[130] ^= 1;
        assert!(!shadow.matches(&pool, &data));
        assert!(!shadow.matches(&pool, &data[..100]));
        data[130] ^= 1;
        assert!(shadow.matches_sampled(&pool, &data));
        data[0] ^= 1;
        assert!(!shadow.matches_sampled(&pool, &data), "first line of a piece is probed");
        data[0] ^= 1;
        data[191] ^= 1;
        assert!(!shadow.matches_sampled(&pool, &data), "last line of a piece is probed");
        assert!(!shadow.matches_sampled(&pool, &data[..128]));
        shadow.clear();
        assert!(shadow.matches(&pool, &[]) && shadow.matches_sampled(&pool, &[]));
    }
}
