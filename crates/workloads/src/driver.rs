//! Running a workload against a file system and collecting the paper's
//! metrics.

use fskit::{FileSystem, FsResult};
use mssd::stats::{Direction, TrafficCounter};
use mssd::MssdConfig;
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
    /// Device traffic during the measured phase.
    pub traffic: TrafficCounter,
    /// Bytes the application asked to read.
    pub app_read_bytes: u64,
    /// Bytes the application asked to write.
    pub app_write_bytes: u64,
    /// Device page size (for flash-byte conversions).
    pub page_size: usize,
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
    let (_device, fs) = kind.build(cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    workload.setup(fs.as_ref(), &mut rng)?;
    // Cold caches at the start of the measured phase, as the paper's runs
    // (fresh mounts of multi-GB file sets) imply.
    fs.drop_caches();
    measure(fs.as_ref(), workload.name(), |rec| workload.run(fs.as_ref(), &mut rng, rec))
}

/// Runs `body` as the measured phase on `fs` and returns its metrics: the
/// virtual time and the device traffic between its start and its end, and
/// the operations `body` recorded. The one measured-phase helper of
/// [`run_workload`], [`crate::record_workload`] and [`crate::replay_on`].
pub(crate) fn measure(
    fs: &dyn FileSystem,
    workload: String,
    body: impl FnOnce(&mut Recorder) -> FsResult<()>,
) -> FsResult<RunResult> {
    let device = fs.device();
    let clock = device.clock();
    let before_traffic = device.traffic();
    let start_ns = clock.now_ns();
    let mut rec = Recorder::new();
    body(&mut rec)?;
    let elapsed_ns = clock.now_ns().saturating_sub(start_ns).max(1);
    let traffic = device.traffic().delta_since(&before_traffic);

    let ops = rec.ops;
    Ok(RunResult {
        fs: fs.name().to_string(),
        workload,
        ops,
        elapsed_ns,
        kops_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9) / 1e3,
        read: rec.read_stats(),
        write: rec.write_stats(),
        meta: rec.meta_stats(),
        traffic,
        app_read_bytes: rec.app_read_bytes,
        app_write_bytes: rec.app_write_bytes,
        page_size: device.page_size(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filebench::{Filebench, Personality};
    use crate::micro::{Micro, MicroOp};
    use crate::spec::Scale;

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
