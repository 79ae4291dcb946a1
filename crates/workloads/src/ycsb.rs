//! YCSB workloads A–F over the [`kvstore`] LSM store (Table 5: 10 M 1000-byte
//! key-value pairs, 40 M operations, zipfian request distribution — scaled
//! down here).

use std::sync::Arc;

use fskit::{FileSystem, FsResult};
use kvstore::{Db, DbOptions};
use mssd::stats::TrafficCounter;
use mssd::Mssd;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{LatencyStats, OpClass, Recorder};
use crate::spec::Scale;

/// The six core YCSB workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// 50 % read / 50 % update, zipfian.
    A,
    /// 95 % read / 5 % update, zipfian.
    B,
    /// 100 % read, zipfian.
    C,
    /// 95 % read / 5 % insert, latest distribution.
    D,
    /// 95 % scan / 5 % insert, uniform scan starts.
    E,
    /// 50 % read / 50 % read-modify-write, zipfian.
    F,
}

impl YcsbWorkload {
    /// All six workloads in order.
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];

    /// Report label, e.g. `"ycsb-a"`.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "ycsb-a",
            YcsbWorkload::B => "ycsb-b",
            YcsbWorkload::C => "ycsb-c",
            YcsbWorkload::D => "ycsb-d",
            YcsbWorkload::E => "ycsb-e",
            YcsbWorkload::F => "ycsb-f",
        }
    }
}

/// Parameters of one YCSB run.
#[derive(Debug, Clone)]
pub struct YcsbSpec {
    /// Which workload mix.
    pub workload: YcsbWorkload,
    /// Number of records loaded before the measured phase.
    pub records: usize,
    /// Number of measured operations.
    pub operations: usize,
    /// Value size in bytes (1000 in the paper).
    pub value_size: usize,
    /// Maximum scan length for workload E.
    pub max_scan: usize,
}

impl YcsbSpec {
    /// The paper's shape scaled down (harness base: 2 000 records / 4 000
    /// operations).
    pub fn new(workload: YcsbWorkload, scale: Scale) -> Self {
        Self {
            workload,
            records: scale.count(2_000),
            operations: scale.count(4_000),
            value_size: 1_000,
            max_scan: 50,
        }
    }

    fn key(&self, i: usize) -> Vec<u8> {
        format!("user{i:012}").into_bytes()
    }
}

/// A zipfian integer generator over `[0, n)` (Gray et al.), the request
/// distribution YCSB uses for its skewed workloads.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator over `[0, n)` with the YCSB default skew
    /// (theta = 0.99).
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, 0.99)
    }

    /// Creates a generator with a custom skew parameter.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_theta(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty domain");
        let zeta = |count: u64, theta: f64| -> f64 {
            (1..=count).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        };
        let zetan = zeta(n, theta);
        let zeta2theta = zeta(2, theta);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan),
        }
    }

    /// Draws the next value in `[0, n)`; small values are the most popular.
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let value = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        value.min(self.n - 1)
    }

    /// The size of the domain.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// The configured skew.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

/// The result of one YCSB run.
#[derive(Debug, Clone)]
pub struct YcsbResult {
    /// Workload label.
    pub workload: String,
    /// File-system label.
    pub fs: String,
    /// Measured operations.
    pub ops: u64,
    /// Virtual time of the measured phase in nanoseconds.
    pub elapsed_ns: u64,
    /// Throughput in thousands of operations per second.
    pub kops_per_sec: f64,
    /// Read (get/scan) latency statistics.
    pub read: LatencyStats,
    /// Update/insert latency statistics.
    pub write: LatencyStats,
    /// Device traffic during the measured phase.
    pub traffic: TrafficCounter,
}

/// Loads the data set and runs one YCSB workload on a database stored on `fs`.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn run_ycsb(
    device: &Arc<Mssd>,
    fs: Arc<dyn FileSystem>,
    spec: &YcsbSpec,
    seed: u64,
) -> FsResult<YcsbResult> {
    let fs_name = fs.name().to_string();
    let db = Db::open(fs, "/ycsb", DbOptions::default())?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let value = vec![0xEEu8; spec.value_size];

    // Load phase (not measured).
    for i in 0..spec.records {
        db.put(&spec.key(i), &value)?;
    }
    db.flush()?;

    // Measured phase.
    let clock = device.clock();
    let before = device.traffic();
    let start_ns = clock.now_ns();
    let mut rec = Recorder::new();
    let zipf = Zipfian::new(spec.records as u64);
    // Inserts (D/E) append to one key sequence after the loaded records.
    let mut inserted = spec.records;
    for _ in 0..spec.operations {
        let draw: f64 = rng.gen();
        match spec.workload {
            YcsbWorkload::A | YcsbWorkload::F if draw < 0.5 => {
                // Update (A) / read-modify-write (F).
                let key = spec.key(zipf.next(&mut rng) as usize);
                let sw = rec.start(&clock);
                if spec.workload == YcsbWorkload::F {
                    let _ = db.get(&key)?;
                }
                db.put(&key, &value)?;
                rec.finish(&clock, sw, OpClass::Write, spec.value_size);
            }
            YcsbWorkload::B if draw < 0.05 => {
                let key = spec.key(zipf.next(&mut rng) as usize);
                let sw = rec.start(&clock);
                db.put(&key, &value)?;
                rec.finish(&clock, sw, OpClass::Write, spec.value_size);
            }
            YcsbWorkload::D | YcsbWorkload::E if draw < 0.05 => {
                let key = spec.key(inserted);
                inserted += 1;
                let sw = rec.start(&clock);
                db.put(&key, &value)?;
                rec.finish(&clock, sw, OpClass::Write, spec.value_size);
            }
            YcsbWorkload::E => {
                let start = rng.gen_range(0..spec.records);
                let len = rng.gen_range(1..=spec.max_scan);
                let sw = rec.start(&clock);
                let rows = db.scan(&spec.key(start), len)?;
                rec.finish(&clock, sw, OpClass::Read, rows.len() * spec.value_size);
            }
            _ => {
                // Reads: zipfian for A/B/C/F, latest-skewed for D.
                let draw = zipf.next(&mut rng) as usize;
                let key = if spec.workload == YcsbWorkload::D {
                    spec.key(inserted - 1 - draw.min(inserted - 1))
                } else {
                    spec.key(draw)
                };
                let sw = rec.start(&clock);
                let got = db.get(&key)?;
                rec.finish(&clock, sw, OpClass::Read, got.map(|v| v.len()).unwrap_or(0));
            }
        }
    }
    db.close()?;

    let elapsed_ns = clock.now_ns().saturating_sub(start_ns).max(1);
    let traffic = device.traffic().delta_since(&before);
    Ok(YcsbResult {
        workload: spec.workload.label().to_string(),
        fs: fs_name,
        ops: rec.ops,
        elapsed_ns,
        kops_per_sec: rec.ops as f64 / (elapsed_ns as f64 / 1e9) / 1e3,
        read: rec.read_stats(),
        write: rec.write_stats(),
        traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsfactory::FsKind;
    use mssd::MssdConfig;

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            let v = z.next(&mut rng) as usize;
            assert!(v < 1000);
            counts[v] += 1;
        }
        let top10: u32 = counts[..10].iter().sum();
        assert!(
            top10 as f64 / 20_000.0 > 0.2,
            "top-10 keys should absorb a large fraction of a zipfian draw ({top10})"
        );
        assert!(z.domain() == 1000 && z.theta() > 0.9);
    }

    fn tiny_spec(workload: YcsbWorkload) -> YcsbSpec {
        YcsbSpec { records: 150, operations: 200, value_size: 200, max_scan: 10, workload }
    }

    #[test]
    fn all_workloads_run_on_bytefs() {
        for w in YcsbWorkload::ALL {
            let (dev, fs) = FsKind::ByteFs.build(MssdConfig::small_test());
            let result = run_ycsb(&dev, fs, &tiny_spec(w), 3).unwrap();
            assert_eq!(result.ops, 200, "{w:?}");
            assert!(result.kops_per_sec > 0.0);
            match w {
                YcsbWorkload::C => assert_eq!(result.write.count, 0, "C is read-only"),
                YcsbWorkload::A | YcsbWorkload::F => {
                    assert!(result.write.count > 40, "{w:?} is write-heavy")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn runs_on_a_baseline_too() {
        let (dev, fs) = FsKind::F2fs.build(MssdConfig::small_test());
        let result = run_ycsb(&dev, fs, &tiny_spec(YcsbWorkload::A), 9).unwrap();
        assert!(result.read.count > 0 && result.write.count > 0);
        assert!(result.traffic.host_write_bytes() > 0);
    }
}
