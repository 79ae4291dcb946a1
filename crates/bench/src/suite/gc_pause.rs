//! `gc_pause`: the modelled latency distribution of individual
//! byte-interface writes on a device where log cleaning is **continuously
//! active** (log region much smaller than the working set) versus one where
//! it is **idle** (a region the run never fills). Why it exists and how to
//! read it: `DESIGN.md`.

use mssd::{Category, DramMode, Mssd, MssdConfig};
use workloads::{Histogram, Scale};

use crate::drive::{round3, XorShift};
use crate::{BenchEntry, BenchReport};

/// Measured byte writes at scale 1.0.
const OPS: usize = 150_000;

/// Byte window the writer cycles through (8 MB: four times the active log
/// region in the cleaning-on configuration).
const WINDOW_BYTES: u64 = 8 << 20;

/// Runs `ops` byte writes against a fresh device and returns the entry with
/// the per-op virtual latency distribution. `log_bytes` decides whether
/// cleaning is active (2 MB region under an 8 MB working window) or idle
/// (64 MB region).
fn capture(config: &str, log_bytes: usize, ops: usize) -> BenchEntry {
    let cfg = MssdConfig::default().with_capacity(256 << 20).with_dram_region(log_bytes);
    let dev = Mssd::new(cfg, DramMode::WriteLog);
    let clock = dev.clock();
    let slots = WINDOW_BYTES / 64;
    let mut rng = XorShift(0x6C0F_FEE5);
    let payload = [0x5Au8; 256];
    let mut lat = Histogram::new();
    for _ in 0..ops {
        let addr = (rng.next() % slots) * 64;
        let len = 64 * (1 + (rng.next() % 4) as usize);
        let t0 = clock.now_ns();
        dev.try_byte_write(addr, &payload[..len], None, Category::Data).unwrap();
        lat.record(clock.now_ns() - t0);
    }
    let t = dev.traffic();
    BenchEntry::new(
        config,
        &[
            ("ops", ops as f64),
            ("virtual_p50_ns", lat.value_at(0.50) as f64),
            ("virtual_p99_ns", lat.value_at(0.99) as f64),
            ("virtual_p999_ns", lat.value_at(0.999) as f64),
            ("virtual_max_ns", lat.max() as f64),
            ("log_cleanings", t.log_cleanings as f64),
            ("fg_stalls", t.log_fg_stalls as f64),
            ("bg_cleaned_pages", t.log_bg_cleaned_pages as f64),
        ],
    )
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    let ops = ((OPS as f64 * scale.factor()) as usize).max(5_000);
    let on = capture("cleaning_on", 2 << 20, ops);
    let off = capture("cleaning_off", 64 << 20, ops);
    let p99 = |e: &BenchEntry| e.extra["virtual_p99_ns"];
    let mut report = BenchReport::new("gc_pause", scale.factor());
    report.summary.insert("p99_ratio_on_vs_off".into(), round3(p99(&on) / p99(&off).max(1.0)));
    report.entries = vec![on, off];
    report
}
