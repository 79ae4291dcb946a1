//! `gc_pause`: the wall-clock latency distribution of individual
//! byte-interface writes on a device where log cleaning is **continuously
//! active** (log region much smaller than the working set) versus one where
//! it is **idle** (a region the run never fills). Why it exists and how to
//! read it: `DESIGN.md`.

use std::time::Instant;

use mssd::{Category, DramMode, Mssd, MssdConfig};
use workloads::{Histogram, Scale};

use crate::drive::{best_of, round3, XorShift};
use crate::{BenchEntry, BenchReport};

/// Measured byte writes at scale 1.0.
const OPS: usize = 150_000;

/// Byte window the writer cycles through (8 MB: four times the active log
/// region in the cleaning-on configuration).
const WINDOW_BYTES: u64 = 8 << 20;

/// Captures per configuration; the one with the lowest p99 is reported. A
/// single capture on a busy or single-CPU host can invert the on/off
/// comparison outright — scheduler preemptions inside the measured loop
/// dwarf the modelled effect being measured.
const REPEATS: usize = 3;

/// Runs `ops` byte writes against a fresh device and returns the entry with
/// the per-op latency distribution. `log_bytes` decides whether cleaning is
/// active (2 MB region under an 8 MB working window) or idle (64 MB region).
fn capture(config: &str, log_bytes: usize, ops: usize) -> BenchEntry {
    let cfg = MssdConfig::default().with_capacity(256 << 20).with_dram_region(log_bytes);
    let dev = Mssd::new(cfg, DramMode::WriteLog);
    let slots = WINDOW_BYTES / 64;
    let mut rng = XorShift(0x6C0F_FEE5);
    let payload = [0x5Au8; 256];
    // Warm up maps and the allocator outside the measured loop.
    for _ in 0..(ops / 20).max(500) {
        let addr = (rng.next() % slots) * 64;
        dev.try_byte_write(addr, &payload[..64], None, Category::Data).unwrap();
    }
    dev.reset_stats();
    // O(1) histogram recording inside the measured loop — no per-op
    // allocation, no post-hoc sort.
    let mut lat = Histogram::new();
    for _ in 0..ops {
        let addr = (rng.next() % slots) * 64;
        let len = 64 * (1 + (rng.next() % 4) as usize);
        let t0 = Instant::now();
        dev.try_byte_write(addr, &payload[..len], None, Category::Data).unwrap();
        lat.record(t0.elapsed().as_nanos() as u64);
    }
    let t = dev.traffic();
    BenchEntry {
        p99_ns: lat.value_at(0.99),
        p999_ns: lat.value_at(0.999),
        ..BenchEntry::new(
            config,
            &[
                ("ops", ops as f64),
                ("p50_ns", lat.value_at(0.50) as f64),
                ("max_ns", lat.max() as f64),
                ("log_cleanings", t.log_cleanings as f64),
                ("fg_stalls", t.log_fg_stalls as f64),
                ("bg_cleaned_pages", t.log_bg_cleaned_pages as f64),
            ],
        )
    }
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    let ops = ((OPS as f64 * scale.factor()) as usize).max(5_000);
    // Warm the CPU out of idle states so the first config is not penalized.
    let _ = capture("warmup", 64 << 20, ops / 10);

    let best = |config, log_bytes| {
        best_of(REPEATS, || capture(config, log_bytes, ops), |e| e.p99_ns as f64)
    };
    let on = best("cleaning_on", 2 << 20);
    let off = best("cleaning_off", 64 << 20);
    let mut report = BenchReport::new("gc_pause", scale.factor());
    report
        .summary
        .insert("p99_ratio_on_vs_off".into(), round3(on.p99_ns as f64 / off.p99_ns.max(1) as f64));
    report.entries = vec![on, off];
    report
}
