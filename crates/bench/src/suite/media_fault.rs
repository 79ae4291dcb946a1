//! `media_fault`: wall-clock cost of one single-threaded, read-heavy stream
//! on a fault-free device versus one whose [`mssd::MediaFaultPlan`] injects
//! transient read errors at 1e-4 per read, so the RAS ladder (ECC decode,
//! bounded re-reads, the occasional UECC verdict) actually runs. Why it
//! exists and how to read it: `DESIGN.md`.

use std::time::Instant;

use mssd::{Category, DramMode, MediaFaultPlan, Mssd, MssdConfig};
use workloads::Scale;

use crate::drive::{best_of, round3, XorShift};
use crate::{BenchEntry, BenchReport};

/// Ops in the measured stream at scale 1.0.
const OPS: usize = 120_000;

/// Timed repetitions per configuration; the best run is reported.
const REPEATS: usize = 5;

/// Whole pages of block traffic the stream cycles through.
const PAGES: u64 = 512;

/// 64-byte byte-interface slots (distinct pages from the block region).
const SLOTS: u64 = 2048;

/// First logical page of the block region (per the byte slots above:
/// 2048 * 64 B = 128 KB = 32 pages, rounded up generously).
const BLOCK_BASE: u64 = 64;

/// Drives the read-heavy stream once; returns (wall seconds, uecc count).
/// Reads dominate (70%) because the 1e-4 regime is a *read*-error regime:
/// program and erase failures at end of life are orders of magnitude rarer.
fn drive(dev: &Mssd, ops: usize) -> (f64, u64) {
    let mut rng = XorShift(0xEC0_5EED | 1);
    let mut uecc = 0u64;
    let start = Instant::now();
    for _ in 0..ops {
        match rng.below(100) {
            // Block read of 1-2 pages: the flash read path, ECC decode and
            // (under injection) the retry ladder.
            0..=49 => {
                let p = rng.below(PAGES - 1);
                let count = 1 + rng.below(2) as usize;
                if dev.try_block_read(BLOCK_BASE + p, count, Category::Data).is_err() {
                    uecc += 1;
                }
            }
            // Byte read through the log-then-flash path.
            50..=69 => {
                let slot = rng.below(SLOTS);
                if dev.try_byte_read(slot * 64, 64, Category::Data).is_err() {
                    uecc += 1;
                }
            }
            // Block write of one page.
            70..=84 => {
                let p = rng.below(PAGES);
                let tag = rng.next() as u8;
                let _ = dev.try_block_write(BLOCK_BASE + p, &vec![tag; 4096], Category::Data);
            }
            // Byte write of one cacheline.
            _ => {
                let slot = rng.below(SLOTS);
                let tag = rng.next() as u8;
                let _ = dev.try_byte_write(slot * 64, &[tag; 64], None, Category::Data);
            }
        }
    }
    (start.elapsed().as_secs_f64(), uecc)
}

/// Builds the device, pre-populates every page/slot the stream touches (so
/// reads hit programmed flash, not the zero fast path), and runs the stream.
fn timed_run(read_error_rate: f64, ops: usize) -> (f64, u64) {
    let mut cfg = MssdConfig::default().with_capacity(64 << 20);
    if read_error_rate > 0.0 {
        cfg.media = MediaFaultPlan::rates(0xEC0_FA17, read_error_rate, 0.0, 0.0);
    }
    let dev = Mssd::new(cfg, DramMode::WriteLog);
    for p in 0..PAGES {
        dev.try_block_write(BLOCK_BASE + p, &vec![(p % 251) as u8 + 1; 4096], Category::Data)
            .unwrap();
    }
    for slot in 0..SLOTS {
        dev.try_byte_write(slot * 64, &[(slot % 251) as u8 + 1; 64], None, Category::Data).unwrap();
    }
    // Drain the write log so byte reads exercise flash, and exclude the
    // pre-population from the measurement.
    dev.seal_log_regions();
    dev.try_flush().unwrap();
    dev.reset_stats();
    drive(&dev, ops)
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    // The floor keeps smoke-scale runs long enough that the gated ratio
    // measures work, not timer noise.
    let ops = ((OPS as f64 * scale.factor()) as usize).max(40_000);
    // Bring the CPU out of idle so the first configuration is not penalized.
    let _ = timed_run(0.0, ops / 10);

    let best = |rate| best_of(REPEATS, || timed_run(rate, ops), |run| run.0);
    let (clean_wall, clean_uecc) = best(0.0);
    let (fault_wall, fault_uecc) = best(1e-4);
    assert_eq!(clean_uecc, 0, "fault-free run must not report UECCs");

    let mut report = BenchReport::new("media_fault", scale.factor());
    for (key, wall, uecc) in
        [("clean", clean_wall, clean_uecc), ("rber_1e-4", fault_wall, fault_uecc)]
    {
        report.entries.push(BenchEntry {
            throughput_ops_s: round3(ops as f64 / wall),
            ..BenchEntry::new(
                key,
                &[("ops", ops as f64), ("wall_ms", round3(wall * 1e3)), ("ueccs", uecc as f64)],
            )
        });
    }
    report.summary.insert("cost_ratio_fault_vs_clean".to_string(), round3(fault_wall / clean_wall));
    report
}
