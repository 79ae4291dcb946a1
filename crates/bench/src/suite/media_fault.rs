//! `media_fault`: modelled cost of one single-threaded, read-heavy stream
//! on a fault-free device versus one whose [`mssd::MediaFaultPlan`] injects
//! transient read errors at 1e-4 per read, so the RAS ladder (ECC decode,
//! bounded re-reads, the occasional UECC verdict) actually runs. Why it
//! exists and how to read it: `DESIGN.md`.

use mssd::{Category, DramMode, MediaFaultPlan, Mssd, MssdConfig};
use workloads::{Histogram, Scale};

use crate::drive::{round3, XorShift};
use crate::{BenchEntry, BenchReport};

/// Ops in the measured stream at scale 1.0.
const OPS: usize = 120_000;

/// Whole pages of block traffic the stream cycles through.
const PAGES: u64 = 512;

/// 64-byte byte-interface slots (distinct pages from the block region).
const SLOTS: u64 = 2048;

/// Ops between two FLUSHes: a FLUSH programs the buffered block writes, so
/// the block reads after it are flash reads again. Without it the 512 pages
/// settle in the FTL write buffer within a few thousand ops and the reads
/// never reach the RAS ladder.
const FLUSH_EVERY: usize = 256;

/// First logical page of the block region (per the byte slots above:
/// 2048 * 64 B = 128 KB = 32 pages, rounded up generously).
const BLOCK_BASE: u64 = 64;

/// Drives the read-heavy stream once; returns the UECC count and the
/// virtual latency of every block read, where the retry ladder shows.
/// Reads dominate (70%) because the 1e-4 regime is a *read*-error regime:
/// program and erase failures at end of life are orders of magnitude rarer.
fn drive(dev: &Mssd, ops: usize) -> (u64, Histogram) {
    let mut rng = XorShift(0xEC0_5EED | 1);
    let mut uecc = 0u64;
    let (clock, mut block_reads) = (dev.clock(), Histogram::new());
    for op in 1..=ops {
        if op % FLUSH_EVERY == 0 {
            let _ = dev.try_flush();
        }
        match rng.below(100) {
            // Block read of 1-2 pages: the flash read path, ECC decode and
            // (under injection) the retry ladder.
            0..=49 => {
                let p = rng.below(PAGES - 1);
                let count = 1 + rng.below(2) as usize;
                let t0 = clock.now_ns();
                if dev.try_block_read(BLOCK_BASE + p, count, Category::Data).is_err() {
                    uecc += 1;
                }
                block_reads.record(clock.now_ns() - t0);
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
    (uecc, block_reads)
}

/// Builds the device, pre-populates every page/slot the stream touches (so
/// reads hit programmed flash, not the zero fast path), runs the stream and
/// returns its entry: the virtual time the stream took, its block-read tail
/// and the RAS counters.
fn measure(key: &str, read_error_rate: f64, ops: usize) -> BenchEntry {
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
    let start = dev.clock().now_ns();
    let (uecc, block_reads) = drive(&dev, ops);
    let elapsed_ns = dev.clock().now_ns() - start;
    let t = dev.traffic();
    BenchEntry::new(
        key,
        &[
            ("ops", ops as f64),
            ("virtual_elapsed_ms", round3(elapsed_ns as f64 / 1e6)),
            ("virtual_read_p99_ns", block_reads.value_at(0.99) as f64),
            ("virtual_read_p999_ns", block_reads.value_at(0.999) as f64),
            ("virtual_read_max_ns", block_reads.max() as f64),
            ("ueccs", uecc as f64),
            ("corrected_reads", t.ras_corrected_reads as f64),
            ("read_retries", t.ras_read_retries as f64),
            ("flash_read_pages", t.flash_read_pages as f64),
        ],
    )
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    // The floor keeps smoke-scale runs long enough for the 1e-4 regime to
    // inject errors at all.
    let ops = ((OPS as f64 * scale.factor()) as usize).max(40_000);
    let clean = measure("clean", 0.0, ops);
    let fault = measure("rber_1e-4", 1e-4, ops);
    assert!(
        fault.extra["corrected_reads"] + fault.extra["read_retries"] > 0.0,
        "the armed 1e-4 plan never reached the RAS ladder — grow the stream"
    );
    let elapsed = |e: &BenchEntry| e.extra["virtual_elapsed_ms"];
    let mut report = BenchReport::new("media_fault", scale.factor());
    report
        .summary
        .insert("cost_ratio_fault_vs_clean".to_string(), round3(elapsed(&fault) / elapsed(&clean)));
    report.entries = vec![clean, fault];
    report
}
