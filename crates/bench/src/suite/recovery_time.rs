//! `recovery_time`: remount + `RECOVER()` latency against the *depth* of the
//! write log at the moment of the crash (§5.5 extended; the paper bench
//! `recovery` is the single-point measurement), on the virtual clock and in
//! harness wall-clock. The paper's 4.2 s is for a 1 GB device DRAM image;
//! this harness models 16 MB. Why it exists: `DESIGN.md`.

use std::time::Instant;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::FileSystemExt;
use mssd::{Category, DramMode, Mssd, MssdConfig, TxId};
use workloads::Scale;

use crate::drive::round3;
use crate::{bench_config, BenchEntry, BenchReport};

/// Dirty-log depths (entries at crash) swept at scale 1.0. The unscaled
/// depth is the stable entry key, so reports at different scales stay
/// comparable entry-by-entry.
const DEPTHS: [usize; 5] = [1_000, 8_000, 32_000, 96_000, 160_000];

/// Bytes per byte-interface entry written into the log (one cacheline).
const ENTRY_BYTES: usize = 64;

fn measure(cfg: &MssdConfig, depth: usize, entries: usize) -> BenchEntry {
    let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let fs = ByteFs::format(dev.clone(), ByteFsConfig::full()).expect("format");
    fs.write_file("/anchor", b"survives every depth").expect("anchor file");
    drop(fs);
    dev.quiesce_cleaning();

    // Fill the log to the target depth with committed byte writes into the
    // data region (addresses far above the metadata tables), one cacheline
    // per entry, spread over many pages so recovery's read-modify-write
    // path is exercised. Every 64th entry is left uncommitted so recovery
    // also discards work at every depth.
    let data_base: u64 = cfg.capacity_bytes / 2;
    let lines_per_page = (cfg.page_size / ENTRY_BYTES) as u64;
    let mut tx = TxId(1);
    let mut batch = 0usize;
    for i in 0..entries as u64 {
        let page = i / lines_per_page;
        let line = i % lines_per_page;
        let addr = data_base + page * cfg.page_size as u64 + line * ENTRY_BYTES as u64;
        let uncommitted = i % 64 == 63;
        let txid = if uncommitted { TxId(u32::MAX) } else { tx };
        dev.try_byte_write(addr, &[i as u8; ENTRY_BYTES], Some(txid), Category::Data).unwrap();
        batch += 1;
        if batch == 32 {
            dev.commit(tx);
            tx = TxId(tx.0 + 1);
            batch = 0;
        }
    }
    if batch > 0 {
        dev.commit(tx);
    }
    dev.quiesce_cleaning();
    let snap = dev.snapshot();

    // Power failure, then measure the remount: superblock read, RECOVER()
    // (scan + discard + flush), bitmap loads.
    dev.crash();
    let virtual_before = dev.clock().now_ns();
    let wall = Instant::now();
    let fs = ByteFs::mount(dev.clone(), ByteFsConfig::full()).expect("remount");
    let report = fs.recover_after_crash();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let virtual_ms = (dev.clock().now_ns() - virtual_before) as f64 / 1e6;
    assert_eq!(
        fs.read_file("/anchor").expect("anchor readable"),
        b"survives every depth",
        "recovery lost committed data"
    );

    BenchEntry::new(
        format!("entries{depth}"),
        &[
            ("entries_target", entries as f64),
            ("entries_at_crash", snap.log_entries as f64),
            ("log_bytes", snap.log_used_bytes as f64),
            ("scanned", report.scanned_entries as f64),
            ("discarded", report.discarded_entries as f64),
            ("flushed_pages", report.flushed_pages as f64),
            ("recovery_virtual_ms", round3(virtual_ms)),
            ("remount_wall_ms", round3(wall_ms)),
        ],
    )
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    let cfg = bench_config();
    let mut report = BenchReport::new("recovery_time", scale.factor());
    report.summary.insert("dram_region_bytes".into(), cfg.dram_region_bytes as f64);
    for depth in DEPTHS {
        let entries = ((depth as f64 * scale.factor()) as usize).max(64);
        report.entries.push(measure(&cfg, depth, entries));
    }
    report
}
