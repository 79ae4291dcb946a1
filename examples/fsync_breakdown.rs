//! Where the modelled time of one `write(8 KB) + fsync()` on ByteFS goes:
//! the NVMe link, the COMMIT overhead, the byte interface (log appends and
//! the persistence barrier) and the wait for a slot of the FTL write buffer —
//! less what runs side by side: the data command on one interface, stores +
//! barrier + COMMIT on the other, one wait at the end
//! (`crates/mssd/DESIGN-time.md`). The rows are asserted to add up to the
//! clock, and the last line says whether the loop is bound by the host's
//! path or by the NAND array, and how far it is from the array's own time.
//!
//! The device is `benchmark/`'s: the paper's timing at 1/128 of its size
//! (256 MB, 2 MB write log, 128 KB FTL write buffer), so the buffer's slices
//! fill and drain every few operations.
//!
//! Run with `cargo run --release --example fsync_breakdown`.

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{FileSystem, FileSystemExt, OpenFlags};
use mssd::stats::Direction;
use mssd::{DramMode, Interface, Mssd, MssdConfig};

const FILES: u64 = 1_000;
const OPS: u64 = 2_000;

fn main() -> fskit::FsResult<()> {
    let mut cfg = MssdConfig::default().with_capacity(256 << 20).with_dram_region(2 << 20);
    cfg.write_buffer_bytes = 128 << 10;
    let device = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let fs = ByteFs::format(device.clone(), ByteFsConfig::full())?;
    fs.mkdir("/mail")?;
    for i in 0..FILES {
        fs.write_file(&format!("/mail/m{i}"), &[1u8; 16 << 10])?;
    }
    fs.sync()?;
    device.try_flush().expect("no media fault planned");
    device.quiesce_cleaning();

    let before = device.snapshot();
    for n in 0..OPS {
        let fd = fs.open(&format!("/mail/m{}", (n * 7) % FILES), OpenFlags::read_write())?;
        fs.append(fd, &[7u8; 8 << 10])?;
        fs.fsync(fd)?;
        fs.close(fd)?;
        // The cleaner is off the clock; wait for it as `benchmark/` does.
        device.quiesce_cleaning();
    }
    let after = device.snapshot();

    let did = after.traffic.delta_since(&before.traffic);
    let block_bytes = did.host_bytes_by_interface(Direction::Write, Interface::Block);
    assert_eq!(did.block_requests, OPS, "one scatter-gather write per fsync");
    assert_eq!(did.tx_commits, OPS, "one COMMIT per fsync");
    let link = OPS * cfg.nvme_overhead_ns + cfg.transfer_ns(block_bytes as usize, false);
    let commit = did.tx_commits * cfg.nvme_overhead_ns;
    // The host is charged its stores and barriers as it issues them; the
    // rest of its device time is the one wait at the end of each fsync.
    let stores = did.device_busy_ns - did.inflight_wait_ns;
    // Each wait covers what is left of the longer side — data command and
    // slot waits, or COMMIT overhead — so what the two sides add up to beyond
    // the waits ran beside the other interface. (A row derived from a counter
    // that stopped meaning what it says underflows here.)
    let hidden = (link + did.nand_stall_ns + commit)
        .checked_sub(did.inflight_wait_ns)
        .expect("the host waited longer than both interfaces were busy");
    assert!(
        hidden <= (link + did.nand_stall_ns).min(stores + commit),
        "more is hidden ({hidden} ns) than either interface had to hide"
    );
    let total = after.now_ns - before.now_ns;
    let host_code = total.checked_sub(did.device_busy_ns).expect("busy longer than the run");
    // The rows are differences of counters and of the clock; they stop adding
    // up the day one of those counters is charged for something else.
    let rows = link + commit + stores + did.nand_stall_ns + host_code - hidden;
    assert!(rows.abs_diff(total) <= OPS, "rows add up to {rows} ns, the clock says {total} ns");
    let per_op = |ns: u64| ns as f64 / OPS as f64 / 1e3;
    let row = |what: &str, us: f64| println!("  {what:<48}{us:6.2}");
    println!("one write(8 KB) + fsync() on ByteFS, modelled µs (mean of {OPS}):");
    row("NVMe link, one data command", per_op(link));
    row("COMMIT overhead", per_op(commit));
    row("byte interface: log appends, barrier", per_op(stores));
    row("wait for a write-buffer slot", per_op(did.nand_stall_ns));
    row("hidden under the other interface", -per_op(hidden));
    row("host file-system code", per_op(host_code));
    row("total", per_op(total));
    let nand = did.flash_write_pages * cfg.flash_write_ns / cfg.channels as u64;
    println!(
        "NAND programmed {:.2} pages per op in the background ({:.2} µs of the array's time)",
        did.flash_write_pages as f64 / OPS as f64,
        per_op(nand),
    );
    // Without its slot waits an operation would take `total - nand_stall_ns`;
    // an array that needs longer than that per operation sets the pace.
    let verdict = if nand >= total - did.nand_stall_ns { "NAND-bound" } else { "host-bound" };
    // The physical bound at this loop's scale: it starts on an idle array
    // and empty slices (the FLUSH above), and what the array still has queued
    // when it ends is less than the first buffer's fill, which it idled through.
    let over = total.checked_sub(nand).expect("the loop beat the array to its own programs");
    println!("verdict: {verdict}, {:.2} µs per op over the array's time", per_op(over));
    Ok(())
}
