//! Where the modelled time of one `write(8 KB) + fsync()` on ByteFS goes:
//! the NVMe link, the COMMIT command, the byte interface (log appends and
//! the persistence barrier) and the wait for a slot of the FTL write buffer —
//! less the byte-interface stores the host issues while the data command is
//! in flight (`crates/mssd/DESIGN-time.md`).
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
    let link = OPS * cfg.nvme_overhead_ns + cfg.transfer_ns(block_bytes as usize, false);
    let commit = did.tx_commits * cfg.nvme_overhead_ns;
    // The host is busy with the device while it waits for its data command,
    // issues byte-interface stores and commits; what the command took beyond
    // the host's wait for it was spent on those stores.
    let byte_interface = did.device_busy_ns - did.inflight_wait_ns - commit;
    let hidden = link + did.nand_stall_ns - did.inflight_wait_ns;
    let total = after.now_ns - before.now_ns;
    let per_op = |ns: u64| ns as f64 / OPS as f64 / 1e3;
    let row = |what: &str, us: f64| println!("  {what:<48}{us:6.2}");
    println!("one write(8 KB) + fsync() on ByteFS, modelled µs (mean of {OPS}):");
    row("NVMe link, one data command", per_op(link));
    row("COMMIT", per_op(commit));
    row("byte interface: log append, barrier", per_op(byte_interface));
    row("wait for a write-buffer slot", per_op(did.nand_stall_ns));
    row("byte interface, hidden under the block command", -per_op(hidden));
    row("host file-system code", per_op(total - did.device_busy_ns));
    row("total", per_op(total));
    println!(
        "NAND programmed {:.2} pages per op in the background ({:.2} µs of the array's time)",
        did.flash_write_pages as f64 / OPS as f64,
        per_op(did.flash_write_pages * cfg.flash_write_ns / cfg.channels as u64),
    );
    Ok(())
}
