//! Where the modelled time of one `write(8 KB) + fsync()` on ByteFS goes:
//! the NVMe link, the COMMIT command, the byte interface (log appends and
//! the persistence barrier) and the wait for a slot of the FTL write buffer
//! (`crates/mssd/DESIGN-time.md`).
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
    let byte_interface = did.device_busy_ns - link - commit - did.nand_stall_ns;
    let total = after.now_ns - before.now_ns;
    let per_op = |ns: u64| ns as f64 / OPS as f64 / 1e3;
    println!("one write(8 KB) + fsync() on ByteFS, modelled µs (mean of {OPS}):");
    println!("  NVMe link, one data command         {:6.2}", per_op(link));
    println!("  COMMIT                              {:6.2}", per_op(commit));
    println!("  byte interface: log append, barrier {:6.2}", per_op(byte_interface));
    println!("  wait for a write-buffer slot        {:6.2}", per_op(did.nand_stall_ns));
    println!("  host file-system code               {:6.2}", per_op(total - did.device_busy_ns));
    println!("  total                               {:6.2}", per_op(total));
    println!(
        "NAND programmed {:.2} pages per op in the background ({:.2} µs of the array's time)",
        did.flash_write_pages as f64 / OPS as f64,
        per_op(did.flash_write_pages * cfg.flash_write_ns / cfg.channels as u64),
    );
    Ok(())
}
