//! Where the modelled time of an `fsync()` on ByteFS goes, for two shapes of
//! operation: the NVMe link, the COMMIT overhead, the byte interface's stores,
//! the persistence barrier and the wait for a slot of the FTL write buffer —
//! less what runs side by side: the data command on one interface, stores +
//! COMMIT on the other, one wait at the end (`crates/mssd/DESIGN-time.md`).
//!
//! * `write(8 KB) + fsync()`, appended to one of 1 000 mail files: one block
//!   command per fsync. It is NAND-bound on this device, and the last line
//!   says how far it is from the array's own time.
//! * `pwrite(256 B) + fdatasync()` into a 4 MB table, as `benchmark/`'s
//!   `oltp_sync`: a byte-choice page, no block command at all. (ByteFS's
//!   `fdatasync` is its `fsync`.)
//!
//! Each fsync is checked against the device trace: it returns exactly when
//! the later of its data command and its commit record completes.
//!
//! The device is `benchmark/`'s: the paper's timing at 1/128 of its size
//! (256 MB, 2 MB write log, 128 KB FTL write buffer), so the buffer's slices
//! fill and drain every few operations.
//!
//! Run with `cargo run --release --example fsync_breakdown`.

use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{Fd, FileSystem, FileSystemExt, FsResult, OpenFlags};
use mssd::stats::Direction;
use mssd::{DramMode, Interface, Mssd, MssdConfig, TraceKind, CACHELINE};

const OPS: u64 = 2_000;
const MAIL_FILES: u64 = 1_000;
const TABLE: usize = 4 << 20;

fn main() -> FsResult<()> {
    breakdown(
        "write(8 KB) + fsync() of a mail file",
        |fs| {
            fs.mkdir("/mail")?;
            for i in 0..MAIL_FILES {
                fs.write_file(&format!("/mail/m{i}"), &[1u8; 16 << 10])?;
            }
            Ok(())
        },
        |fs, n| {
            let fd =
                fs.open(&format!("/mail/m{}", (n * 7) % MAIL_FILES), OpenFlags::read_write())?;
            fs.append(fd, &[7u8; 8 << 10])?;
            Ok(fd)
        },
    )?;
    breakdown(
        "pwrite(256 B) + fdatasync() of a 4 MB table",
        |fs| fs.write_file("/table", &vec![1u8; TABLE]),
        |fs, n| {
            let fd = fs.open("/table", OpenFlags::read_write())?;
            // A different page each time, at an offset that is rarely
            // cacheline-aligned; 1 024 pages, so the second visit writes a
            // different value.
            let offset = (n * 13 % 1_024) * 4_096 + n * 97 % (4_096 - 256);
            fs.write(fd, offset, &[(n % 200) as u8 + 2; 256])?;
            Ok(fd)
        },
    )
}

/// Runs `OPS` operations — `op` dirties a file and returns its descriptor,
/// then it is fsynced and closed — after `setup` on a fresh device, and
/// prints where their modelled time went.
fn breakdown(
    what: &str,
    setup: impl FnOnce(&ByteFs) -> FsResult<()>,
    mut op: impl FnMut(&ByteFs, u64) -> FsResult<Fd>,
) -> FsResult<()> {
    let mut cfg = MssdConfig::default().with_capacity(256 << 20).with_dram_region(2 << 20);
    cfg.write_buffer_bytes = 128 << 10;
    let device = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&device), ByteFsConfig::full())?;
    setup(&fs)?;
    fs.sync()?;
    device.try_flush().expect("no media fault planned");
    device.quiesce_cleaning();

    device.set_tracing(true);
    let before = device.snapshot();
    let (mut link, mut submits) = (0, 0);
    for n in 0..OPS {
        let start = device.clock().now_ns();
        let fd = op(&fs, n)?;
        fs.fsync(fd)?;
        let returned = device.clock().now_ns();
        fs.close(fd)?;
        // The cleaner is off the clock; wait for it as `benchmark/` does.
        device.quiesce_cleaning();
        // The one check that does not follow from how the rows below are
        // derived: the fsync waited once, for the later of its data command
        // and its commit record, and for nothing after either. (A drain
        // reads the rings' last events and leaves them there; both kinds are
        // stamped at submission, which is after the operation started.)
        let (mut commits, mut done) = (0, 0);
        for e in device.trace_sink().drain().events.iter().filter(|e| e.vclock_ns >= start) {
            match e.kind {
                TraceKind::BlockSubmit => {
                    // The link, command by command: each transfer is
                    // truncated to whole ns on its own.
                    link +=
                        cfg.nvme_overhead_ns + cfg.transfer_ns(e.a as usize * cfg.page_size, false);
                    submits += 1;
                    done = done.max(e.b);
                }
                TraceKind::TxCommit => {
                    commits += 1;
                    done = done.max(e.b);
                }
                _ => {}
            }
        }
        assert_eq!(commits, 1, "op {n}: one COMMIT per fsync");
        assert_eq!(returned, done, "op {n}: the fsync returned at {returned} ns, not at {done} ns");
    }
    let after = device.snapshot();

    let did = after.traffic.delta_since(&before.traffic);
    assert_eq!((did.block_requests, did.tx_commits), (submits, OPS), "the trace lost a command");
    let commit = did.tx_commits * cfg.nvme_overhead_ns;
    // ByteFS's stores are whole cachelines — inode halves, bitmap groups,
    // the 64-byte chunks of a byte-choice page — so they cost their lines.
    let store_bytes = did.host_bytes_by_interface(Direction::Write, Interface::Byte);
    let stores = store_bytes / CACHELINE as u64 * cfg.byte_write_ns;
    // The host is charged its stores and barriers as it issues them; the
    // rest of its device time is the one wait at the end of each fsync.
    let barrier = (did.device_busy_ns - did.inflight_wait_ns)
        .checked_sub(stores)
        .expect("the host was charged less than its stores cost");
    // Each wait covers what is left of the longer side — data command and
    // slot waits, or COMMIT overhead — so what the two sides add up to beyond
    // the waits ran beside the other interface.
    let hidden = (link + did.nand_stall_ns + commit)
        .checked_sub(did.inflight_wait_ns)
        .expect("the host waited longer than both interfaces were busy");
    assert!(
        hidden <= (link + did.nand_stall_ns).min(stores + barrier + commit),
        "more is hidden ({hidden} ns) than either interface had to hide"
    );
    let total = after.now_ns - before.now_ns;
    let host_code = total.checked_sub(did.device_busy_ns).expect("busy longer than the run");
    let per_op = |ns: u64| ns as f64 / OPS as f64 / 1e3;
    let row = |what: &str, us: f64| println!("  {what:<48}{us:6.2}");
    println!("{what} on ByteFS, modelled µs (mean of {OPS}):");
    row("NVMe link, data commands", per_op(link));
    row("COMMIT overhead", per_op(commit));
    row("byte interface: stores", per_op(stores));
    row("persistence barrier (write-verify read)", per_op(barrier));
    row("wait for a write-buffer slot", per_op(did.nand_stall_ns));
    row("hidden under the other interface", 0.0 - per_op(hidden));
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
    println!("verdict: {verdict}, {:.2} µs per op over the array's time\n", per_op(over));
    Ok(())
}
