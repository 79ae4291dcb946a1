//! The fsync ordering contract (crate docs, "Durability ordering"): the data
//! pages of an `fsync`, `sync` or `O_DIRECT` write are *submitted* and cross
//! the link while the transaction's metadata stores are issued, the commit
//! record is submitted behind them and the host waits once. The device never
//! completes the record before the data. Read off the device trace: no
//! `tx_commit` announces a completion earlier than that of a `block_submit`
//! ahead of it, nor earlier than its own submission plus the command overhead.

use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{FileSystem, OpenFlags};
use mssd::stats::Direction;
use mssd::{DramMode, Interface, Mssd, MssdConfig, TraceKind, CACHELINE};

const PAGE: usize = 4096;

/// Asserts the contract on everything the rings hold (a drain reads their
/// last events and leaves them there) and returns `(block submissions,
/// commits, commits submitted behind data still in flight)`.
fn assert_commits_follow_their_data(dev: &Mssd) -> (usize, usize, usize) {
    let overhead = dev.config().nvme_overhead_ns;
    let dump = dev.trace_sink().drain();
    assert_eq!(dump.dropped, 0);
    let (mut data_done, mut submits, mut commits, mut behind) = (0, 0, 0, 0);
    for e in &dump.events {
        match e.kind {
            TraceKind::BlockSubmit => {
                data_done = data_done.max(e.b);
                submits += 1;
            }
            TraceKind::TxCommit => {
                assert!(
                    e.b >= data_done,
                    "COMMIT of tx {} completes at {} ns, but a data write submitted before it \
                     completes at {} ns",
                    e.a,
                    e.b,
                    data_done
                );
                assert!(
                    e.b >= e.vclock_ns + overhead,
                    "COMMIT of tx {} submitted at {} ns completes at {} ns: under its own overhead",
                    e.a,
                    e.vclock_ns,
                    e.b
                );
                commits += 1;
                behind += usize::from(e.vclock_ns < data_done);
            }
            _ => {}
        }
    }
    (submits, commits, behind)
}

#[test]
fn no_commit_record_completes_before_its_data_is_complete() {
    let cfg = MssdConfig::small_test();
    let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    dev.set_tracing(true);

    // fsync: small appends, a many-command file, a byte-choice page between
    // two block runs.
    let fd = fs.open("/f", OpenFlags::create_rw()).unwrap();
    for round in 0..6u64 {
        fs.write(fd, round * 2 * PAGE as u64, &vec![round as u8 | 1; 2 * PAGE]).unwrap();
        fs.fsync(fd).unwrap();
    }
    let big = fs.open("/big", OpenFlags::create_rw()).unwrap();
    fs.write(big, 0, &vec![5u8; 40 * PAGE]).unwrap();
    fs.fsync(big).unwrap();
    fs.write(fd, 0, &vec![8u8; PAGE]).unwrap();
    fs.write(fd, PAGE as u64 + 640, &[9u8; 64]).unwrap();
    fs.write(fd, 2 * PAGE as u64, &vec![8u8; 2 * PAGE]).unwrap();
    fs.fsync(fd).unwrap();
    let (submits, commits, behind) = assert_commits_follow_their_data(&dev);
    assert!(submits >= 6 + 3 + 2 && commits >= 8, "{submits} submissions, {commits} commits");
    // Not vacuous: the 40-page fsync's record, for one, was queued behind data
    // that had not crossed the link yet.
    assert!(behind >= 1, "no COMMIT was submitted with data in flight");

    // sync over several dirty files, and O_DIRECT with a partial tail page.
    for i in 0..4 {
        let fd = fs.open(&format!("/s{i}"), OpenFlags::create_rw()).unwrap();
        fs.write(fd, 0, &vec![i as u8 | 1; 3 * PAGE]).unwrap();
    }
    fs.sync().unwrap();
    let direct = fs.open("/direct", OpenFlags::create_rw().with_direct()).unwrap();
    fs.write(direct, 0, &vec![4u8; 3 * PAGE + 100]).unwrap();
    let (submits, commits, _) = assert_commits_follow_their_data(&dev);
    assert!(submits >= 4 + 2 && commits >= 5, "{submits} submissions, {commits} commits");
}

#[test]
fn an_fsync_waits_once_for_the_later_of_its_data_and_its_commit_record() {
    let cfg = MssdConfig::small_test();
    let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    let fd = fs.open("/f", OpenFlags::create_rw()).unwrap();
    fs.write(fd, 0, &vec![1u8; 2 * PAGE]).unwrap();
    fs.fsync(fd).unwrap();

    // An append's fsync issues three one-cacheline stores (the inode's two
    // halves, one block-bitmap group) — 3 × 600 = 1 800 ns — and no
    // write-verify read: the COMMIT's completion is the barrier. Its byte side
    // is 1 800 + 8 000 = 9 800 ns of stores and COMMIT overhead, against a
    // data command of 8 000 ns plus its transfer at 2.5 GB/s:
    //   1 page    9 638 ns  the record is the later;
    //   2 pages  11 276 ns  the data is;
    //  12 pages  27 660 ns  the record waits in the device for the transfer.
    let mut offset = 2 * PAGE as u64;
    for (pages, link_bound) in [(1, false), (2, true), (12, true)] {
        dev.try_flush().unwrap(); // a known NAND backlog: none
        fs.write(fd, offset, &vec![2u8; pages * PAGE]).unwrap();
        offset += (pages * PAGE) as u64;
        let before = dev.snapshot();
        fs.fsync(fd).unwrap();
        let after = dev.snapshot();
        let did = after.traffic.delta_since(&before.traffic);
        assert_eq!((did.block_requests, did.tx_commits, did.nand_stall_ns), (1, 1, 0));
        let link = cfg.nvme_overhead_ns + cfg.transfer_ns(pages * PAGE, false);
        // What the host is charged as it goes is its stores and nothing else.
        let store_bytes = did.host_bytes_by_interface(Direction::Write, Interface::Byte);
        assert_eq!((did.byte_requests, store_bytes), (3, 3 * CACHELINE as u64));
        let stores = did.device_busy_ns - did.inflight_wait_ns;
        assert_eq!(stores, 3 * cfg.byte_access_ns(CACHELINE, false), "no barrier is charged");
        assert_eq!(stores + cfg.nvme_overhead_ns < link, link_bound, "{pages} pages");
        // Data command beside stores + COMMIT overhead, one wait.
        assert_eq!(after.now_ns - before.now_ns, link.max(stores + cfg.nvme_overhead_ns));
        assert_eq!(did.inflight_wait_ns, (link - stores).max(cfg.nvme_overhead_ns));
    }
}
