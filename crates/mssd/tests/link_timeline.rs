//! The link's timeline (`DESIGN-time.md`): a block write or a COMMIT can be
//! submitted and waited for later, the COMMIT ordered inside the device behind
//! block writes still in flight. Checked two ways — the synchronous call is
//! exactly submit + wait, and no mix of in-flight commands, byte-interface
//! stores and waits finishes before the link has moved its bytes, before any
//! command's own overhead and transfer, before the host has paid for its own
//! stores, or before the array has programmed its pages; no commit record
//! completes before the data it was queued behind.
//!
//! `small_test()` in write-log mode unless said otherwise: 4 channels ×
//! 4-page slices (a 16-page write buffer), a page program of 60 µs. The
//! background cleaner is off wherever byte writes could start it, so every
//! run is a function of its op list.

use std::sync::Arc;

use proptest::prelude::*;

use mssd::{
    Category, DramMode, FaultKind, FaultPlan, InFlight, Mssd, MssdConfig, TraceKind, TxId,
    PAGE_SIZE,
};

fn config() -> MssdConfig {
    MssdConfig { background_cleaning: false, ..MssdConfig::small_test() }
}

fn device(cfg: &MssdConfig) -> Arc<Mssd> {
    Mssd::new(cfg.clone(), DramMode::WriteLog)
}

/// Submits `pages` pages at `lba` as one command.
fn submit(dev: &Mssd, lba: u64, pages: usize) -> InFlight {
    let data = vec![lba as u8 | 1; pages * PAGE_SIZE];
    let pages: Vec<&[u8]> = data.chunks(PAGE_SIZE).collect();
    dev.submit_block_write_pages(lba, &pages, Category::Data).unwrap()
}

#[test]
fn commands_in_flight_together_share_one_overhead() {
    let cfg = config();
    let transfer = cfg.transfer_ns(PAGE_SIZE, false);
    for n in [1u64, 2, 7, 16] {
        let dev = device(&cfg);
        let cmds: Vec<InFlight> = (0..n).map(|lba| submit(&dev, lba, 1)).collect();
        assert_eq!(dev.clock().now_ns(), 0, "submitting costs the host nothing");
        for (k, cmd) in cmds.iter().enumerate() {
            // Each transfer starts when the one before it has crossed.
            assert_eq!(cmd.done_ns(), cfg.nvme_overhead_ns + (k as u64 + 1) * transfer);
        }
        let last = cmds.into_iter().max().unwrap();
        assert_eq!(dev.wait(last), cfg.nvme_overhead_ns + n * transfer);
        assert_eq!(dev.clock().now_ns(), cfg.nvme_overhead_ns + n * transfer);
        assert_eq!(dev.wait(last), 0, "a second wait finds the command complete");
        let t = dev.traffic();
        assert_eq!((t.block_requests, t.nand_stall_ns), (n, 0));
        assert_eq!(t.inflight_wait_ns, t.device_busy_ns);
    }
}

#[test]
fn byte_stores_issued_during_a_transfer_hide_under_it() {
    let cfg = config();
    let dev = device(&cfg);
    let cmd = submit(&dev, 0, 2);
    let link = cfg.nvme_overhead_ns + cfg.transfer_ns(2 * PAGE_SIZE, false);
    assert_eq!(cmd.done_ns(), link);
    for i in 0..3 {
        dev.try_byte_write((100 + i) * 4096, &[9u8; 64], Some(TxId(1)), Category::Inode).unwrap();
    }
    dev.persist_barrier();
    let stores = dev.clock().now_ns();
    assert!(stores > 0 && stores < link);
    assert_eq!(dev.wait(cmd), link - stores, "the host waits for what is left of the command");
    let t = dev.traffic();
    assert_eq!(t.device_busy_ns, link, "busy time is what the clock advanced, never more");
    assert_eq!(t.inflight_wait_ns, link - stores);
    // Stores that outlast the command leave nothing to wait for.
    let cmd = submit(&dev, 8, 1);
    while dev.clock().now_ns() < cmd.done_ns() {
        dev.try_byte_write(200 * 4096, &[9u8; 64], Some(TxId(1)), Category::Inode).unwrap();
    }
    let before = dev.traffic().device_busy_ns;
    assert_eq!(dev.wait(cmd), 0);
    assert_eq!(dev.traffic().device_busy_ns, before);
}

#[test]
fn a_synchronous_write_queues_behind_what_is_in_flight() {
    let cfg = config();
    let dev = device(&cfg);
    let first = submit(&dev, 0, 4);
    dev.try_block_write(8, &vec![3u8; PAGE_SIZE], Category::Data).unwrap();
    let link = |pages: usize| cfg.transfer_ns(pages * PAGE_SIZE, false);
    assert_eq!(dev.clock().now_ns(), cfg.nvme_overhead_ns + link(4) + link(1));
    assert_eq!(dev.wait(first), 0);
}

#[test]
fn queued_commands_meet_a_full_buffer_once_not_once_each() {
    // The hazard the link's timeline was built around (`DESIGN-time.md`,
    // "Measured and dropped"): 256 pages in 16-page commands on `benchmark/`'s
    // ÷128 geometry overrun the 32-slot write buffer, so every command waits
    // for slots. A command queued behind others on the link must do so from
    // the end of its own transfer; evaluated at the submitter's clock each
    // one would pay the whole backlog again on top of its queueing.
    let mut cfg = MssdConfig::default().with_capacity(256 << 20).with_dram_region(2 << 20);
    cfg.write_buffer_bytes = 128 << 10;
    let write_all = |in_flight: bool| {
        let dev = device(&cfg);
        let mut cmds = Vec::new();
        for lba in (0..256).step_by(16) {
            let cmd = submit(&dev, lba, 16);
            if in_flight {
                cmds.push(cmd);
            } else {
                dev.wait(cmd);
            }
        }
        for cmd in cmds {
            dev.wait(cmd);
        }
        let t = dev.traffic();
        assert!(t.nand_stall_ns > 0, "the buffer never filled: the test is vacuous");
        (dev.clock().now_ns(), t.flash_write_pages)
    };
    let (sync_ns, sync_programs) = write_all(false);
    let (in_flight_ns, in_flight_programs) = write_all(true);
    assert_eq!(in_flight_programs, sync_programs);
    assert!(in_flight_ns <= sync_ns, "{in_flight_ns} ns in flight against {sync_ns} ns one by one");
    // And no faster than the bytes cross the link.
    assert!(in_flight_ns >= cfg.nvme_overhead_ns + cfg.transfer_ns(256 * PAGE_SIZE, false));
}

#[test]
fn a_power_cut_empties_the_link() {
    let cfg = config();
    let dev = device(&cfg);
    let lost = (0..4).map(|i| submit(&dev, i * 16, 16)).max().unwrap();
    assert!(lost.done_ns() > dev.clock().now_ns());
    dev.crash(); // nobody is left to wait for the transfers
    dev.try_flush().unwrap();
    let before = dev.clock().now_ns();
    dev.try_block_write(100, &vec![1u8; PAGE_SIZE], Category::Data).unwrap();
    assert_eq!(
        dev.clock().now_ns() - before,
        cfg.nvme_overhead_ns + cfg.transfer_ns(PAGE_SIZE, false),
        "the commands of before the cut did not keep the link busy"
    );
}

#[test]
fn a_submission_is_traced_with_its_completion() {
    let cfg = config();
    let dev = device(&cfg);
    dev.set_tracing(true);
    let cmd = submit(&dev, 0, 3);
    let ev = dev.trace_sink().drain().events;
    let submits: Vec<_> = ev.iter().filter(|e| e.kind == TraceKind::BlockSubmit).collect();
    assert_eq!(submits.len(), 1);
    assert_eq!((submits[0].vclock_ns, submits[0].a, submits[0].b), (0, 3, cmd.done_ns()));
    let record = dev.submit_commit(TxId(7), cmd);
    let ev = dev.trace_sink().drain().events;
    let commits: Vec<_> = ev.iter().filter(|e| e.kind == TraceKind::TxCommit).collect();
    assert_eq!(commits.len(), 1);
    assert_eq!((commits[0].vclock_ns, commits[0].a, commits[0].b), (0, 7, record.done_ns()));
    dev.wait(record);
}

/// One tagged 64-byte store into page `lpa`.
fn store(dev: &Mssd, lpa: u64, tx: u32) {
    dev.try_byte_write(lpa * 4096, &[tx as u8; 64], Some(TxId(tx)), Category::Inode).unwrap();
}

#[test]
fn a_commit_in_flight_pipelines_its_overhead_and_cannot_pass_its_data() {
    let cfg = config();
    let dev = device(&cfg);
    // Behind nothing: the fixed overhead; the record is in the TxLog at once,
    // the host has paid nothing until it waits.
    let record = dev.submit_commit(TxId(1), InFlight::default());
    assert!(dev.is_committed(TxId(1)));
    assert_eq!((dev.clock().now_ns(), record.done_ns()), (0, cfg.nvme_overhead_ns));
    assert_eq!(dev.wait(record), cfg.nvme_overhead_ns);
    // Behind a command still crossing the link: the record completes with
    // it, and the two overheads overlap.
    let data = submit(&dev, 0, 8);
    let record = dev.submit_commit(TxId(2), data);
    assert_eq!(record, data);
    assert_eq!(dev.wait(record), cfg.nvme_overhead_ns + cfg.transfer_ns(8 * PAGE_SIZE, false));
    // Behind a command that is over before the record's own overhead is: the
    // overhead decides, counted from the record's submission.
    let data = submit(&dev, 16, 1);
    while dev.clock().now_ns() + cfg.nvme_overhead_ns <= data.done_ns() {
        store(&dev, 100, 3);
    }
    let submitted = dev.clock().now_ns();
    let record = dev.submit_commit(TxId(3), data);
    assert_eq!(record.done_ns(), submitted + cfg.nvme_overhead_ns);
    assert_eq!(dev.wait(record), cfg.nvme_overhead_ns);
    let t = dev.traffic();
    assert_eq!((t.tx_commits, t.block_requests), (3, 2));
    assert_eq!(t.device_busy_ns, dev.clock().now_ns());
}

#[test]
fn a_power_cut_at_the_commit_step_keeps_the_data_and_drops_the_transaction() {
    // Three data pages and two tagged stores are five durability steps; the
    // sixth is the COMMIT submitted while the data is still on the link. A
    // cut is a step index, so being in flight adds no crash state: the pages
    // the device accepted are in the image, the record is not, and RECOVER
    // discards the transaction's log entries.
    let mut cfg = config();
    cfg.fault = FaultPlan::cut_at(6);
    let dev = device(&cfg);
    let data = submit(&dev, 8, 3);
    store(&dev, 100, 1);
    store(&dev, 101, 1);
    assert!(data.done_ns() > dev.clock().now_ns(), "the data is still in flight");
    let record = dev.submit_commit(TxId(1), data);
    assert_eq!(dev.fault_plan().cut_kind(), Some(FaultKind::TxCommit));
    assert_eq!(record, InFlight::default(), "a command that never executed is not waited for");
    let image = dev.crash_image();
    assert!(image.txlog.is_empty());
    assert_eq!(image.log_entries.len(), 2);

    let back = Mssd::from_crash_image(config(), DramMode::WriteLog, &image);
    let report = back.recover();
    assert_eq!((report.scanned_entries, report.discarded_entries), (2, 2));
    assert!(!back.is_committed(TxId(1)));
    for lba in 8..11 {
        assert_eq!(back.try_block_read(lba, 1, Category::Data).unwrap(), vec![9u8; PAGE_SIZE]);
    }
    assert_eq!(back.try_byte_read(100 * 4096, 64, Category::Inode).unwrap(), vec![0u8; 64]);
}

#[test]
fn a_txlog_full_commit_behind_a_long_run_cleans_once_from_the_end_of_that_run() {
    // 16 commit records fill this TxLog, so the 17th COMMIT runs a
    // stop-the-world clean (16 log pages to merge and program). It is
    // submitted behind 64 pages that overrun the 16-slot write buffer, so the
    // array has a backlog when the run ends. The clean belongs after that
    // run: evaluated at the submitter's clock it would wait for the backlog
    // on top of the run that produces it (rule 3's lesson).
    let mut cfg = config();
    cfg.txlog_bytes = 16 * mssd::txn::COMMIT_RECORD_BYTES;
    let run = |in_flight: bool| {
        let dev = device(&cfg);
        for tx in 1..=16 {
            store(&dev, 1000 + tx as u64, tx);
            dev.commit(TxId(tx));
        }
        dev.try_flush().unwrap();
        let (start, before) = (dev.clock().now_ns(), dev.traffic());
        let data = (0..4).map(|i| submit(&dev, 256 + i * 16, 16)).max().unwrap();
        let record = if in_flight {
            let record = dev.submit_commit(TxId(17), data);
            assert!(record > data, "the clean starts where the run ends");
            record
        } else {
            dev.wait(data);
            dev.submit_commit(TxId(17), InFlight::default())
        };
        dev.wait(record);
        let did = dev.traffic().delta_since(&before);
        assert!(did.nand_stall_ns > 0, "the buffer never filled: the test is vacuous");
        assert_eq!((did.tx_commits, did.log_cleanings), (1, 1));
        assert!(dev.is_committed(TxId(17)) && !dev.is_committed(TxId(16)));
        (dev.clock().now_ns() - start, did.flash_write_pages)
    };
    let (sync_ns, sync_programs) = run(false);
    let (in_flight_ns, in_flight_programs) = run(true);
    assert_eq!(in_flight_programs, sync_programs);
    // All that being in flight saves is the record's overhead, hidden under
    // the run; the clean is paid in full, once.
    assert!(in_flight_ns <= sync_ns, "{in_flight_ns} ns in flight against {sync_ns} ns in turn");
    assert!(in_flight_ns + cfg.nvme_overhead_ns >= sync_ns, "{in_flight_ns} vs {sync_ns}");
}

#[derive(Debug, Clone)]
enum Op {
    /// A block write of `pages` pages at `lba`.
    Write {
        lba: u64,
        pages: usize,
    },
    /// A byte-interface store of `len` bytes in page `lpa`.
    Store {
        lpa: u64,
        len: usize,
    },
    BlockRead {
        lba: u64,
    },
    Flush,
    Commit,
    /// (Second property only) wait for the oldest command in flight.
    Wait,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let write = || (0u64..240, 1usize..17).prop_map(|(lba, pages)| Op::Write { lba, pages });
    let store = || (0u64..256, 1usize..257).prop_map(|(lpa, len)| Op::Store { lpa, len });
    prop_oneof![
        write(),
        write(),
        write(),
        write(),
        store(),
        store(),
        store(),
        store(),
        (0u64..256).prop_map(|lba| Op::BlockRead { lba }),
        Just(Op::Flush),
        Just(Op::Commit),
        Just(Op::Wait),
        Just(Op::Wait),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Replacing every synchronous block write and COMMIT by submit-then-wait
    /// changes nothing: not the clock, not a counter, not the durable state.
    #[test]
    fn submit_then_wait_is_the_synchronous_write(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let cfg = config();
        let run = |split: bool| {
            let dev = device(&cfg);
            for (n, op) in ops.iter().enumerate() {
                match *op {
                    Op::Write { lba, pages } if split => {
                        dev.wait(submit(&dev, lba, pages));
                    }
                    Op::Write { lba, pages } => {
                        let data = vec![lba as u8 | 1; pages * PAGE_SIZE];
                        dev.try_block_write(lba, &data, Category::Data).unwrap();
                    }
                    Op::Store { lpa, len } => {
                        let tx = Some(TxId(1 + n as u32 / 8));
                        dev.try_byte_write(lpa * 4096, &vec![n as u8; len], tx, Category::Inode)
                            .unwrap();
                    }
                    Op::BlockRead { lba } => drop(dev.try_block_read(lba, 1, Category::Data).unwrap()),
                    Op::Flush => dev.try_flush().unwrap(),
                    Op::Commit if split => {
                        dev.wait(dev.submit_commit(TxId(1 + n as u32 / 8), InFlight::default()));
                    }
                    Op::Commit => dev.commit(TxId(1 + n as u32 / 8)),
                    Op::Wait => {}
                }
            }
            (dev.clock().now_ns(), dev.traffic(), dev.crash_image().digest())
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Whatever is in flight, stored and waited for, in whatever order — a
    /// COMMIT submitted behind every block write still in flight, a FLUSH
    /// after waiting for them: once everything has been waited for and
    /// flushed, the run took at least the link's time for its bytes, every
    /// command's own overhead and transfer, the host's own byte-interface and
    /// command costs plus the overhead of a record submitted after them, and
    /// the array's time for the pages it programmed. No record completes
    /// before the data it was queued behind, and a transaction is committed
    /// exactly when its COMMIT was submitted.
    #[test]
    fn no_mix_of_submits_stores_and_waits_beats_a_physical_bound(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let cfg = config();
        let dev = device(&cfg);
        let mut in_flight = std::collections::VecDeque::new();
        let mut committed = std::collections::BTreeSet::new();
        // `host_ns`: what the host itself is charged — its stores by the
        // byte interface's own formula, its synchronous commands as they come.
        // `floor_ns`: the latest completion any command announced.
        let (mut bytes, mut host_ns, mut floor_ns) = (0usize, 0u64, 0u64);
        for (n, op) in ops.iter().enumerate() {
            let before = dev.clock().now_ns();
            let tx = TxId(1 + n as u32 / 8);
            match *op {
                Op::Write { lba, pages } => {
                    let cmd = submit(&dev, lba, pages);
                    let own = cfg.nvme_overhead_ns + cfg.transfer_ns(pages * PAGE_SIZE, false);
                    prop_assert!(cmd.done_ns() >= before + own);
                    prop_assert_eq!(dev.clock().now_ns(), before);
                    in_flight.push_back(cmd);
                    bytes += pages * PAGE_SIZE;
                }
                Op::Store { lpa, len } => {
                    dev.try_byte_write(lpa * 4096, &vec![n as u8; len], Some(tx), Category::Inode)
                        .unwrap();
                    host_ns += cfg.byte_access_ns(len, false);
                    prop_assert!(dev.clock().now_ns() - before >= cfg.byte_access_ns(len, false));
                }
                Op::BlockRead { lba } => {
                    drop(dev.try_block_read(lba, 1, Category::Data).unwrap());
                    host_ns += dev.clock().now_ns() - before;
                }
                // A COMMIT is ordered after the data inside the device.
                Op::Commit => {
                    let data = in_flight.iter().copied().max().unwrap_or_default();
                    let record = dev.submit_commit(tx, data);
                    prop_assert_eq!(dev.clock().now_ns(), before);
                    prop_assert!(record >= data, "the record passed its data");
                    prop_assert!(record.done_ns() >= before + cfg.nvme_overhead_ns);
                    prop_assert!(record.done_ns() >= host_ns + cfg.nvme_overhead_ns);
                    committed.insert(tx);
                    in_flight.push_back(record);
                }
                // A FLUSH is ordered after the data by the host: wait first.
                Op::Flush => {
                    for cmd in in_flight.drain(..) {
                        let at = dev.clock().now_ns();
                        prop_assert_eq!(dev.wait(cmd), cmd.done_ns().saturating_sub(at));
                    }
                    let issued = dev.clock().now_ns();
                    dev.try_flush().unwrap();
                    host_ns += dev.clock().now_ns() - issued;
                }
                Op::Wait => {
                    if let Some(cmd) = in_flight.pop_front() {
                        dev.wait(cmd);
                        prop_assert!(dev.clock().now_ns() >= cmd.done_ns());
                    }
                }
            }
            floor_ns = floor_ns.max(in_flight.back().map_or(0, |cmd| cmd.done_ns()));
        }
        for cmd in in_flight {
            dev.wait(cmd);
        }
        dev.try_flush().unwrap();
        let elapsed = dev.clock().now_ns();
        let t = dev.traffic();
        prop_assert!(elapsed as f64 >= bytes as f64 / cfg.block_write_bw * 1e9);
        prop_assert!(elapsed >= host_ns && elapsed >= floor_ns);
        let programs = t.flash_write_pages + t.flash_internal_write_pages;
        prop_assert!(elapsed >= programs * cfg.flash_write_ns / cfg.channels as u64);
        prop_assert!(t.device_busy_ns <= elapsed, "the host cannot wait longer than the run");
        prop_assert!(t.inflight_wait_ns <= t.device_busy_ns);
        prop_assert_eq!(t.log_cleanings, 0, "a clean would have emptied the TxLog");
        for tx in (1..=1 + ops.len() as u32 / 8).map(TxId) {
            prop_assert_eq!(dev.is_committed(tx), committed.contains(&tx), "{:?}", tx);
        }
    }
}
