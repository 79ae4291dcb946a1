//! The link's timeline (`DESIGN-time.md`): a block write can be submitted
//! and waited for later. Checked two ways — the synchronous call is exactly
//! submit + wait, and no mix of in-flight commands, byte-interface stores and
//! waits finishes before the link has moved its bytes, before any command's
//! own overhead and transfer, before the host has paid for its own stores,
//! or before the array has programmed its pages.
//!
//! `small_test()` in write-log mode unless said otherwise: 4 channels ×
//! 4-page slices (a 16-page write buffer), a page program of 60 µs. The
//! background cleaner is off wherever byte writes could start it, so every
//! run is a function of its op list.

use std::sync::Arc;

use proptest::prelude::*;

use mssd::{Category, DramMode, InFlight, Mssd, MssdConfig, TraceKind, TxId, PAGE_SIZE};

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
    dev.wait(cmd);
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

    /// Replacing every synchronous block write by submit-then-wait changes
    /// nothing: not the clock, not a counter, not the durable state.
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
                    Op::Commit => dev.commit(TxId(1 + n as u32 / 8)),
                    Op::Wait => {}
                }
            }
            (dev.clock().now_ns(), dev.traffic(), dev.crash_image().digest())
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Whatever is in flight, stored and waited for, in whatever order: once
    /// everything has been waited for and flushed, the run took at least the
    /// link's time for its bytes, every command's own overhead and transfer,
    /// the host's own byte-interface and command costs, and the array's time
    /// for the pages it programmed.
    #[test]
    fn no_mix_of_submits_stores_and_waits_beats_a_physical_bound(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let cfg = config();
        let dev = device(&cfg);
        let mut in_flight = std::collections::VecDeque::new();
        // `host_ns`: what the host itself is charged — its stores by the
        // byte interface's own formula, its synchronous commands as they come.
        let (mut bytes, mut host_ns) = (0usize, 0u64);
        for (n, op) in ops.iter().enumerate() {
            let before = dev.clock().now_ns();
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
                    let tx = Some(TxId(1 + n as u32 / 8));
                    dev.try_byte_write(lpa * 4096, &vec![n as u8; len], tx, Category::Inode)
                        .unwrap();
                    host_ns += cfg.byte_access_ns(len, false);
                    prop_assert!(dev.clock().now_ns() - before >= cfg.byte_access_ns(len, false));
                }
                Op::BlockRead { lba } => {
                    drop(dev.try_block_read(lba, 1, Category::Data).unwrap());
                    host_ns += dev.clock().now_ns() - before;
                }
                // A FLUSH or a COMMIT is ordered after the data: wait first.
                Op::Flush | Op::Commit => {
                    for cmd in in_flight.drain(..) {
                        let at = dev.clock().now_ns();
                        prop_assert_eq!(dev.wait(cmd), cmd.done_ns().saturating_sub(at));
                    }
                    let issued = dev.clock().now_ns();
                    if matches!(op, Op::Flush) {
                        dev.try_flush().unwrap();
                    } else {
                        dev.commit(TxId(1 + n as u32 / 8));
                    }
                    host_ns += dev.clock().now_ns() - issued;
                }
                Op::Wait => {
                    if let Some(cmd) = in_flight.pop_front() {
                        dev.wait(cmd);
                        prop_assert!(dev.clock().now_ns() >= cmd.done_ns());
                    }
                }
            }
        }
        for cmd in in_flight {
            dev.wait(cmd);
        }
        dev.try_flush().unwrap();
        let elapsed = dev.clock().now_ns();
        let t = dev.traffic();
        prop_assert!(elapsed as f64 >= bytes as f64 / cfg.block_write_bw * 1e9);
        prop_assert!(elapsed >= host_ns);
        let programs = t.flash_write_pages + t.flash_internal_write_pages;
        prop_assert!(elapsed >= programs * cfg.flash_write_ns / cfg.channels as u64);
        prop_assert!(t.device_busy_ns <= elapsed, "the host cannot wait longer than the run");
        prop_assert!(t.inflight_wait_ns <= t.device_busy_ns);
    }
}
