//! The device against its durability contract, `mssd::spec::DurabilitySpec`.
//!
//! Random streams of byte, transactional, block, TRIM, FLUSH, COMMIT, crash
//! and RECOVER operations run through a host queue under both firmware
//! modes, some with a power cut at a chosen durability step. After every
//! step the durable state is copied, restored, recovered and every unit
//! written so far is read back against the spec.

use mssd::spec::{DurabilitySpec, Outcome};
use mssd::{Category, Command, DramMode, FaultPlan, Mssd, MssdConfig, TxId};
use proptest::prelude::*;

/// Byte-interface lines the streams write: the first two pages, so a
/// two-line write can cross the page boundary.
const LINES: u64 = 128;
/// First logical page of the block region, and its size in pages.
const BLOCK_BASE: u64 = 512;
const BLOCK_PAGES: u64 = 8;

#[derive(Debug, Clone)]
enum Op {
    /// Plain byte write of one or two lines, every byte `tag`.
    Byte {
        line: u64,
        two: bool,
        tag: u8,
    },
    /// Byte write of one line under the open transaction of `lane`.
    Tx {
        lane: usize,
        line: u64,
        tag: u8,
    },
    /// COMMIT of the open transaction of `lane`, which opens the next.
    Commit {
        lane: usize,
    },
    Block {
        page: u64,
        count: u64,
        tag: u8,
    },
    Trim {
        page: u64,
    },
    Flush,
    /// Power fails (in place, if it is still on) and comes back.
    Crash,
    Recover,
}

/// One operation. The page-cache firmware has no COMMIT, so its streams
/// get no transactions.
fn op(write_log: bool) -> impl Strategy<Value = Op> {
    (0..if write_log { 17u8 } else { 11 }, 0..LINES, 1..4u64, 1..255u8).prop_map(
        move |(kind, n, count, tag)| match if write_log || kind < 4 { kind } else { kind + 6 } {
            0..=3 => Op::Byte { line: n % (LINES - 1), two: count == 2, tag },
            4..=6 => Op::Tx { lane: n as usize % 2, line: n, tag },
            7..=9 => Op::Commit { lane: n as usize % 2 },
            10..=12 => Op::Block { page: n % (BLOCK_PAGES - 2), count, tag },
            13 => Op::Trim { page: n % BLOCK_PAGES },
            14 => Op::Flush,
            15 => Op::Crash,
            _ => Op::Recover,
        },
    )
}

/// A small device whose 8 KB log region fills and cleans within a stream.
fn config(cut: Option<u64>) -> MssdConfig {
    let mut cfg = MssdConfig::small_test();
    cfg.dram_region_bytes = 8 << 10;
    cfg.fault = cut.map_or_else(FaultPlan::disabled, FaultPlan::cut_at);
    cfg
}

fn byte_write(line: u64, lines: u64, tag: u8, txid: Option<TxId>) -> Command {
    Command::ByteWrite {
        addr: line * 64,
        data: vec![tag; 64 * lines as usize],
        txid,
        cat: Category::Data,
    }
}

/// Runs `ops` on a fresh device in `mode` with power cut at durability step
/// `cut` (none at 0), and after every step reads every unit written so far
/// from a restored and recovered copy of the durable state.
fn run(mode: DramMode, ops: &[Op], cut: u64) {
    let mut dev = Mssd::new(config((cut > 0).then_some(cut)), mode);
    let mut queue = dev.open_queue(4);
    let mut spec = DurabilitySpec::new(dev.page_size());
    let mut open = [TxId(1), TxId(1 << 16)];
    for (step, op) in ops.iter().enumerate() {
        let cmd = match *op {
            Op::Byte { line, two, tag } => Some(byte_write(line, 1 + u64::from(two), tag, None)),
            Op::Tx { lane, line, tag } => Some(byte_write(line, 1, tag, Some(open[lane]))),
            Op::Commit { lane } => {
                let txid = open[lane];
                open[lane] = TxId(txid.0 + 1);
                Some(Command::Commit { txid })
            }
            Op::Block { page, count, tag } => {
                let data = vec![tag; (count * 4096) as usize];
                Some(Command::BlockWrite { lba: BLOCK_BASE + page, data, cat: Category::Data })
            }
            Op::Trim { page } => Some(Command::Trim { lba: BLOCK_BASE + page, count: 1 }),
            Op::Flush => Some(Command::Flush),
            Op::Crash => {
                if !dev.fault_tripped() {
                    dev.crash();
                }
                dev = Mssd::from_crash_image(config(None), mode, &dev.crash_image());
                queue = dev.open_queue(4);
                None
            }
            Op::Recover => {
                if !dev.fault_tripped() {
                    dev.recover();
                    spec.recover();
                }
                None
            }
        };
        // With power off nothing executes: the command is never recorded.
        if let Some(cmd) = cmd.filter(|_| !dev.fault_tripped()) {
            queue.submit(cmd.clone()).expect("an empty queue takes a command");
            let done = queue.ring_doorbell() == 1;
            while queue.poll().is_some() {}
            spec.record(&cmd, if done { Outcome::Done } else { Outcome::CutInside });
        }
        let copy = Mssd::from_crash_image(config(None), mode, &dev.crash_image());
        copy.recover();
        let problems = spec.verify(&copy);
        assert!(problems.is_empty(), "step {step} ({op:?}): {problems:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn the_write_log_keeps_the_contract(ops in proptest::collection::vec(op(true), 1..48), cut in 0..200u64) {
        run(DramMode::WriteLog, &ops, cut);
    }

    #[test]
    fn the_page_cache_keeps_the_contract(ops in proptest::collection::vec(op(false), 1..48), cut in 0..200u64) {
        run(DramMode::PageCache, &ops, cut);
    }
}
