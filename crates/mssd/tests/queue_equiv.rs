//! Property test: batched multi-queue submission is observationally
//! equivalent to the same ops issued sequentially through the synchronous
//! depth-1 shim — coalescing and doorbell batching are a *transport*
//! optimization, never a semantic one.
//!
//! The harness mirrors `sharded_log_equiv`: a randomized op stream is
//! applied to two fresh devices — once through direct synchronous calls
//! (device A), once through per-queue batched submission with
//! randomly-placed doorbells (device B). Queues own disjoint partitions
//! (the per-core model the stack is built around), so issuing the streams
//! queue-major sequentially on A covers every interleaving B can produce.
//! After the streams, every touched byte range, the committed-transaction
//! set and the post-`RECOVER()` state must match exactly.
//!
//! The file also carries the multi-queue fairness test: a queue must keep
//! completing commands while a neighbour queue saturates the device.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use mssd::log::PARTITION_BYTES;
use mssd::queue::Command;
use mssd::{Category, DramMode, Mssd, MssdConfig, TxId};

/// Queues (= partitions) the property test spreads ops over.
const QUEUES: usize = 3;

/// 64-byte slots per partition the streams touch.
const SLOTS: u64 = 48;

/// One op of a queue's stream.
#[derive(Debug, Clone)]
enum QOp {
    /// Byte write of `lines` cachelines starting at `slot` (wraps), tagged
    /// `tag`; transactional when `tx` is true.
    Write { slot: u8, lines: u8, tag: u8, tx: bool },
    /// Commit the queue's running transaction.
    Commit,
    /// Block write of one page (page index within the partition's block
    /// region).
    BlockWrite { page: u8, tag: u8 },
    /// TRIM one page of the partition's block region.
    Trim { page: u8 },
    /// NVMe FLUSH.
    Flush,
}

fn write_strategy() -> impl Strategy<Value = QOp> {
    (any::<u8>(), 1u8..5, any::<u8>(), any::<bool>())
        .prop_map(|(slot, lines, tag, tx)| QOp::Write { slot, lines, tag, tx })
}

fn op_strategy() -> impl Strategy<Value = QOp> {
    // Byte writes appear several times to weight the mix toward them, so
    // coalescible runs actually form (the vendored proptest's prop_oneof!
    // has no weight syntax).
    prop_oneof![
        write_strategy(),
        write_strategy(),
        write_strategy(),
        write_strategy(),
        Just(QOp::Commit),
        (any::<u8>(), any::<u8>()).prop_map(|(page, tag)| QOp::BlockWrite { page, tag }),
        any::<u8>().prop_map(|page| QOp::Trim { page }),
        Just(QOp::Flush),
    ]
}

fn config() -> MssdConfig {
    let mut cfg = MssdConfig::small_test();
    // QUEUES byte partitions plus one block partition.
    cfg.capacity_bytes = (QUEUES as u64 + 1) * PARTITION_BYTES;
    cfg
}

/// Device byte address of `slot` in queue `q`'s partition.
fn slot_addr(q: usize, slot: u8) -> u64 {
    q as u64 * PARTITION_BYTES + (slot as u64 % SLOTS) * 64
}

/// Logical page of block-op `page` in queue `q`'s slice of the block
/// partition (the last partition, split per queue so queues stay disjoint).
fn block_lba(cfg: &MssdConfig, q: usize, page: u8) -> u64 {
    let base = QUEUES as u64 * (PARTITION_BYTES / cfg.page_size as u64);
    base + q as u64 * 16 + page as u64 % 16
}

/// Converts one op into the commands it issues (byte writes may span
/// several commands so adjacent submissions can coalesce).
fn commands(cfg: &MssdConfig, q: usize, op: &QOp, tx: &mut u32) -> Vec<Command> {
    match op {
        QOp::Write { slot, lines, tag, tx: txn } => {
            let txid = txn.then_some(TxId(*tx));
            // One command per cacheline: consecutive lines are adjacent, so
            // the doorbell's coalescer sees real mergeable runs.
            (0..*lines)
                .map(|i| Command::ByteWrite {
                    addr: slot_addr(q, slot.wrapping_add(i)),
                    data: vec![tag.wrapping_add(i); 64],
                    txid,
                    cat: Category::Data,
                })
                .collect()
        }
        QOp::Commit => {
            let cmd = Command::Commit { txid: TxId(*tx) };
            *tx += 1;
            vec![cmd]
        }
        QOp::BlockWrite { page, tag } => vec![Command::BlockWrite {
            lba: block_lba(cfg, q, *page),
            data: vec![*tag; cfg.page_size],
            cat: Category::Data,
        }],
        QOp::Trim { page } => vec![Command::Trim { lba: block_lba(cfg, q, *page), count: 1 }],
        QOp::Flush => vec![Command::Flush],
    }
}

/// Applies one command synchronously (the depth-1 shim path).
fn apply_sync(dev: &Mssd, cmd: &Command) {
    match cmd {
        Command::ByteWrite { addr, data, txid, cat } => {
            dev.try_byte_write(*addr, data, *txid, *cat).unwrap()
        }
        Command::ByteRead { addr, len, cat } => {
            dev.try_byte_read(*addr, *len, *cat).unwrap();
        }
        Command::BlockWrite { lba, data, cat } => dev.try_block_write(*lba, data, *cat).unwrap(),
        Command::BlockRead { lba, count, cat } => {
            dev.try_block_read(*lba, *count, *cat).unwrap();
        }
        Command::Flush => dev.try_flush().unwrap(),
        Command::Trim { lba, count } => dev.trim(*lba, *count),
        Command::Commit { txid } => dev.commit(*txid),
    }
}

/// Reads every observable range of the address space the streams touch.
fn observe(cfg: &MssdConfig, dev: &Mssd) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for q in 0..QUEUES {
        out.push(
            dev.try_byte_read(q as u64 * PARTITION_BYTES, (SLOTS * 64) as usize, Category::Data)
                .unwrap(),
        );
        for page in 0..16u8 {
            out.push(dev.try_block_read(block_lba(cfg, q, page), 1, Category::Data).unwrap());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn batched_multi_queue_equals_sequential_shim(
        streams in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..40), QUEUES..QUEUES + 1),
        doorbell_every in 1usize..12,
    ) {
        let cfg = config();
        let dev_sync = Mssd::new(cfg.clone(), DramMode::WriteLog);
        let dev_mq = Mssd::new(cfg.clone(), DramMode::WriteLog);

        // Device A: every queue's stream, queue-major, through the shim.
        for (q, stream) in streams.iter().enumerate() {
            let mut tx = (q as u32 + 1) << 16;
            for op in stream {
                for cmd in commands(&cfg, q, op, &mut tx) {
                    apply_sync(&dev_sync, &cmd);
                }
            }
        }

        // Device B: one HostQueue per stream, batched submission with a
        // doorbell every `doorbell_every` commands, drained at the end.
        let mut queues: Vec<_> = (0..QUEUES).map(|_| dev_mq.open_queue(64)).collect();
        let mut since_ring = [0usize; QUEUES];
        // Round-robin across queues so batches from different queues
        // interleave at the device.
        let max_len = streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut txs: Vec<u32> = (0..QUEUES).map(|q| (q as u32 + 1) << 16).collect();
        for i in 0..max_len {
            for (q, stream) in streams.iter().enumerate() {
                let Some(op) = stream.get(i) else { continue };
                for cmd in commands(&cfg, q, op, &mut txs[q]) {
                    if queues[q].submit(cmd.clone()).is_err() {
                        queues[q].ring_doorbell();
                        queues[q].submit(cmd).expect("queue drained by doorbell");
                    }
                    since_ring[q] += 1;
                    if since_ring[q] >= doorbell_every {
                        queues[q].ring_doorbell();
                        since_ring[q] = 0;
                    }
                }
            }
        }
        for q in &mut queues {
            q.ring_doorbell();
            prop_assert_eq!(q.pending(), 0);
            while q.poll().is_some() {}
        }

        // Observable state matches before recovery...
        prop_assert_eq!(observe(&cfg, &dev_sync), observe(&cfg, &dev_mq), "pre-recovery state");
        // ...committed-transaction sets match...
        for q in 0..QUEUES as u32 {
            for t in 0..64u32 {
                let txid = TxId(((q + 1) << 16) + t);
                prop_assert_eq!(
                    dev_sync.is_committed(txid),
                    dev_mq.is_committed(txid),
                    "commit set diverged at {:?}", txid
                );
            }
        }
        // ...and after RECOVER() (uncommitted writes discarded identically).
        dev_sync.recover();
        dev_mq.recover();
        prop_assert_eq!(observe(&cfg, &dev_sync), observe(&cfg, &dev_mq), "post-recovery state");
    }
}

/// Fairness: a queue keeps completing while a neighbour saturates the
/// device. The victim issues small batches against partition 1 while the
/// saturating neighbour hammers partition 0 with deep doorbells; the victim
/// must finish all its commands (bounded by the watchdog) and the neighbour
/// must have made progress too — neither starves the other.
#[test]
fn no_queue_starves_under_a_saturating_neighbor() {
    let mut cfg = MssdConfig::small_test();
    cfg.capacity_bytes = 2 * PARTITION_BYTES;
    let dev = Mssd::new(cfg, DramMode::WriteLog);

    let stop = Arc::new(AtomicBool::new(false));
    let neighbor_ops = Arc::new(AtomicU64::new(0));

    // Watchdog: starvation shows up as this test hanging; fail loudly
    // instead. (Same pattern as bytefs/tests/lock_interleave.rs.)
    let watchdog_stop = Arc::clone(&stop);
    let watchdog = std::thread::spawn(move || {
        for _ in 0..600 {
            if watchdog_stop.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        panic!("fairness test did not finish within 60s: a queue starved");
    });

    let neighbor = {
        let dev = Arc::clone(&dev);
        let stop = Arc::clone(&stop);
        let ops = Arc::clone(&neighbor_ops);
        std::thread::spawn(move || {
            let mut q = dev.open_queue(64);
            let mut addr = 0u64;
            // At least one full batch even if the victim already finished
            // (on a single CPU the victim may run to completion before this
            // thread is first scheduled).
            loop {
                for _ in 0..64 {
                    q.submit(Command::ByteWrite {
                        addr: addr % (4 << 20),
                        data: vec![0xAB; 64],
                        txid: None,
                        cat: Category::Data,
                    })
                    .expect("neighbor queue has room");
                    addr += 64;
                }
                q.ring_doorbell();
                while q.poll().is_some() {
                    ops.fetch_add(1, Ordering::Relaxed);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        })
    };

    // Victim: 2000 commands in batches of 8 against its own partition.
    let mut victim = dev.open_queue(8);
    let mut completed = 0u64;
    for batch in 0..250u64 {
        for i in 0..8u64 {
            victim
                .submit(Command::ByteWrite {
                    addr: PARTITION_BYTES + (batch * 8 + i) * 64 % (4 << 20),
                    data: vec![0xCD; 64],
                    txid: None,
                    cat: Category::Inode,
                })
                .expect("victim queue has room");
        }
        victim.ring_doorbell();
        while victim.poll().is_some() {
            completed += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    neighbor.join().expect("neighbor thread");
    watchdog.join().expect("watchdog");

    assert_eq!(completed, 2000, "every victim command completed");
    assert!(neighbor_ops.load(Ordering::Relaxed) > 0, "the saturating neighbour made progress too");
    // Per-queue accounting saw both queues.
    let t = dev.traffic();
    let busy_queues = t.queues.iter().filter(|(id, q)| **id != 0 && q.ops > 0).count();
    assert!(busy_queues >= 2, "both queues recorded completions");
}
