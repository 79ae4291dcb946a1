//! Multi-threaded stress tests of the sharded device hot path.
//!
//! N threads issue mixed byte writes, block writes, byte reads and commits
//! against one shared [`Mssd`], with small log regions so stop-the-world
//! cleanings race against the writers. Afterwards the tests assert post-hoc
//! invariants: the log footprint never exceeds the region, every thread's
//! data reads back exactly, traffic totals add up, and the final state agrees
//! with a single-threaded replay of the same operations.

use std::sync::Arc;

use mssd::log::PARTITION_BYTES;
use mssd::{Category, DramMode, Mssd, MssdConfig, TxId};

/// Deterministic per-thread op stream (xorshift64).
struct Ops {
    state: u64,
}

impl Ops {
    fn new(seed: u64) -> Self {
        Self { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

fn stress_config() -> MssdConfig {
    let mut cfg = MssdConfig::small_test();
    // 64 MB volume: four 16 MB partitions, one per thread, mapping the four
    // workers to four distinct write-log shards.
    cfg.capacity_bytes = 64 << 20;
    // A log region small enough that the run forces many cleaning passes
    // under concurrency.
    cfg.dram_region_bytes = 256 << 10;
    cfg
}

const THREADS: usize = 4;
const OPS: usize = 3_000;

/// Executes thread `t`'s operation stream against `dev`. Returns, per 64-byte
/// slot index, the last tag written (for later verification), plus the block
/// pages written. When `verify_reads` is set the thread also re-reads its own
/// slots mid-run and asserts it sees its own last write — exercising the
/// log-covered fast path and the flash+overlay slow path while other threads
/// mutate their shards and cleanings run.
fn drive(dev: &Mssd, t: usize, verify_reads: bool) -> (Vec<Option<u8>>, Vec<Option<u8>>) {
    let slots = 512u64;
    let byte_base = t as u64 * PARTITION_BYTES;
    // Block writes target the upper half of the thread's partition so they
    // never alias its byte-write slots.
    let block_base = byte_base / 4096 + 2048;
    let mut last_slot_tag: Vec<Option<u8>> = vec![None; slots as usize];
    let mut last_page_tag: Vec<Option<u8>> = vec![None; 16];
    let mut ops = Ops::new(0xBEEF ^ (t as u64) << 20);
    let mut tx = TxId(((t as u32) << 16) | 1);
    let mut uncommitted = 0usize;
    for _ in 0..OPS {
        match ops.next() % 10 {
            0..=5 => {
                let slot = ops.next() % slots;
                let tag = (ops.next() % 251) as u8;
                let data = [tag; 64];
                dev.try_byte_write(byte_base + slot * 64, &data, Some(tx), Category::Data).unwrap();
                last_slot_tag[slot as usize] = Some(tag);
                uncommitted += 1;
                if uncommitted >= 16 {
                    dev.commit(tx);
                    tx = TxId(tx.0 + 1);
                    uncommitted = 0;
                }
            }
            6 | 7 => {
                let page = ops.next() % 16;
                let tag = (ops.next() % 251) as u8;
                dev.try_block_write(block_base + page, &vec![tag; 4096], Category::Data).unwrap();
                last_page_tag[page as usize] = Some(tag);
            }
            8 => {
                if verify_reads {
                    let slot = ops.next() % slots;
                    if let Some(tag) = last_slot_tag[slot as usize] {
                        let got =
                            dev.try_byte_read(byte_base + slot * 64, 64, Category::Data).unwrap();
                        assert_eq!(got, vec![tag; 64], "thread {t} slot {slot} mid-run");
                    }
                }
            }
            _ => {
                if verify_reads {
                    let page = ops.next() % 16;
                    if let Some(tag) = last_page_tag[page as usize] {
                        let got = dev.try_block_read(block_base + page, 1, Category::Data).unwrap();
                        assert_eq!(got, vec![tag; 4096], "thread {t} page {page} mid-run");
                    }
                }
            }
        }
    }
    // Commit the tail so every byte write is durable from here on.
    dev.commit(tx);
    (last_slot_tag, last_page_tag)
}

/// Verifies every thread's final bytes on the device.
fn verify_final(dev: &Mssd, t: usize, slot_tags: &[Option<u8>], page_tags: &[Option<u8>]) {
    let byte_base = t as u64 * PARTITION_BYTES;
    let block_base = byte_base / 4096 + 2048;
    for (slot, tag) in slot_tags.iter().enumerate() {
        if let Some(tag) = tag {
            let got = dev.try_byte_read(byte_base + slot as u64 * 64, 64, Category::Data).unwrap();
            assert_eq!(got, vec![*tag; 64], "thread {t} slot {slot} final");
        }
    }
    for (page, tag) in page_tags.iter().enumerate() {
        if let Some(tag) = tag {
            let got = dev.try_block_read(block_base + page as u64, 1, Category::Data).unwrap();
            assert_eq!(got, vec![*tag; 4096], "thread {t} page {page} final");
        }
    }
}

#[test]
fn concurrent_mixed_writes_commits_and_reads_stay_consistent() {
    let dev = Mssd::new(stress_config(), DramMode::WriteLog);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dev = Arc::clone(&dev);
            std::thread::spawn(move || {
                let expected = drive(&dev, t, true);
                // Invariant probe while other threads are still running. A
                // cleaning that races appends may transiently overshoot the
                // region while migrated entries are reinstated (documented on
                // ShardedWriteLog::reinstate), so allow that bounded slack —
                // but unbounded growth is a leak.
                let snap = dev.snapshot();
                assert!(
                    snap.log_used_bytes <= 2 * dev.config().dram_region_bytes,
                    "log footprint {} far exceeds region {}",
                    snap.log_used_bytes,
                    dev.config().dram_region_bytes
                );
                expected
            })
        })
        .collect();
    let expected: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let snap = dev.snapshot();
    assert!(snap.traffic.log_cleanings > 0, "the run must exercise cleaning races");
    // Quiescent now, but the tail of the run may have left a reinstate
    // overshoot in place until the next cleaning; same bounded slack.
    assert!(snap.log_used_bytes <= 2 * dev.config().dram_region_bytes);

    for (t, (slots, pages)) in expected.iter().enumerate() {
        verify_final(&dev, t, slots, pages);
    }

    // Everything was committed; after a forced clean the log is empty and the
    // data still reads back from flash.
    dev.force_clean();
    assert_eq!(dev.snapshot().log_entries, 0);
    for (t, (slots, pages)) in expected.iter().enumerate() {
        verify_final(&dev, t, slots, pages);
    }
}

#[test]
fn concurrent_run_agrees_with_single_threaded_replay() {
    let shared = Mssd::new(stress_config(), DramMode::WriteLog);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dev = Arc::clone(&shared);
            std::thread::spawn(move || drive(&dev, t, false))
        })
        .collect();
    let expected: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Replay the same per-thread streams sequentially on a fresh device. The
    // threads touch disjoint partitions, so the interleaving cannot change
    // user-visible contents: both devices must answer every read identically.
    let replay = Mssd::new(stress_config(), DramMode::WriteLog);
    let replayed: Vec<_> = (0..THREADS).map(|t| drive(&replay, t, false)).collect();
    assert_eq!(expected, replayed, "per-thread op streams are deterministic");

    for (t, (slots, pages)) in expected.iter().enumerate() {
        verify_final(&shared, t, slots, pages);
        verify_final(&replay, t, slots, pages);
    }

    // Traffic totals must agree on everything the interleaving cannot change:
    // host-issued bytes and requests (flash-internal counters may differ
    // because cleanings land at different points).
    let a = shared.traffic();
    let b = replay.traffic();
    assert_eq!(a.host_write_bytes(), b.host_write_bytes());
    assert_eq!(a.host_read_bytes(), b.host_read_bytes());
    assert_eq!(a.byte_requests, b.byte_requests);
    assert_eq!(a.block_requests, b.block_requests);
    assert_eq!(a.tx_commits, b.tx_commits);
}

#[test]
fn concurrent_crash_recovery_preserves_committed_writes() {
    let dev = Mssd::new(stress_config(), DramMode::WriteLog);
    // Each thread writes one committed and one uncommitted range.
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dev = Arc::clone(&dev);
            std::thread::spawn(move || {
                let base = t as u64 * PARTITION_BYTES;
                let committed_tx = TxId(((t as u32) << 8) | 1);
                let lost_tx = TxId(((t as u32) << 8) | 2);
                dev.try_byte_write(base, &[0xC0 + t as u8; 64], Some(committed_tx), Category::Data)
                    .unwrap();
                dev.try_byte_write(
                    base + 4096,
                    &[0xD0 + t as u8; 64],
                    Some(lost_tx),
                    Category::Data,
                )
                .unwrap();
                dev.commit(committed_tx);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    dev.crash();
    let report = dev.recover();
    assert_eq!(report.discarded_entries, THREADS, "one uncommitted entry per thread");
    for t in 0..THREADS as u64 {
        let base = t * PARTITION_BYTES;
        assert_eq!(
            dev.try_byte_read(base, 64, Category::Data).unwrap(),
            vec![0xC0 + t as u8; 64],
            "committed write of thread {t} survives"
        );
        assert_eq!(
            dev.try_byte_read(base + 4096, 64, Category::Data).unwrap(),
            vec![0u8; 64],
            "uncommitted write of thread {t} is discarded"
        );
    }
}

#[test]
fn pagecache_mode_is_thread_safe_too() {
    let mut cfg = stress_config();
    cfg.dram_region_bytes = 1 << 20;
    let dev = Mssd::new(cfg, DramMode::PageCache);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dev = Arc::clone(&dev);
            std::thread::spawn(move || {
                let base = t as u64 * PARTITION_BYTES;
                for i in 0..500u64 {
                    let tag = (i % 251) as u8;
                    dev.try_byte_write(base + (i % 64) * 64, &[tag; 64], None, Category::Data)
                        .unwrap();
                    dev.try_block_write(
                        base / 4096 + 1024 + (i % 8),
                        &vec![tag; 4096],
                        Category::Data,
                    )
                    .unwrap();
                }
                dev.try_flush().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let last = 499u64 % 251;
    for t in 0..THREADS as u64 {
        let base = t * PARTITION_BYTES;
        let got = dev.try_byte_read(base + (499 % 64) * 64, 64, Category::Data).unwrap();
        assert_eq!(got, vec![last as u8; 64], "thread {t} last byte write");
    }
    assert_eq!(dev.snapshot().cache_dirty_pages, 0, "flush drained every thread's pages");
}
