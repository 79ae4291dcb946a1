//! Stress tests of the background log cleaner: concurrent writers hammer a
//! device whose log region is small enough that sealing, background drains
//! and foreground space-admission stalls all race with the writers. (The
//! sealed-but-undrained crash-recovery case moved to the `crashkit` crate's
//! ported suite, which owns all cut-power/remount machinery now.)

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

fn cleaner_config() -> MssdConfig {
    let mut cfg = MssdConfig::small_test();
    // 64 MB volume: four 16 MB partitions, one per thread, so the workers map
    // to distinct write-log shards.
    cfg.capacity_bytes = 64 << 20;
    // A log region small enough that background cleaning runs continuously
    // and admission stalls happen.
    cfg.dram_region_bytes = 128 << 10;
    // Background cleaning on (the default) is the point of this suite.
    cfg.background_cleaning = true;
    cfg
}

const THREADS: usize = 4;
const OPS: usize = 2_500;

/// Byte writes + commits + verified reads inside thread `t`'s partition.
/// Returns, per 64-byte slot, the last tag written.
fn drive(dev: &Mssd, t: usize) -> Vec<Option<u8>> {
    let slots = 512u64;
    let base = t as u64 * PARTITION_BYTES;
    let mut last_tag: Vec<Option<u8>> = vec![None; slots as usize];
    let mut ops = Ops::new(0xC1EA ^ (t as u64) << 24);
    let mut tx = TxId(((t as u32) << 16) | 1);
    let mut uncommitted = 0usize;
    for _ in 0..OPS {
        match ops.next() % 8 {
            0..=4 => {
                let slot = ops.next() % slots;
                let tag = (ops.next() % 251) as u8;
                dev.try_byte_write(base + slot * 64, &[tag; 64], Some(tx), Category::Data).unwrap();
                last_tag[slot as usize] = Some(tag);
                uncommitted += 1;
                if uncommitted >= 12 {
                    dev.commit(tx);
                    tx = TxId(tx.0 + 1);
                    uncommitted = 0;
                }
            }
            5 | 6 => {
                // Read-verify a slot this thread wrote while cleaning races:
                // the log-covered fast path, the sealed-region merge and the
                // flash+overlay slow path must all return the last write.
                let slot = ops.next() % slots;
                if let Some(tag) = last_tag[slot as usize] {
                    let got = dev.try_byte_read(base + slot * 64, 64, Category::Data).unwrap();
                    assert_eq!(got, vec![tag; 64], "thread {t} slot {slot} mid-run");
                }
            }
            _ => {
                // Block write in the upper half of the partition: exercises
                // invalidate-under-shard-lock against cleaner merges.
                let page = 2048 + ops.next() % 8;
                let tag = (ops.next() % 251) as u8;
                dev.try_block_write(base / 4096 + page, &vec![tag; 4096], Category::Data).unwrap();
            }
        }
    }
    dev.commit(tx);
    last_tag
}

#[test]
fn concurrent_writers_during_background_cleaning() {
    let dev = Mssd::new(cleaner_config(), DramMode::WriteLog);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dev = Arc::clone(&dev);
            std::thread::spawn(move || drive(&dev, t))
        })
        .collect();
    let expected: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    dev.quiesce_cleaning();
    let t = dev.traffic();
    assert!(t.log_cleanings > 0, "cleaning must have run during the stress");
    // The run is sized to overflow the region many times over; at least some
    // of that work must have been background (sealed-region) cleaning unless
    // every single pass was a foreground stall, which the double-buffered
    // design exists to prevent.
    assert!(
        t.log_bg_cleaned_pages > 0 || t.log_fg_stalls > 0,
        "neither background nor foreground cleaning recorded"
    );
    // Bounded space accounting (reinstate overshoot is documented and small).
    assert!(dev.snapshot().log_used_bytes <= 2 * dev.config().dram_region_bytes);

    // Every thread's final bytes read back, then survive a forced clean.
    for (t, tags) in expected.iter().enumerate() {
        let base = t as u64 * PARTITION_BYTES;
        for (slot, tag) in tags.iter().enumerate() {
            if let Some(tag) = tag {
                let got = dev.try_byte_read(base + slot as u64 * 64, 64, Category::Data).unwrap();
                assert_eq!(got, vec![*tag; 64], "thread {t} slot {slot} final");
            }
        }
    }
    dev.force_clean();
    assert_eq!(dev.snapshot().log_entries, 0);
    for (t, tags) in expected.iter().enumerate() {
        let base = t as u64 * PARTITION_BYTES;
        for (slot, tag) in tags.iter().enumerate() {
            if let Some(tag) = tag {
                let got = dev.try_byte_read(base + slot as u64 * 64, 64, Category::Data).unwrap();
                assert_eq!(got, vec![*tag; 64], "thread {t} slot {slot} after clean");
            }
        }
    }
}

#[test]
fn cleaner_keeps_block_interface_consistent() {
    // Block reads/writes race the cleaner's read-modify-write merges: each
    // thread alternates byte writes and whole-block overwrites of the same
    // pages and verifies block reads see either the full overwrite or the
    // overwrite plus newer byte writes — never stale merged chunks.
    let dev = Mssd::new(cleaner_config(), DramMode::WriteLog);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dev = Arc::clone(&dev);
            std::thread::spawn(move || {
                let base_page = t as u64 * (PARTITION_BYTES / 4096);
                let mut ops = Ops::new(0xB10C ^ (t as u64) << 20);
                for round in 0..400u64 {
                    let page = base_page + ops.next() % 4;
                    let tag = (round % 251) as u8;
                    // Whole-block overwrite drops all log entries for the page.
                    dev.try_block_write(page, &vec![tag; 4096], Category::Data).unwrap();
                    // Byte write on top of the block data.
                    let off = (ops.next() % 64) * 64;
                    dev.try_byte_write(page * 4096 + off, &[tag ^ 0xFF; 64], None, Category::Data)
                        .unwrap();
                    let got = dev.try_block_read(page, 1, Category::Data).unwrap();
                    let off = off as usize;
                    assert_eq!(&got[off..off + 64], &[tag ^ 0xFF; 64][..], "overlay lost");
                    for (i, b) in got.iter().enumerate() {
                        if !(off..off + 64).contains(&i) {
                            assert_eq!(*b, tag, "thread {t} page {page} byte {i} stale");
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    dev.quiesce_cleaning();
    dev.force_clean();
    assert_eq!(dev.snapshot().log_entries, 0);
}
