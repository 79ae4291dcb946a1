//! Property tests pinning the concurrent device hot path to executable specs:
//!
//! 1. [`ShardedFtl`] (lock-striped L2P + per-channel flash units) under any
//!    single-threaded op sequence behaves as a map from page to the last
//!    bytes written: a write inserts, TRIM removes, an unmapped page reads as
//!    zeros. Every read, the mapped-or-buffered predicate at every step, and
//!    the mapped count at a flush (which empties the write buffer) must agree
//!    with the map. Physical placement and GC traffic are not host-visible,
//!    so the spec says nothing about them.
//! 2. A device whose small log cleans many times — threshold passes and
//!    foreground stalls — must stay observationally identical to one whose
//!    log the same single-threaded op sequence never fills: same byte reads
//!    mid-stream, same byte and block contents after a forced clean, same
//!    host traffic totals, same recovery outcome.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mssd::{AtomicTraffic, Category, DramMode, Mssd, MssdConfig, ShardedFtl, TxId};

// ---------------------------------------------------------------------------
// 1. ShardedFtl against a map from page to bytes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FtlOp {
    /// Buffer a full-page write of `tag` to the selected page.
    Write { lpa_sel: u16, tag: u8 },
    /// Read the selected page and compare contents.
    Read { lpa_sel: u16 },
    /// Trim the selected page.
    Trim { lpa_sel: u16 },
    /// Flush all buffered pages.
    Flush,
}

fn ftl_op_strategy() -> impl Strategy<Value = FtlOp> {
    // The vendored proptest has no weighted prop_oneof; weight by
    // duplicating arms, like tests/sharded_log_equiv.rs does.
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(lpa_sel, tag)| FtlOp::Write { lpa_sel, tag }),
        (any::<u16>(), any::<u8>()).prop_map(|(lpa_sel, tag)| FtlOp::Write { lpa_sel, tag }),
        (any::<u16>(), any::<u8>()).prop_map(|(lpa_sel, tag)| FtlOp::Write { lpa_sel, tag }),
        any::<u16>().prop_map(|lpa_sel| FtlOp::Read { lpa_sel }),
        any::<u16>().prop_map(|lpa_sel| FtlOp::Read { lpa_sel }),
        any::<u16>().prop_map(|lpa_sel| FtlOp::Trim { lpa_sel }),
        Just(FtlOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn sharded_ftl_is_observationally_equivalent(
        ops in proptest::collection::vec(ftl_op_strategy(), 1..150)
    ) {
        let cfg = MssdConfig::small_test();
        let universe = 48u64; // aliased working set: overwrites + GC pressure
        let ftl = ShardedFtl::new(cfg.clone());
        let stats = AtomicTraffic::new();
        let ps = cfg.page_size;
        let mut spec: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let read = |spec: &BTreeMap<u64, Vec<u8>>, lpa| {
            spec.get(&lpa).cloned().unwrap_or_else(|| vec![0u8; ps])
        };

        for op in ops {
            match op {
                FtlOp::Write { lpa_sel, tag } => {
                    let lpa = lpa_sel as u64 % universe;
                    ftl.buffer_write(lpa, vec![tag; ps], &stats).unwrap();
                    spec.insert(lpa, vec![tag; ps]);
                }
                FtlOp::Read { lpa_sel } => {
                    let lpa = lpa_sel as u64 % universe;
                    let (got, _) = ftl.read_page(lpa, &stats, false).unwrap();
                    prop_assert_eq!(got, read(&spec, lpa), "read of page {}", lpa);
                }
                FtlOp::Trim { lpa_sel } => {
                    let lpa = lpa_sel as u64 % universe;
                    ftl.trim(lpa);
                    spec.remove(&lpa);
                }
                FtlOp::Flush => {
                    ftl.flush_all(&stats, None).unwrap();
                    prop_assert_eq!(ftl.buffered_pages(), 0);
                    // At a flush point every surviving page is on flash.
                    prop_assert_eq!(ftl.mapped_pages(), spec.len(), "mapped count at flush");
                }
            }
            // The mapped-or-buffered predicate is observable at every step.
            for lpa in 0..universe {
                prop_assert_eq!(ftl.is_mapped(lpa), spec.contains_key(&lpa), "is_mapped({})", lpa);
            }
        }

        // Final image: every page of the universe reads as the spec says.
        for lpa in 0..universe {
            let (got, _) = ftl.read_page(lpa, &stats, false).unwrap();
            prop_assert_eq!(got, read(&spec, lpa), "final image of page {}", lpa);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. A cleaning log ≡ a log that never fills
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DevOp {
    /// Byte write of `len` bytes of `tag`, optionally transactional.
    ByteWrite { addr_sel: u16, len: u8, tag: u8, tx: u8 },
    /// Whole-block write of `tag`.
    BlockWrite { lpa_sel: u8, tag: u8 },
    /// Commit a transaction id.
    Commit { tx: u8 },
    /// Compare a byte read on both devices immediately.
    Read { addr_sel: u16, len: u8 },
}

fn dev_op_strategy() -> impl Strategy<Value = DevOp> {
    prop_oneof![
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(addr_sel, len, tag, tx)| DevOp::ByteWrite { addr_sel, len, tag, tx }),
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(addr_sel, len, tag, tx)| DevOp::ByteWrite { addr_sel, len, tag, tx }),
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(addr_sel, len, tag, tx)| DevOp::ByteWrite { addr_sel, len, tag, tx }),
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(addr_sel, len, tag, tx)| DevOp::ByteWrite { addr_sel, len, tag, tx }),
        (any::<u8>(), any::<u8>()).prop_map(|(lpa_sel, tag)| DevOp::BlockWrite { lpa_sel, tag }),
        any::<u8>().prop_map(|tx| DevOp::Commit { tx }),
        (any::<u16>(), any::<u8>()).prop_map(|(addr_sel, len)| DevOp::Read { addr_sel, len }),
        (any::<u16>(), any::<u8>()).prop_map(|(addr_sel, len)| DevOp::Read { addr_sel, len }),
    ]
}

/// Address of a 64-byte slot. One selector in four lands anywhere in a 64 KB
/// window; the rest land in a 1 KB hot window across the boundary of pages 0
/// and 1, so an open transaction's bytes are often overwritten by a later
/// write before it commits — the case cleaning has to clip.
fn addr_of(sel: u16) -> u64 {
    let slot = sel as u64 / 4;
    if sel.is_multiple_of(4) {
        (slot % 1024) * 64
    } else {
        4096 - 512 + (slot % 16) * 64
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn a_cleaning_log_matches_one_that_never_fills(
        ops in proptest::collection::vec(dev_op_strategy(), 1..120)
    ) {
        // Two 4 KB logs that the op streams fill many times over: one
        // cleans in threshold passes (at half full), the other almost only
        // when an append fails admission (foreground stalls). The
        // reference's 256 KB log holds the whole stream.
        let reference = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let cleaning = [0.5, 0.99].map(|threshold| {
            let mut cfg = MssdConfig::small_test().with_dram_region(4 << 10);
            cfg.log_clean_threshold = threshold;
            Mssd::new(cfg, DramMode::WriteLog)
        });
        let devices = || cleaning.iter().chain([&reference]);

        // Real hosts allocate TxIDs monotonically and never write under an
        // already-committed id; model that with a pool of open transactions
        // (committing one retires it and opens a fresh id).
        let mut open: Vec<u32> = (1..=4).collect();
        let mut next_tx = 5u32;

        for op in &ops {
            match *op {
                DevOp::ByteWrite { addr_sel, len, tag, tx } => {
                    let addr = addr_of(addr_sel);
                    let len = (len as usize % 192) + 1;
                    let data = vec![tag; len];
                    let txid =
                        (tx % 4 != 0).then(|| TxId(open[tx as usize % open.len()]));
                    for d in devices() {
                        d.try_byte_write(addr, &data, txid, Category::Data).unwrap();
                    }
                }
                DevOp::BlockWrite { lpa_sel, tag } => {
                    let lpa = lpa_sel as u64 % 16;
                    let page = vec![tag; 4096];
                    for d in devices() {
                        d.try_block_write(lpa, &page, Category::Data).unwrap();
                    }
                }
                DevOp::Commit { tx } => {
                    let txid = TxId(open.remove(tx as usize % open.len()));
                    open.push(next_tx);
                    next_tx += 1;
                    for d in devices() {
                        d.commit(txid);
                    }
                }
                DevOp::Read { addr_sel, len } => {
                    let addr = addr_of(addr_sel);
                    let len = (len as usize % 256) + 1;
                    let want = reference.try_byte_read(addr, len, Category::Data).unwrap();
                    for d in &cleaning {
                        prop_assert_eq!(
                            &d.try_byte_read(addr, len, Category::Data).unwrap(),
                            &want,
                            "mid-stream read at {} diverged", addr
                        );
                    }
                }
            }
        }

        prop_assert_eq!(reference.traffic().log_cleanings, 0, "the reference log must never clean");
        // Force every device to a common state.
        for d in devices() {
            d.force_clean();
        }

        // Same logical image: the whole byte window and the block range.
        let image = |d: &Mssd| -> Vec<Vec<u8>> {
            (0..1024u64).map(|slot| d.try_byte_read(slot * 64, 64, Category::Data).unwrap()).collect()
        };
        let want = image(&reference);
        let want_blocks = reference.try_block_read(0, 16, Category::Data).unwrap();
        let b = reference.traffic();
        for d in &cleaning {
            for (slot, (got, want)) in image(d).iter().zip(&want).enumerate() {
                prop_assert_eq!(got, want, "slot {} diverged after force_clean", slot);
            }
            prop_assert_eq!(
                &d.try_block_read(0, 16, Category::Data).unwrap(),
                &want_blocks,
                "block images diverged after force_clean"
            );

            // Host-visible traffic is the same (flash-internal counters
            // legitimately differ: only the small logs cleaned mid-stream).
            let a = d.traffic();
            prop_assert_eq!(a.host_write_bytes(), b.host_write_bytes());
            prop_assert_eq!(a.host_read_bytes(), b.host_read_bytes());
            prop_assert_eq!(a.byte_requests, b.byte_requests);
            prop_assert_eq!(a.block_requests, b.block_requests);
            prop_assert_eq!(a.tx_commits, b.tx_commits);
        }

        // Crash + recovery agree on what survives.
        for d in devices() {
            d.crash();
        }
        let discarded = reference.recover().discarded_entries;
        let want = image(&reference);
        for d in &cleaning {
            prop_assert_eq!(d.recover().discarded_entries, discarded, "recovery discards diverged");
            for (slot, (got, want)) in image(d).iter().zip(&want).enumerate() {
                prop_assert_eq!(got, want, "slot {} diverged after recovery", slot);
            }
        }
    }
}
