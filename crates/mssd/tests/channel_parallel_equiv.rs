//! Property tests pinning the concurrent device hot path to its sequential
//! reference models:
//!
//! 1. [`ShardedFtl`] (lock-striped L2P + per-channel flash units) must be
//!    observationally equivalent to the single-threaded [`Ftl`] under any
//!    single-threaded op sequence: every read returns the same bytes, the
//!    mapped set matches, and an explicit flush empties both write buffers.
//!    Physical placement and GC traffic may differ — those are the point of
//!    the refactor — so only host-observable state is compared.
//! 2. A device with double-buffered **background** log cleaning must end up
//!    observationally identical to one using the inline stop-the-world
//!    reference drain after the same single-threaded op sequence: same byte
//!    and block contents, same host traffic totals, same recovery outcome.

use proptest::prelude::*;

use mssd::{AtomicTraffic, Category, DramMode, Ftl, Mssd, MssdConfig, ShardedFtl, TxId};

// ---------------------------------------------------------------------------
// 1. ShardedFtl ≡ Ftl
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FtlOp {
    /// Buffer a full-page write of `tag` to the selected page.
    Write { lpa_sel: u16, tag: u8 },
    /// Read the selected page and compare contents.
    Read { lpa_sel: u16 },
    /// Trim the selected page.
    Trim { lpa_sel: u16 },
    /// Flush all buffered pages on both sides.
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
        let mut reference = Ftl::new(cfg.clone());
        let sharded = ShardedFtl::new(cfg.clone());
        let ref_stats = AtomicTraffic::new();
        let sh_stats = AtomicTraffic::new();
        let ps = cfg.page_size;

        for op in ops {
            match op {
                FtlOp::Write { lpa_sel, tag } => {
                    let lpa = lpa_sel as u64 % universe;
                    reference.buffer_write(lpa, vec![tag; ps], &ref_stats).unwrap();
                    sharded.buffer_write(lpa, vec![tag; ps], &sh_stats).unwrap();
                }
                FtlOp::Read { lpa_sel } => {
                    let lpa = lpa_sel as u64 % universe;
                    let (a, _) = reference.read_page(lpa, &ref_stats, false).unwrap();
                    let (b, _) = sharded.read_page(lpa, &sh_stats, false).unwrap();
                    prop_assert_eq!(a, b, "read of page {} diverged", lpa);
                }
                FtlOp::Trim { lpa_sel } => {
                    let lpa = lpa_sel as u64 % universe;
                    reference.trim(lpa);
                    sharded.trim(lpa);
                }
                FtlOp::Flush => {
                    reference.flush_buffer(&ref_stats).unwrap();
                    sharded.flush_all(&sh_stats, None).unwrap();
                    prop_assert_eq!(reference.buffered_pages(), 0);
                    prop_assert_eq!(sharded.buffered_pages(), 0);
                    // At a flush point every surviving page is on flash on
                    // both sides, so the mapped counts must agree.
                    prop_assert_eq!(
                        sharded.mapped_pages(),
                        reference.mapped_pages(),
                        "mapped sets diverged at flush"
                    );
                }
            }
            // The mapped-or-buffered predicate is observable at every step.
            for lpa in 0..universe {
                prop_assert_eq!(
                    sharded.is_mapped(lpa),
                    reference.is_mapped(lpa),
                    "is_mapped({}) diverged", lpa
                );
            }
        }

        // Final image: every page of the universe reads identically.
        for lpa in 0..universe {
            let (a, _) = reference.read_page(lpa, &ref_stats, false).unwrap();
            let (b, _) = sharded.read_page(lpa, &sh_stats, false).unwrap();
            prop_assert_eq!(a, b, "final image of page {} diverged", lpa);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Background double-buffered cleaning ≡ stop-the-world reference
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

/// 64-byte-slot address inside a small aliased window (64 KB).
fn addr_of(sel: u16) -> u64 {
    (sel as u64 % 1024) * 64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn background_cleaning_matches_stop_the_world(
        ops in proptest::collection::vec(dev_op_strategy(), 1..120)
    ) {
        // A log small enough that the op streams cross the cleaning threshold
        // repeatedly, so the background cleaner and the foreground stall path
        // actually run.
        let mut cfg = MssdConfig::small_test();
        cfg.dram_region_bytes = 16 << 10;
        let background = Mssd::new(cfg.clone().with_background_cleaning(true), DramMode::WriteLog);
        let reference = Mssd::new(cfg.with_background_cleaning(false), DramMode::WriteLog);

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
                    background.try_byte_write(addr, &data, txid, Category::Data).unwrap();
                    reference.try_byte_write(addr, &data, txid, Category::Data).unwrap();
                }
                DevOp::BlockWrite { lpa_sel, tag } => {
                    let lpa = lpa_sel as u64 % 16;
                    let page = vec![tag; 4096];
                    background.try_block_write(lpa, &page, Category::Data).unwrap();
                    reference.try_block_write(lpa, &page, Category::Data).unwrap();
                }
                DevOp::Commit { tx } => {
                    let txid = TxId(open.remove(tx as usize % open.len()));
                    open.push(next_tx);
                    next_tx += 1;
                    background.commit(txid);
                    reference.commit(txid);
                }
                DevOp::Read { addr_sel, len } => {
                    let addr = addr_of(addr_sel);
                    let len = (len as usize % 256) + 1;
                    prop_assert_eq!(
                        background.try_byte_read(addr, len, Category::Data).unwrap(),
                        reference.try_byte_read(addr, len, Category::Data).unwrap(),
                        "mid-stream read at {} diverged", addr
                    );
                }
            }
        }

        // Quiesce the cleaner, then force both devices to a common state.
        background.quiesce_cleaning();
        background.force_clean();
        reference.force_clean();

        // Same logical image: the whole byte window and the block range.
        for slot in 0..1024u64 {
            prop_assert_eq!(
                background.try_byte_read(slot * 64, 64, Category::Data).unwrap(),
                reference.try_byte_read(slot * 64, 64, Category::Data).unwrap(),
                "slot {} diverged after quiesce", slot
            );
        }
        prop_assert_eq!(
            background.try_block_read(0, 16, Category::Data).unwrap(),
            reference.try_block_read(0, 16, Category::Data).unwrap(),
            "block images diverged after quiesce"
        );

        // Host-visible traffic is interleaving-independent (flash-internal
        // counters legitimately differ: cleaning runs at different points).
        let a = background.traffic();
        let b = reference.traffic();
        prop_assert_eq!(a.host_write_bytes(), b.host_write_bytes());
        prop_assert_eq!(a.host_read_bytes(), b.host_read_bytes());
        prop_assert_eq!(a.byte_requests, b.byte_requests);
        prop_assert_eq!(a.block_requests, b.block_requests);
        prop_assert_eq!(a.tx_commits, b.tx_commits);

        // Crash + recovery agree on what survives.
        background.crash();
        reference.crash();
        let ra = background.recover();
        let rb = reference.recover();
        prop_assert_eq!(ra.discarded_entries, rb.discarded_entries, "recovery discards diverged");
        for slot in 0..1024u64 {
            prop_assert_eq!(
                background.try_byte_read(slot * 64, 64, Category::Data).unwrap(),
                reference.try_byte_read(slot * 64, 64, Category::Data).unwrap(),
                "slot {} diverged after recovery", slot
            );
        }
    }
}
