//! Property test: the sharded write-log index is observationally equivalent
//! to the original single-map [`WriteLog`] under any single-threaded op
//! sequence.
//!
//! Both logs receive the same randomized stream of appends, invalidations,
//! drains and reinstates; after every step the observable state — entry and
//! byte accounting, coverage queries, merged page contents, dirty-page sets
//! and cleaning batches — must match exactly. This pins the refactor: the
//! sharding is a locking change, not a semantic one.

use proptest::prelude::*;

use mssd::log::{ShardedWriteLog, WriteLog, PARTITION_BYTES};
use mssd::{MssdConfig, TxId, LOG_SHARDS};

/// One operation applied to both logs.
#[derive(Debug, Clone)]
enum LogOp {
    /// Append `len` bytes of `tag` at `offset` in page `lpa`, optionally
    /// transactional.
    Append { lpa_sel: u16, offset: u16, len: u8, tag: u8, tx: u8 },
    /// Invalidate every entry of a page.
    Invalidate { lpa_sel: u16 },
    /// Drain for cleaning (txids `< committed_below` count as committed) and
    /// reinstate the migrated entries, as the device's cleaning pass does.
    CleanAndReinstate { committed_below: u8 },
    /// Compare a coverage query on both logs.
    Covers { lpa_sel: u16, offset: u16, len: u8 },
}

/// Maps the selector onto a small set of pages spread over several partitions
/// (so different shards are exercised) with some aliasing (so chunk lists
/// grow).
fn lpa_of(cfg: &MssdConfig, sel: u16) -> u64 {
    let ppp = PARTITION_BYTES / cfg.page_size as u64;
    let partition = (sel as u64) % 5;
    let page = (sel as u64 / 5) % 4;
    partition * ppp + page
}

fn op_strategy() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(lpa_sel, offset, len, tag, tx)| LogOp::Append { lpa_sel, offset, len, tag, tx }
        ),
        (any::<u16>(), any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(lpa_sel, offset, len, tag, tx)| LogOp::Append { lpa_sel, offset, len, tag, tx }
        ),
        any::<u16>().prop_map(|lpa_sel| LogOp::Invalidate { lpa_sel }),
        any::<u8>().prop_map(|committed_below| LogOp::CleanAndReinstate { committed_below }),
        (any::<u16>(), any::<u16>(), any::<u8>())
            .prop_map(|(lpa_sel, offset, len)| LogOp::Covers { lpa_sel, offset, len }),
    ]
}

/// Asserts every observable of the two logs matches for the touched pages.
fn assert_equivalent(cfg: &MssdConfig, reference: &WriteLog, sharded: &ShardedWriteLog) {
    assert_eq!(sharded.entries(), reference.entries(), "entry counts");
    assert_eq!(sharded.used_bytes(), reference.used_bytes(), "space accounting");
    assert_eq!(sharded.needs_cleaning(), reference.needs_cleaning());
    assert_eq!(sharded.dirty_pages(), reference.dirty_pages(), "dirty page sets");
    for lpa in reference.dirty_pages() {
        let mut a = vec![0u8; cfg.page_size];
        let mut b = vec![0u8; cfg.page_size];
        reference.merge_into(lpa, &mut a);
        sharded.merge_into(lpa, &mut b);
        assert_eq!(a, b, "merged contents of page {lpa}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sharded_log_is_observationally_equivalent(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut cfg = MssdConfig::small_test();
        cfg.capacity_bytes = 256 << 20; // several partitions
        cfg.dram_region_bytes = 64 << 10; // small enough that appends can fill it
        let mut reference = WriteLog::new(&cfg);
        let sharded = ShardedWriteLog::new(&cfg);

        for op in ops {
            match op {
                LogOp::Append { lpa_sel, offset, len, tag, tx } => {
                    let lpa = lpa_of(&cfg, lpa_sel);
                    let len = (len as usize % 192) + 1;
                    let offset = (offset as usize) % (cfg.page_size - len);
                    let data = vec![tag; len];
                    let txid = (tx % 4 != 0).then_some(TxId(tx as u32 % 8));
                    let a = reference.append(lpa, offset, &data, txid);
                    let b = sharded.append(lpa, offset, &data, txid);
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "append outcome diverged");
                }
                LogOp::Invalidate { lpa_sel } => {
                    let lpa = lpa_of(&cfg, lpa_sel);
                    let a = reference.invalidate_page(lpa);
                    let b = sharded.invalidate_page(lpa);
                    prop_assert_eq!(a, b, "invalidate count diverged");
                }
                LogOp::CleanAndReinstate { committed_below } => {
                    let bound = committed_below as u32 % 8;
                    let committed = move |t: TxId| t.0 < bound;
                    let mut a = reference.drain_for_cleaning(committed);
                    let b = sharded.drain_for_cleaning(committed);
                    // The reference drains partitions in partition order, the
                    // sharded log in shard order; both sort `pages`, so only
                    // `migrated` needs normalizing before comparison.
                    a.migrated.sort_by_key(|(lpa, c)| (*lpa, c.seq));
                    prop_assert_eq!(&a.pages, &b.pages, "cleaning batches diverged");
                    prop_assert_eq!(&a.migrated, &b.migrated, "migrated sets diverged");
                    reference.reinstate(a.migrated);
                    sharded.reinstate(b.migrated);
                }
                LogOp::Covers { lpa_sel, offset, len } => {
                    let lpa = lpa_of(&cfg, lpa_sel);
                    let len = len as usize % 256;
                    let offset = (offset as usize) % (cfg.page_size - len.max(1));
                    prop_assert_eq!(
                        reference.covers(lpa, offset, len),
                        sharded.covers(lpa, offset, len),
                        "coverage diverged"
                    );
                    let served = sharded.read_covered(lpa, offset, len);
                    if let Some(bytes) = served {
                        let mut page = vec![0u8; cfg.page_size];
                        reference.merge_into(lpa, &mut page);
                        prop_assert_eq!(
                            bytes,
                            page[offset..offset + len].to_vec(),
                            "read_covered content diverged"
                        );
                    }
                }
            }
            assert_equivalent(&cfg, &reference, &sharded);
        }
    }
}

/// The ordering contract of the index's page maps: a sealed region leaves in
/// ascending LPA order — within a partition and across the partitions of a
/// shard — whatever order the pages were appended in and whatever lands in
/// the active region between the cleaner's steps.
#[test]
fn sealed_regions_drain_in_ascending_lpa_order() {
    let mut cfg = MssdConfig::small_test();
    cfg.capacity_bytes = 1 << 30; // partitions 0 and LOG_SHARDS both exist and share shard 0
    let log = ShardedWriteLog::new(&cfg);
    let far = LOG_SHARDS as u64 * (PARTITION_BYTES / cfg.page_size as u64);
    let pages = [far + 9, 7, far + 2, 300, 1, far, 42];
    let uncommitted = 5;
    assert!(pages.iter().chain([&uncommitted]).all(|&lpa| log.shard_of(lpa) == 0));
    let mut ascending = pages.to_vec();
    ascending.sort_unstable();

    log.append(uncommitted, 0, &[0xCC; 64], Some(TxId(1))).unwrap();
    for generation in 0..3u8 {
        for &lpa in &pages {
            log.append(lpa, 0, &[generation; 64], None).unwrap();
        }
        assert!(log.seal_shard(0), "generation {generation} seals");
        let mut drained = Vec::new();
        loop {
            // Lands in the fresh active region: not part of this drain.
            log.append(pages[drained.len() % pages.len()], 64, &[0xEE; 64], None).unwrap();
            let step = log.drain_sealed_step(
                0,
                2,
                || |_: TxId| false,
                |lpa, _| {
                    drained.push(lpa);
                    0
                },
            );
            if step.pages == 0 {
                break;
            }
        }
        assert_eq!(drained, ascending, "generation {generation}");
        assert!(log.has_page(uncommitted), "the open transaction's chunk migrated back");
    }
}
