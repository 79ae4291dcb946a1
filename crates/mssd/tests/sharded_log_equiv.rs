//! Property test: the sharded write-log index against an executable spec —
//! a list of `(seq, offset, bytes, txid)` chunks per page, read
//! newest-seq-wins over a flash page map that the test applies every drained
//! batch to. A drain merges committed chunks into flash; the uncommitted ones
//! survive, minus every byte a newer committed chunk overwrote (those bytes
//! must not reappear when their transaction commits later).
//!
//! After every step of a random stream of appends, invalidations, seals,
//! sealed-region drain steps and stop-the-world drains, the test checks
//! (i) entry count and footprint sum, `needs_cleaning`, append admission and
//! invalidation counts; (ii) `merge_into`, `covers` and `read_range`;
//! (iii) `dirty_pages`; (iv) that a cleaning drain leaves the read view
//! flash ⊕ log as it was, every survivor uncommitted and none of its bytes
//! under a newer committed chunk. At the end, (v) a recovery drain leaves
//! flash ⊕ committed chunks only.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mssd::log::{ChunkEntry, ShardedWriteLog, ENTRY_OVERHEAD, PARTITION_BYTES};
use mssd::{MssdConfig, TxId, CACHELINE, LOG_SHARDS, PAGE_SIZE};

#[derive(Debug, Clone)]
enum LogOp {
    /// Append `len` bytes of `tag` at `offset` in page `lpa`, optionally
    /// transactional.
    Append { lpa_sel: u16, offset: u16, len: u8, tag: u8, tx: u8 },
    /// Invalidate every entry of a page.
    Invalidate { lpa_sel: u16 },
    /// Stop-the-world drain (txids `< committed_below` count as committed)
    /// and reinstate of the survivors, as a forced clean does.
    CleanAndReinstate { committed_below: u8 },
    /// Compare a coverage query and a ranged read.
    Covers { lpa_sel: u16, offset: u16, len: u8 },
    /// Seal a shard's active region.
    Seal { shard_sel: u8 },
    /// Drain up to `pages` pages of a shard's sealed region.
    DrainStep { shard_sel: u8, pages: u8, committed_below: u8 },
}

/// Partitions the stream touches; partition `p` is served by shard `p`.
const PARTITIONS: u64 = 5;

/// Maps the selector onto four pages of each partition.
fn lpa_of(sel: u16) -> u64 {
    let ppp = PARTITION_BYTES / PAGE_SIZE as u64;
    (sel as u64 % PARTITIONS) * ppp + (sel as u64 / PARTITIONS) % 4
}

/// Three offsets in four fall in the first 512 bytes of the page, so that
/// chunks of different transactions often overlap.
fn offset_of(sel: u16, len: usize) -> usize {
    let window = if sel.is_multiple_of(4) { PAGE_SIZE - len } else { 512 };
    (sel as usize / 4) % window
}

fn op_strategy() -> impl Strategy<Value = LogOp> {
    let append = || {
        (any::<u16>(), any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(lpa_sel, offset, len, tag, tx)| LogOp::Append { lpa_sel, offset, len, tag, tx },
        )
    };
    prop_oneof![
        append(),
        append(),
        append(),
        any::<u16>().prop_map(|lpa_sel| LogOp::Invalidate { lpa_sel }),
        any::<u8>().prop_map(|committed_below| LogOp::CleanAndReinstate { committed_below }),
        (any::<u16>(), any::<u16>(), any::<u8>())
            .prop_map(|(lpa_sel, offset, len)| LogOp::Covers { lpa_sel, offset, len }),
        any::<u8>().prop_map(|shard_sel| LogOp::Seal { shard_sel }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(shard_sel, pages, committed_below)| {
            LogOp::DrainStep { shard_sel, pages, committed_below }
        }),
    ]
}

#[derive(Debug, Clone)]
struct Chunk {
    seq: u64,
    offset: usize,
    data: Vec<u8>,
    txid: Option<TxId>,
    /// In its shard's sealed region (appends and survivors land unsealed).
    sealed: bool,
}

impl Chunk {
    fn end(&self) -> usize {
        self.offset + self.data.len()
    }
}

fn footprint(len: usize) -> usize {
    len.div_ceil(CACHELINE) * CACHELINE + ENTRY_OVERHEAD
}

/// Writes `chunks` onto `page` in seq order: the newest write wins.
fn overlay<'a>(mut page: Vec<u8>, chunks: impl IntoIterator<Item = &'a Chunk>) -> Vec<u8> {
    let mut chunks: Vec<&Chunk> = chunks.into_iter().collect();
    chunks.sort_by_key(|c| c.seq);
    for c in chunks {
        page[c.offset..c.end()].copy_from_slice(&c.data);
    }
    page
}

/// The spec: chunk lists by page, and the flash page map.
#[derive(Default)]
struct Spec {
    log: BTreeMap<u64, Vec<Chunk>>,
    flash: BTreeMap<u64, Vec<u8>>,
}

impl Spec {
    fn used(&self) -> usize {
        self.log.values().flatten().map(|c| footprint(c.data.len())).sum()
    }

    fn flash_page(&self, lpa: u64) -> Vec<u8> {
        self.flash.get(&lpa).cloned().unwrap_or_else(|| vec![0u8; PAGE_SIZE])
    }

    /// What a read of the page returns: flash ⊕ log.
    fn view(&self, lpa: u64) -> Vec<u8> {
        overlay(self.flash_page(lpa), self.log.get(&lpa).into_iter().flatten())
    }

    /// Merges what the log drained into the flash page map.
    fn apply(&mut self, drained: &[(u64, Vec<ChunkEntry>)]) {
        for (lpa, chunks) in drained {
            let mut page = self.flash_page(*lpa);
            for c in chunks {
                page[c.offset..c.end()].copy_from_slice(&c.data);
            }
            self.flash.insert(*lpa, page);
        }
    }

    /// Drains the chunks `pick` selects from the page: the uncommitted ones
    /// go back unsealed, without the bytes of any newer committed chunk
    /// drained with them, split into maximal runs.
    fn drain_page(
        &mut self,
        lpa: u64,
        pick: impl Fn(&Chunk) -> bool,
        committed: impl Fn(TxId) -> bool,
    ) {
        let Some(chunks) = self.log.remove(&lpa) else { return };
        let (taken, mut kept): (Vec<Chunk>, Vec<Chunk>) = chunks.into_iter().partition(pick);
        let is_committed = |c: &Chunk| c.txid.is_none_or(&committed);
        for u in taken.iter().filter(|c| !is_committed(c)) {
            let shadowed = |b: usize| {
                taken
                    .iter()
                    .any(|c| is_committed(c) && c.seq > u.seq && (c.offset..c.end()).contains(&b))
            };
            let mut b = u.offset;
            while b < u.end() {
                let run_end = (b..u.end()).find(|&e| shadowed(e)).unwrap_or(u.end());
                if run_end > b {
                    let data = u.data[b - u.offset..run_end - u.offset].to_vec();
                    kept.push(Chunk { offset: b, data, sealed: false, ..u.clone() });
                }
                b = run_end + 1;
            }
        }
        if !kept.is_empty() {
            self.log.insert(lpa, kept);
        }
    }
}

/// Checks every observable of the log against the spec.
fn assert_matches(cfg: &MssdConfig, spec: &Spec, log: &ShardedWriteLog, universe: &[u64]) {
    assert_eq!(log.entries(), spec.log.values().map(Vec::len).sum::<usize>(), "entry count");
    assert_eq!(log.used_bytes(), spec.used(), "space accounting");
    let full = spec.used() as f64 / cfg.dram_region_bytes as f64;
    assert_eq!(log.needs_cleaning(), full >= cfg.log_clean_threshold, "needs_cleaning");
    assert_eq!(log.dirty_pages(), spec.log.keys().copied().collect::<Vec<_>>(), "dirty pages");
    for &lpa in universe {
        let mut merged = vec![0u8; PAGE_SIZE];
        log.merge_into(lpa, &mut merged);
        let want = overlay(vec![0u8; PAGE_SIZE], spec.log.get(&lpa).into_iter().flatten());
        assert_eq!(merged, want, "merge_into of page {lpa}");
        let read = log.read_range(lpa, 0, PAGE_SIZE, || Ok((spec.flash_page(lpa), 1))).unwrap();
        assert_eq!(read.0, spec.view(lpa), "read view of page {lpa}");
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
        let log = ShardedWriteLog::new(&cfg);
        let mut spec = Spec::default();
        let mut seq = 0;
        let mut universe: Vec<u64> = (0..PARTITIONS as u16 * 4).map(lpa_of).collect();
        universe.sort_unstable();
        let views = |spec: &Spec| universe.iter().map(|&l| spec.view(l)).collect::<Vec<_>>();

        for op in ops {
            match op {
                LogOp::Append { lpa_sel, offset, len, tag, tx } => {
                    let lpa = lpa_of(lpa_sel);
                    let len = (len as usize % 192) + 1;
                    let offset = offset_of(offset, len);
                    let data = vec![tag; len];
                    let txid = (tx % 4 != 0).then_some(TxId(tx as u32 % 8));
                    let free = cfg.dram_region_bytes - spec.used();
                    let fits = footprint(len) <= free;
                    prop_assert_eq!(log.append(lpa, offset, &data, txid).is_ok(), fits, "admission");
                    if fits {
                        let chunk = Chunk { seq, offset, data, txid, sealed: false };
                        spec.log.entry(lpa).or_default().push(chunk);
                        seq += 1;
                    }
                }
                LogOp::Invalidate { lpa_sel } => {
                    let lpa = lpa_of(lpa_sel);
                    let want = spec.log.remove(&lpa).map_or(0, |c| c.len());
                    prop_assert_eq!(log.invalidate_page(lpa), want, "invalidate count");
                }
                LogOp::CleanAndReinstate { committed_below } => {
                    let committed = move |t: TxId| t.0 < committed_below as u32 % 8;
                    let before = views(&spec);
                    let mut all = log.lock_all();
                    let batch = all.drain(committed);
                    for (lpa, u) in &batch.migrated {
                        prop_assert!(u.txid.is_some_and(|t| !committed(t)), "committed survivor");
                        let merged = batch.pages.iter().filter(|(l, _)| l == lpa).flat_map(|p| &p.1);
                        for c in merged.filter(|c| c.seq > u.seq) {
                            prop_assert!(c.end() <= u.offset || u.end() <= c.offset,
                                "page {}: survivor under newer committed bytes", lpa);
                        }
                    }
                    spec.apply(&batch.pages);
                    all.reinstate(batch.migrated);
                    drop(all);
                    for lpa in spec.log.keys().copied().collect::<Vec<_>>() {
                        spec.drain_page(lpa, |_| true, committed);
                    }
                    prop_assert_eq!(views(&spec), before, "a cleaning drain changed the read view");
                }
                LogOp::Covers { lpa_sel, offset, len } => {
                    let lpa = lpa_of(lpa_sel);
                    let len = len as usize % 256;
                    let offset = (offset as usize) % (PAGE_SIZE - len.max(1));
                    let chunks = spec.log.get(&lpa).map_or(&[][..], |c| &c[..]);
                    let covered = !chunks.is_empty()
                        && (offset..offset + len)
                            .all(|b| chunks.iter().any(|c| (c.offset..c.end()).contains(&b)));
                    prop_assert_eq!(log.covers(lpa, offset, len), covered, "coverage");
                    let read = log.read_range(lpa, offset, len, || Ok((spec.flash_page(lpa), 1)));
                    let want = spec.view(lpa)[offset..offset + len].to_vec();
                    prop_assert_eq!(read.unwrap(), (want, u64::from(!covered)), "ranged read");
                }
                LogOp::Seal { shard_sel } => {
                    let shard = shard_sel as usize % PARTITIONS as usize;
                    let mut chunks: Vec<&mut Chunk> = spec
                        .log
                        .iter_mut()
                        .filter(|(&lpa, _)| log.shard_of(lpa) == shard)
                        .flat_map(|(_, c)| c)
                        .collect();
                    let seals = !chunks.is_empty() && chunks.iter().all(|c| !c.sealed);
                    prop_assert_eq!(log.seal_shard(shard), seals, "seal of shard {}", shard);
                    chunks.iter_mut().for_each(|c| c.sealed |= seals);
                }
                LogOp::DrainStep { shard_sel, pages, committed_below } => {
                    let shard = shard_sel as usize % PARTITIONS as usize;
                    let max_pages = pages as usize % 4 + 1;
                    let committed = move |t: TxId| t.0 < committed_below as u32 % 8;
                    let before = views(&spec);
                    let mut drained = Vec::new();
                    let step = log.drain_sealed_step(shard, max_pages, || committed, |lpa, chunks| {
                        drained.push((lpa, chunks.to_vec()));
                        0
                    });
                    spec.apply(&drained);
                    let sealed_pages: Vec<u64> = spec
                        .log
                        .iter()
                        .filter(|(&lpa, c)| log.shard_of(lpa) == shard && c.iter().any(|c| c.sealed))
                        .map(|(&lpa, _)| lpa)
                        .take(max_pages)
                        .collect();
                    prop_assert_eq!(step.pages, sealed_pages.len(), "pages drained");
                    for lpa in sealed_pages {
                        spec.drain_page(lpa, |c| c.sealed, committed);
                    }
                    prop_assert_eq!(views(&spec), before, "a drain step changed the read view");
                }
            }
            assert_matches(&cfg, &spec, &log, &universe);
        }

        // A recovery drain leaves flash ⊕ committed chunks only.
        let committed = |t: TxId| t.0 < 4;
        let want: Vec<Vec<u8>> = universe
            .iter()
            .map(|&lpa| {
                let chunks = spec.log.get(&lpa).into_iter().flatten();
                overlay(spec.flash_page(lpa), chunks.filter(|c| c.txid.is_none_or(committed)))
            })
            .collect();
        spec.apply(&log.lock_all().drain_discarding(committed).pages);
        prop_assert_eq!((log.entries(), log.used_bytes()), (0, 0));
        let got: Vec<Vec<u8>> = universe.iter().map(|&lpa| spec.flash_page(lpa)).collect();
        prop_assert_eq!(got, want, "recovery image");
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
