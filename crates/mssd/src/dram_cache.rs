//! Page-granular device DRAM cache (baseline firmware behaviour).
//!
//! The baseline file systems in the paper run on the M-SSD "without firmware
//! changes (i.e., no log-structure memory in SSD DRAM), but we enabled the
//! data caching (256 MB) in SSD DRAM" (§5.1). This module is that conventional
//! write-back, LRU, page-granular cache. ByteFS does not use it — it
//! repurposes the same DRAM budget as the log-structured write log
//! ([`crate::log::ShardedWriteLog`]).
//!
//! Two layers live here:
//!
//! * [`DramPageCache`] — the single-threaded cache: an evict-any-page LRU
//!   policy over the model's one page store ([`crate::pages::PageStore`]),
//!   which the host page cache (`fskit::pagecache::PageCache`, evicting clean
//!   pages only) sits on too. [`DramPageCache::get`] hands out zero-copy
//!   [`PageRef`]s; byte-granular [`DramPageCache::modify`] copies-on-write
//!   only when a read ref is still outstanding. A full cache evicts its least
//!   recently used page, clean or dirty, and returns the dirty victims for
//!   writeback. The store's dirty index answers FLUSH and crash imaging
//!   ([`DramPageCache::drain_dirty`], [`DramPageCache::export_dirty`]) in
//!   ascending LPA order without a scan of the resident pages.
//! * [`ShardedDramCache`] — the concurrent wrapper used by the device:
//!   [`CACHE_SHARDS`] lock-striped [`DramPageCache`]s keyed by LPA, each with
//!   a proportional slice of the DRAM budget, so baseline-mode accesses to
//!   different pages never contend on one cache-wide lock.

use parking_lot::{Mutex, MutexGuard};

use crate::ftl::Lpa;
use crate::pages::{PageRef, PageStore};

/// An LRU write-back cache of flash pages held in device DRAM.
#[derive(Debug)]
pub struct DramPageCache {
    capacity_pages: usize,
    page_size: usize,
    pages: PageStore<Lpa, ()>,
}

impl DramPageCache {
    /// Creates a cache that can hold `capacity_bytes / page_size` pages
    /// (at least one).
    pub fn new(capacity_bytes: usize, page_size: usize) -> Self {
        Self {
            capacity_pages: (capacity_bytes / page_size).max(1),
            page_size,
            pages: PageStore::default(),
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` when no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Number of resident dirty pages.
    pub fn dirty_pages(&self) -> usize {
        self.pages.dirty_len()
    }

    /// Maximum number of resident pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Whether a page is resident.
    pub fn contains(&self, lpa: Lpa) -> bool {
        self.pages.contains(lpa)
    }

    /// Returns a zero-copy reference to a cached page and refreshes its LRU
    /// position. No page data is copied — only an `Arc` refcount is bumped.
    pub fn get(&mut self, lpa: Lpa) -> Option<PageRef> {
        self.pages.get(lpa)
    }

    /// Inserts (or replaces) a page. Returns the pages that had to be evicted
    /// to make room, as `(lpa, data)` pairs: the least recently used pages,
    /// clean or dirty, of which only the dirty ones are returned — clean
    /// victims are silently dropped.
    pub fn insert(&mut self, lpa: Lpa, data: Vec<u8>, dirty: bool) -> Vec<(Lpa, Vec<u8>)> {
        debug_assert_eq!(data.len(), self.page_size, "cache stores whole pages");
        let mut writebacks = Vec::new();
        match self.pages.put(lpa, PageRef::new(data), dirty, ()) {
            // Keep the dirty bit sticky: overwriting a dirty page with a
            // clean copy must not lose the pending writeback.
            Some(old) if old.dirty() && !dirty => {
                self.pages.mark_dirty(lpa);
            }
            Some(_) => {}
            None => self.pages.evict_lru(
                self.capacity_pages,
                |_| true,
                |lpa, page| {
                    if page.dirty() {
                        writebacks.push((lpa, page.data.into_vec()));
                    }
                },
            ),
        }
        writebacks
    }

    /// Applies a byte-granular modification to a cached page, marking it
    /// dirty. Copies-on-write only if a [`PageRef`] is outstanding.
    /// Returns `false` if the page is not resident.
    pub fn modify(&mut self, lpa: Lpa, offset: usize, bytes: &[u8]) -> bool {
        let Some(p) = self.pages.slot_mut(lpa) else { return false };
        let end = offset + bytes.len();
        debug_assert!(end <= self.page_size);
        p.data.make_mut()[offset..end].copy_from_slice(bytes);
        if !p.dirty() {
            self.pages.mark_dirty(lpa);
        }
        true
    }

    /// Drops a page from the cache regardless of its dirty state (used when the
    /// host overwrites the whole page through the block interface).
    pub fn discard(&mut self, lpa: Lpa) {
        self.pages.remove(lpa);
    }

    /// Copies out the dirty pages, in ascending LPA order, without clearing
    /// their dirty bits (used for crash imaging: the cache is battery-backed
    /// device DRAM, so its unwritten dirty pages are part of the durable
    /// state).
    pub fn export_dirty(&self) -> Vec<(Lpa, Vec<u8>)> {
        self.pages
            .dirty_keys(..)
            .map(|lpa| {
                (lpa, self.pages.slot(lpa).expect("indexed pages are resident").data.to_vec())
            })
            .collect()
    }

    /// Removes the dirty bit from all pages and returns their contents in
    /// ascending LPA order (for FLUSH / power-loss handling). Pages stay
    /// resident.
    pub fn drain_dirty(&mut self) -> Vec<(Lpa, Vec<u8>)> {
        let mut out = Vec::new();
        self.pages.clean(.., |lpa, p| out.push((lpa, p.data.to_vec())));
        out
    }
}

/// Number of independently locked shards of the [`ShardedDramCache`].
///
/// Sequential LPAs round-robin over the shards, so block streams and disjoint
/// working sets spread across all locks.
pub const CACHE_SHARDS: usize = 16;

/// The concurrent device page cache used in baseline ([`crate::DramMode::PageCache`])
/// mode: [`CACHE_SHARDS`] LRU caches, each behind its own mutex with a
/// proportional slice of the DRAM budget.
///
/// The device locks exactly one shard per page-sized chunk of a request
/// (via [`ShardedDramCache::lock_shard`]) and performs the whole
/// hit-or-miss-and-fill sequence under that one lock, so accesses to
/// different shards proceed concurrently while same-page races stay
/// serialized. Lock order: a cache-shard lock may be held while taking FTL
/// channel/stripe locks, never the reverse.
#[derive(Debug)]
pub struct ShardedDramCache {
    shards: Vec<Mutex<DramPageCache>>,
}

impl ShardedDramCache {
    /// Creates a sharded cache over the given DRAM budget.
    pub fn new(capacity_bytes: usize, page_size: usize) -> Self {
        let per_shard = (capacity_bytes / CACHE_SHARDS).max(page_size);
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(DramPageCache::new(per_shard, page_size)))
                .collect(),
        }
    }

    /// The shard index serving `lpa`.
    pub fn shard_of(&self, lpa: Lpa) -> usize {
        (lpa % CACHE_SHARDS as u64) as usize
    }

    /// Locks and returns the shard serving `lpa`. The caller performs its
    /// whole per-page sequence (lookup, fill, modify, insert) under this one
    /// guard.
    pub fn lock_shard(&self, lpa: Lpa) -> MutexGuard<'_, DramPageCache> {
        self.shards[self.shard_of(lpa)].lock()
    }

    /// Number of resident dirty pages across all shards.
    pub fn dirty_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_pages()).sum()
    }

    /// Number of resident pages across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` when no pages are cached in any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Removes the dirty bit from every page in every shard and returns the
    /// dirty contents in ascending LPA order (shards are visited one at a
    /// time, so this is a consistent set only at quiescent points).
    pub fn drain_dirty(&self) -> Vec<(Lpa, Vec<u8>)> {
        let mut out: Vec<_> = self.shards.iter().flat_map(|s| s.lock().drain_dirty()).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Drops a page regardless of its dirty state.
    pub fn discard(&self, lpa: Lpa) {
        self.lock_shard(lpa).discard(lpa);
    }

    /// Copies out every shard's dirty pages without clearing dirty bits, in
    /// ascending LPA order (crash imaging; see
    /// [`DramPageCache::export_dirty`]).
    pub fn export_dirty(&self) -> Vec<(Lpa, Vec<u8>)> {
        let mut out: Vec<_> = self.shards.iter().flat_map(|s| s.lock().export_dirty()).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Re-inserts pages as dirty (crash-image restoration into a fresh,
    /// empty cache). Evictions cannot happen while restoring what one cache
    /// of the same geometry previously held.
    pub fn restore_dirty(&self, pages: &[(Lpa, Vec<u8>)]) {
        for (lpa, data) in pages {
            let victims = self.lock_shard(*lpa).insert(*lpa, data.clone(), true);
            assert!(victims.is_empty(), "crash-image cache restore must not evict");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 4096;

    fn cache(pages: usize) -> DramPageCache {
        DramPageCache::new(pages * PS, PS)
    }

    fn page(tag: u8) -> Vec<u8> {
        vec![tag; PS]
    }

    #[test]
    fn insert_and_get() {
        let mut c = cache(4);
        assert!(c.insert(1, page(1), false).is_empty());
        assert_eq!(c.get(1).unwrap().to_vec(), page(1));
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_is_zero_copy_and_cow_on_modify() {
        let mut c = cache(4);
        c.insert(7, page(1), false);
        let r1 = c.get(7).unwrap();
        let r2 = c.get(7).unwrap();
        // Both refs share the same allocation — no copy on read.
        assert!(PageRef::ptr_eq(&r1, &r2));
        // A modify with refs outstanding copies-on-write: old refs keep the
        // contents they observed.
        assert!(c.modify(7, 0, &[9, 9]));
        assert_eq!(&r1[..2], &[1, 1]);
        assert_eq!(&c.get(7).unwrap()[..2], &[9, 9]);
        // With no refs outstanding, modify writes in place (no new alloc).
        drop(r1);
        drop(r2);
        let before = c.get(7).unwrap();
        let ptr_before = before.as_ptr();
        drop(before);
        assert!(c.modify(7, 2, &[8]));
        assert_eq!(c.get(7).unwrap().as_ptr(), ptr_before);
    }

    #[test]
    fn lru_eviction_returns_dirty_victims_only() {
        let mut c = cache(2);
        c.insert(1, page(1), true);
        c.insert(2, page(2), false);
        // Touch 1 so 2 becomes the LRU victim.
        c.get(1);
        let evicted = c.insert(3, page(3), false);
        assert!(evicted.is_empty(), "clean victim should not be written back");
        assert!(!c.contains(2));
        // Now 1 (dirty) is the LRU.
        let evicted = c.insert(4, page(4), false);
        assert_eq!(evicted, vec![(1, page(1))]);
    }

    #[test]
    fn modify_marks_dirty() {
        let mut c = cache(2);
        c.insert(5, page(0), false);
        assert_eq!(c.dirty_pages(), 0);
        assert!(c.modify(5, 100, &[9, 9, 9]));
        assert_eq!(c.dirty_pages(), 1);
        let got = c.get(5).unwrap();
        assert_eq!(&got[100..103], &[9, 9, 9]);
        assert!(!c.modify(99, 0, &[1]));
    }

    #[test]
    fn reinsert_keeps_dirty_bit_sticky() {
        let mut c = cache(2);
        c.insert(1, page(1), true);
        c.insert(1, page(2), false);
        assert_eq!(c.dirty_pages(), 1);
        assert_eq!(c.get(1).unwrap().to_vec(), page(2));
    }

    #[test]
    fn drain_dirty_cleans_pages_but_keeps_them_resident() {
        let mut c = cache(4);
        c.insert(1, page(1), true);
        c.insert(2, page(2), false);
        c.insert(3, page(3), true);
        let drained = c.drain_dirty();
        assert_eq!(drained, vec![(1, page(1)), (3, page(3))]);
        assert_eq!(c.dirty_pages(), 0);
        assert_eq!(c.len(), 3);
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn discard_drops_dirty_pages_without_writeback() {
        let mut c = cache(4);
        c.insert(1, page(1), true);
        c.insert(2, page(2), true);
        c.discard(1);
        assert!(!c.contains(1));
        assert_eq!(c.drain_dirty(), vec![(2, page(2))]);
        c.discard(2);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_at_least_one_page() {
        let c = DramPageCache::new(10, PS);
        assert_eq!(c.capacity_pages(), 1);
    }

    #[test]
    fn sharded_cache_spreads_and_aggregates() {
        let c = ShardedDramCache::new(64 * PS, PS);
        assert!(c.is_empty());
        for lpa in 0..32u64 {
            c.lock_shard(lpa).insert(lpa, page(lpa as u8), lpa % 2 == 0);
        }
        assert_eq!(c.len(), 32);
        assert_eq!(c.dirty_pages(), 16);
        // Consecutive LPAs land on different shards.
        assert_ne!(c.shard_of(0), c.shard_of(1));
        let drained = c.drain_dirty();
        assert_eq!(drained.len(), 16);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0), "sorted by lpa");
        assert_eq!(c.dirty_pages(), 0);
        c.discard(0);
        assert_eq!(c.len(), 31);
        assert_eq!(c.lock_shard(4).get(4).unwrap().to_vec(), page(4));
    }

    #[test]
    fn dirty_pages_come_out_in_lpa_order_whatever_order_dirtied_them() {
        // Three pages a shard. Shard 5 is dirtied 53, 5, 37, out of order;
        // the others by insert (20, 16) or by a modify of a clean page (1).
        let c = ShardedDramCache::new(48 * PS, PS);
        for lpa in [53u64, 20, 5, 16, 37] {
            assert!(c.lock_shard(lpa).insert(lpa, page(lpa as u8), true).is_empty());
        }
        c.lock_shard(1).insert(1, page(1), false);
        assert!(c.lock_shard(1).modify(1, 0, &[9]));
        // A clean insert into the full shard 5 evicts its LRU page, dirty 53.
        assert_eq!(c.lock_shard(21).insert(21, page(21), false), vec![(53, page(53))]);
        // Re-inserting a dirty page as clean keeps its pending writeback.
        c.lock_shard(20).insert(20, page(99), false);

        let mut first = page(1);
        first[0] = 9;
        let want = vec![(1, first), (5, page(5)), (16, page(16)), (20, page(99)), (37, page(37))];
        let shard5 = vec![(5, page(5)), (37, page(37))];
        assert_eq!(c.lock_shard(5).export_dirty(), shard5, "one shard's LPAs ascend");
        assert_eq!(c.export_dirty(), want, "export keeps the dirty bits");
        assert_eq!(c.dirty_pages(), want.len());
        let resident = c.len();
        assert_eq!(c.drain_dirty(), want);
        assert_eq!(c.dirty_pages(), 0, "drain clears every dirty bit");
        assert!(c.export_dirty().is_empty());
        assert_eq!(c.len(), resident, "drained pages stay resident");
        assert!(want.iter().all(|(lpa, _)| c.lock_shard(*lpa).contains(*lpa)));
    }

    #[test]
    fn sharded_cache_concurrent_smoke() {
        let c = std::sync::Arc::new(ShardedDramCache::new(256 * PS, PS));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let lpa = t * 64 + i % 64;
                        let mut shard = c.lock_shard(lpa);
                        if shard.get(lpa).is_none() {
                            shard.insert(lpa, page(t as u8), false);
                        }
                        shard.modify(lpa, 0, &[t as u8 + 1]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            let got = c.lock_shard(t * 64).get(t * 64).unwrap();
            assert_eq!(got[0], t as u8 + 1);
        }
    }
}
