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
//! * [`DramPageCache`] — the single-threaded cache. Pages are stored
//!   `Arc`-backed and [`DramPageCache::get`] hands out zero-copy
//!   [`CachePageRef`]s (a refcount bump, never a 4 KB copy); byte-granular
//!   [`DramPageCache::modify`] copies-on-write via [`Arc::make_mut`] only
//!   when a read ref is still outstanding. This mirrors fskit's host-side
//!   `PageCache`.
//! * [`ShardedDramCache`] — the concurrent wrapper used by the device:
//!   [`CACHE_SHARDS`] lock-striped [`DramPageCache`]s keyed by LPA, each with
//!   a proportional slice of the DRAM budget, so baseline-mode accesses to
//!   different pages never contend on one cache-wide lock.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::ftl::Lpa;

/// A zero-copy, read-only reference to a cached page.
///
/// Obtained from [`DramPageCache::get`]; cloning (or fetching) one only bumps
/// an `Arc` refcount. A later [`DramPageCache::modify`] of the same page
/// copies-on-write, so outstanding refs keep the contents they observed.
#[derive(Debug, Clone)]
pub struct CachePageRef(Arc<Vec<u8>>);

impl Deref for CachePageRef {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for CachePageRef {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq<Vec<u8>> for CachePageRef {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == *other
    }
}

/// One cached flash page.
#[derive(Debug, Clone)]
struct CachedPage {
    data: Arc<Vec<u8>>,
    dirty: bool,
    last_use: u64,
}

/// An LRU write-back cache of flash pages held in device DRAM.
#[derive(Debug)]
pub struct DramPageCache {
    capacity_pages: usize,
    page_size: usize,
    pages: HashMap<Lpa, CachedPage>,
    tick: u64,
}

/// Unwraps an `Arc`-backed page for writeback, copying only if a
/// [`CachePageRef`] is still outstanding.
fn unwrap_page(data: Arc<Vec<u8>>) -> Vec<u8> {
    Arc::try_unwrap(data).unwrap_or_else(|arc| (*arc).clone())
}

impl DramPageCache {
    /// Creates a cache that can hold `capacity_bytes / page_size` pages
    /// (at least one).
    pub fn new(capacity_bytes: usize, page_size: usize) -> Self {
        Self {
            capacity_pages: (capacity_bytes / page_size).max(1),
            page_size,
            pages: HashMap::new(),
            tick: 0,
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
        self.pages.values().filter(|p| p.dirty).count()
    }

    /// Maximum number of resident pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Whether a page is resident.
    pub fn contains(&self, lpa: Lpa) -> bool {
        self.pages.contains_key(&lpa)
    }

    /// Returns a zero-copy reference to a cached page and refreshes its LRU
    /// position. No page data is copied — only an `Arc` refcount is bumped.
    pub fn get(&mut self, lpa: Lpa) -> Option<CachePageRef> {
        self.tick += 1;
        let tick = self.tick;
        let p = self.pages.get_mut(&lpa)?;
        p.last_use = tick;
        Some(CachePageRef(Arc::clone(&p.data)))
    }

    /// Inserts (or replaces) a page. Returns the pages that had to be evicted
    /// to make room, as `(lpa, data)` pairs — only dirty victims are returned,
    /// clean victims are silently dropped.
    pub fn insert(&mut self, lpa: Lpa, data: Vec<u8>, dirty: bool) -> Vec<(Lpa, Vec<u8>)> {
        debug_assert_eq!(data.len(), self.page_size, "cache stores whole pages");
        self.tick += 1;
        let entry = CachedPage { data: Arc::new(data), dirty, last_use: self.tick };
        match self.pages.get_mut(&lpa) {
            Some(existing) => {
                // Keep the dirty bit sticky: overwriting a dirty page with a
                // clean copy must not lose the pending writeback.
                let was_dirty = existing.dirty;
                *existing = entry;
                existing.dirty = dirty || was_dirty;
                Vec::new()
            }
            None => {
                self.pages.insert(lpa, entry);
                self.evict_to_capacity()
            }
        }
    }

    /// Applies a byte-granular modification to a cached page, marking it
    /// dirty. Copies-on-write only if a [`CachePageRef`] is outstanding.
    /// Returns `false` if the page is not resident.
    pub fn modify(&mut self, lpa: Lpa, offset: usize, bytes: &[u8]) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.pages.get_mut(&lpa) {
            Some(p) => {
                let end = offset + bytes.len();
                debug_assert!(end <= self.page_size);
                Arc::make_mut(&mut p.data)[offset..end].copy_from_slice(bytes);
                p.dirty = true;
                p.last_use = tick;
                true
            }
            None => false,
        }
    }

    /// Drops a page from the cache regardless of its dirty state (used when the
    /// host overwrites the whole page through the block interface).
    pub fn discard(&mut self, lpa: Lpa) {
        self.pages.remove(&lpa);
    }

    /// Copies out the dirty pages without clearing their dirty bits (used
    /// for crash imaging: the cache is battery-backed device DRAM, so its
    /// unwritten dirty pages are part of the durable state).
    pub fn export_dirty(&self) -> Vec<(Lpa, Vec<u8>)> {
        let mut out: Vec<(Lpa, Vec<u8>)> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(k, p)| (*k, (*p.data).clone()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Removes the dirty bit from all pages and returns their contents (for
    /// FLUSH / power-loss handling). Pages stay resident.
    pub fn drain_dirty(&mut self) -> Vec<(Lpa, Vec<u8>)> {
        let dirty_keys: Vec<Lpa> =
            self.pages.iter().filter(|(_, p)| p.dirty).map(|(k, _)| *k).collect();
        let mut out = Vec::with_capacity(dirty_keys.len());
        for k in dirty_keys {
            if let Some(p) = self.pages.get_mut(&k) {
                p.dirty = false;
                out.push((k, (*p.data).clone()));
            }
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Drops every cached page (clean and dirty) without writing anything
    /// back. Only used to model losing a *volatile* cache.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    fn evict_to_capacity(&mut self) -> Vec<(Lpa, Vec<u8>)> {
        let mut writebacks = Vec::new();
        while self.pages.len() > self.capacity_pages {
            let victim = self
                .pages
                .iter()
                .min_by_key(|(_, p)| p.last_use)
                .map(|(k, _)| *k)
                .expect("cache is non-empty");
            let page = self.pages.remove(&victim).expect("victim present");
            if page.dirty {
                writebacks.push((victim, unwrap_page(page.data)));
            }
        }
        writebacks
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
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().drain_dirty());
        }
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
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().export_dirty());
        }
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
        assert_eq!(c.get(1).unwrap(), page(1));
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
        assert!(Arc::ptr_eq(&r1.0, &r2.0));
        // A modify with refs outstanding copies-on-write: old refs keep the
        // contents they observed.
        assert!(c.modify(7, 0, &[9, 9]));
        assert_eq!(&r1[..2], &[1, 1]);
        assert_eq!(&c.get(7).unwrap()[..2], &[9, 9]);
        // With no refs outstanding, modify writes in place (no new alloc).
        drop(r1);
        drop(r2);
        let before = c.get(7).unwrap();
        let ptr_before = Arc::as_ptr(&before.0);
        drop(before);
        assert!(c.modify(7, 2, &[8]));
        assert_eq!(Arc::as_ptr(&c.get(7).unwrap().0), ptr_before);
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
        assert_eq!(c.get(1).unwrap(), page(2));
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
    fn discard_and_clear() {
        let mut c = cache(4);
        c.insert(1, page(1), true);
        c.insert(2, page(2), true);
        c.discard(1);
        assert!(!c.contains(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.dirty_pages(), 0);
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
        assert_eq!(c.lock_shard(4).get(4).unwrap(), page(4));
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
