//! The LRU page store under both page caches of the model (§4.5's
//! coordinated caching): the host page cache (`fskit::pagecache::PageCache`)
//! evicts clean pages only, the baseline firmware's DRAM cache
//! ([`crate::dram_cache::DramPageCache`]) evicts any page and writes dirty
//! victims back. Each is a thin policy over one [`PageStore`].
//!
//! Pages are handed out as [`PageRef`]s: a read is a reference-count bump,
//! not a 4 KB copy, and the first write to a page that is still shared
//! copies it once ([`PageRef::make_mut`]). Every touch stamps the page with
//! the next tick, so stamps are unique and the one victim search,
//! [`PageStore::pop_lru_where`], picks the same page whatever order the map
//! iterates in.
//!
//! The store owns the dirty bits: besides the map it keeps a key-ordered
//! index of its dirty keys, as Linux tags a mapping's dirty pages in its
//! xarray (`PAGECACHE_TAG_DIRTY`). Every call that sets, clears or drops a
//! dirty page keeps the index exact, so writeback asks it
//! ([`PageStore::dirty_keys`], [`PageStore::clean`]) and costs what it
//! finds, not what is resident.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheap, immutable handle to one cached page's bytes.
///
/// Cloning a `PageRef` (and fetching one from [`PageStore::get`]) only bumps
/// a reference count. The underlying buffer is copied lazily, the first time
/// a cache must mutate a page that is still shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRef(Arc<Vec<u8>>);

impl PageRef {
    /// Wraps an owned buffer.
    pub fn new(data: Vec<u8>) -> Self {
        Self(Arc::new(data))
    }

    /// An all-zero page of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self::new(vec![0u8; len])
    }

    /// Copies the bytes out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.as_ref().clone()
    }

    /// `true` when both handles share the same underlying buffer (used by
    /// tests to assert zero-copy behaviour).
    pub fn ptr_eq(a: &PageRef, b: &PageRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The bytes, writable: copied first when another handle shares them,
    /// written in place otherwise.
    pub fn make_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.0).as_mut_slice()
    }

    /// The bytes as an owned vector, copied only when another handle still
    /// shares them.
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl Deref for PageRef {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl AsRef<[u8]> for PageRef {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for PageRef {
    fn from(data: Vec<u8>) -> Self {
        Self::new(data)
    }
}

/// One resident page: its bytes, its dirty bit, the cache's own per-page
/// payload `meta`, and its LRU stamp. Only the store moves the stamp and the
/// dirty bit, so its dirty index cannot drift from the bits.
#[derive(Debug, Clone)]
pub struct Slot<M> {
    /// Current contents.
    pub data: PageRef,
    /// What the cache keeps per page besides the bytes.
    pub meta: M,
    dirty: bool,
    last_use: u64,
}

impl<M> Slot<M> {
    /// The page holds changes its backing store has not seen.
    pub fn dirty(&self) -> bool {
        self.dirty
    }
}

/// An LRU map of pages keyed by `K`, with an ordered index of its dirty
/// keys. [`PageStore::get`], [`PageStore::slot_mut`] and [`PageStore::put`]
/// make a page the most recently used; nothing else moves recency. The cache
/// over the store picks the capacity and the pages [`PageStore::evict_lru`]
/// may evict.
#[derive(Debug)]
pub struct PageStore<K, M> {
    pages: HashMap<K, Slot<M>>,
    /// Exactly the keys of the resident pages whose dirty bit is set.
    dirty: BTreeSet<K>,
    tick: u64,
}

impl<K, M> Default for PageStore<K, M> {
    fn default() -> Self {
        Self { pages: HashMap::new(), dirty: BTreeSet::new(), tick: 0 }
    }
}

impl<K: Hash + Ord + Copy, M> PageStore<K, M> {
    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Number of resident dirty pages: the index's size, not a scan.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether a page is resident.
    pub fn contains(&self, key: K) -> bool {
        self.pages.contains_key(&key)
    }

    /// A handle to a resident page, made the most recently used: one hash
    /// lookup and a reference-count bump.
    pub fn get(&mut self, key: K) -> Option<PageRef> {
        self.slot_mut(key).map(|slot| slot.data.clone())
    }

    /// A resident page to change, made the most recently used.
    pub fn slot_mut(&mut self, key: K) -> Option<&mut Slot<M>> {
        let slot = self.pages.get_mut(&key)?;
        self.tick += 1;
        slot.last_use = self.tick;
        Some(slot)
    }

    /// A resident page, its recency untouched.
    pub fn slot(&self, key: K) -> Option<&Slot<M>> {
        self.pages.get(&key)
    }

    /// Installs a page as the most recently used and returns the one it
    /// replaced.
    pub fn put(&mut self, key: K, data: PageRef, dirty: bool, meta: M) -> Option<Slot<M>> {
        self.tick += 1;
        if dirty {
            self.dirty.insert(key);
        } else {
            self.dirty.remove(&key);
        }
        self.pages.insert(key, Slot { data, meta, dirty, last_use: self.tick })
    }

    /// Sets a resident page's dirty bit, its recency untouched; `false` when
    /// the page is not resident.
    pub fn mark_dirty(&mut self, key: K) -> bool {
        let Some(slot) = self.pages.get_mut(&key) else { return false };
        if !slot.dirty {
            slot.dirty = true;
            self.dirty.insert(key);
        }
        true
    }

    /// Drops a page, dirty or clean, and returns it.
    pub fn remove(&mut self, key: K) -> Option<Slot<M>> {
        let slot = self.pages.remove(&key)?;
        if slot.dirty {
            self.dirty.remove(&key);
        }
        Some(slot)
    }

    /// Keeps only the pages `keep` accepts: one scan of the whole map.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &Slot<M>) -> bool) {
        let dirty = &mut self.dirty;
        self.pages.retain(|key, slot| {
            let kept = keep(key, slot);
            if !kept && slot.dirty {
                dirty.remove(key);
            }
            kept
        });
    }

    /// Every resident page, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Slot<M>)> {
        self.pages.iter()
    }

    /// The dirty keys within `range`, ascending, read from the index.
    pub fn dirty_keys(&self, range: impl RangeBounds<K>) -> impl Iterator<Item = K> + '_ {
        self.dirty.range(range).copied()
    }

    /// Clears the dirty bit of every dirty page within `range` and hands
    /// each to `cleaned`, in ascending key order; the pages stay resident and
    /// their recency is left alone. Costs the dirty pages it finds, not the
    /// resident ones: writeback's walk.
    pub fn clean(&mut self, range: impl RangeBounds<K>, mut cleaned: impl FnMut(K, &mut Slot<M>)) {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        while let Some(&key) = self.dirty.range(range).next() {
            self.dirty.remove(&key);
            let slot = self.pages.get_mut(&key).expect("the dirty index holds resident keys only");
            slot.dirty = false;
            cleaned(key, slot);
        }
    }

    /// Removes and returns the least recently used page among those
    /// `evictable` accepts, or `None` when it accepts none. The victim search
    /// of both caches: one scan of the whole map.
    pub fn pop_lru_where(&mut self, evictable: impl Fn(&Slot<M>) -> bool) -> Option<(K, Slot<M>)> {
        let victim = self
            .pages
            .iter()
            .filter(|(_, slot)| evictable(slot))
            .min_by_key(|(_, slot)| slot.last_use)
            .map(|(key, _)| *key)?;
        self.remove(victim).map(|slot| (victim, slot))
    }

    /// Evicts the least recently used pages `evictable` accepts, handing each
    /// to `victim`, until at most `capacity` pages are resident or none left
    /// is evictable: both caches' eviction.
    pub fn evict_lru(
        &mut self,
        capacity: usize,
        evictable: impl Fn(&Slot<M>) -> bool,
        mut victim: impl FnMut(K, Slot<M>),
    ) {
        while self.pages.len() > capacity {
            let Some((key, slot)) = self.pop_lru_where(&evictable) else { break };
            victim(key, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random stream against a store.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        /// `put`, then evict down to the capacity, as both caches insert.
        Insert(u8, bool),
        /// `slot_mut`, change the bytes, then `mark_dirty`, as a cache write
        /// does.
        Write(u8),
        Remove(u8),
        /// Keep the keys whose bit is set.
        Retain(u16),
        /// `clean(lo..hi)` on a sub-range of the keys, as writeback cleans
        /// one file's pages.
        Clean(u8, u8),
        /// One `pop_lru_where`.
        Evict,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..10u8).prop_map(Op::Get),
            (0..10u8, any::<bool>()).prop_map(|(k, dirty)| Op::Insert(k, dirty)),
            (0..10u8).prop_map(Op::Write),
            (0..10u8).prop_map(Op::Remove),
            any::<u16>().prop_map(Op::Retain),
            (0..11u8, 0..11u8).prop_map(|(a, b)| Op::Clean(a.min(b), a.max(b))),
            Just(Op::Evict),
        ]
    }

    fn take(model: &mut Vec<(u8, bool)>, key: u8) -> Option<bool> {
        model.iter().position(|(k, _)| *k == key).map(|at| model.remove(at).1)
    }

    /// The model's victims: its least recently touched pages the policy may
    /// evict, until `keep` pages are left or none may go.
    fn model_evict(model: &mut Vec<(u8, bool)>, clean_only: bool, keep: usize) -> Vec<u8> {
        let mut victims = Vec::new();
        while model.len() > keep {
            let Some(at) = model.iter().position(|(_, dirty)| !(clean_only && *dirty)) else {
                break;
            };
            victims.push(model.remove(at).0);
        }
        victims
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The executable spec: under either policy — evict any page (the
        /// device DRAM cache) or clean pages only (the host page cache) — the
        /// store evicts the same victims in the same order as a list of
        /// `(key, dirty)` kept in order of last touch, least recent first,
        /// and holds the same pages with the same dirty bits. Its dirty index
        /// lists exactly the model's dirty keys, ascending, after every step,
        /// and `clean` hands out the dirty keys of its range in ascending
        /// order without moving recency.
        #[test]
        fn the_store_evicts_in_order_of_last_touch(
            ops in proptest::collection::vec(op(), 1..120),
            capacity in 4..9usize,
            clean_only in any::<bool>(),
        ) {
            let evictable = |slot: &Slot<()>| !(clean_only && slot.dirty());
            let mut store: PageStore<u8, ()> = PageStore::default();
            let mut model: Vec<(u8, bool)> = Vec::new();
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let hit = take(&mut model, k).map(|dirty| model.push((k, dirty)));
                        prop_assert_eq!(store.get(k).is_some(), hit.is_some());
                    }
                    Op::Insert(k, dirty) => {
                        store.put(k, PageRef::new(vec![k]), dirty, ());
                        let mut got = Vec::new();
                        store.evict_lru(capacity, evictable, |k, _| got.push(k));
                        take(&mut model, k);
                        model.push((k, dirty));
                        prop_assert_eq!(got, model_evict(&mut model, clean_only, capacity));
                    }
                    Op::Write(k) => {
                        if let Some(slot) = store.slot_mut(k) {
                            slot.data.make_mut()[0] ^= 0x80;
                        }
                        let marked = store.mark_dirty(k);
                        let hit = take(&mut model, k).map(|_| model.push((k, true)));
                        prop_assert_eq!(marked, hit.is_some());
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(store.remove(k).map(|s| s.dirty()), take(&mut model, k));
                    }
                    Op::Retain(mask) => {
                        store.retain(|k, _| mask & (1 << k) != 0);
                        model.retain(|(k, _)| mask & (1 << k) != 0);
                    }
                    Op::Clean(lo, hi) => {
                        let mut got = Vec::new();
                        store.clean(lo..hi, |k, slot| got.push((k, slot.dirty())));
                        let mut want: Vec<(u8, bool)> = model
                            .iter_mut()
                            .filter(|(k, dirty)| *dirty && (lo..hi).contains(k))
                            .map(|(k, dirty)| {
                                *dirty = false;
                                (*k, false)
                            })
                            .collect();
                        want.sort_unstable();
                        prop_assert_eq!(got, want);
                    }
                    Op::Evict => {
                        let got: Vec<u8> =
                            store.pop_lru_where(evictable).map(|(k, _)| k).into_iter().collect();
                        let keep = model.len().saturating_sub(1);
                        prop_assert_eq!(got, model_evict(&mut model, clean_only, keep));
                    }
                }
                let mut resident: Vec<_> = store.iter().map(|(k, s)| (*k, s.dirty())).collect();
                resident.sort_unstable();
                let mut want = model.clone();
                want.sort_unstable();
                let want_dirty: Vec<u8> =
                    want.iter().filter(|(_, dirty)| *dirty).map(|(k, _)| *k).collect();
                prop_assert_eq!(resident, want);
                prop_assert_eq!(store.dirty_len(), want_dirty.len());
                prop_assert_eq!(store.dirty_keys(..).collect::<Vec<_>>(), want_dirty);
            }
        }
    }
}
