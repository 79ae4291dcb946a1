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

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Deref;
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
/// payload `meta`, and its LRU stamp, which only the store moves.
#[derive(Debug, Clone)]
pub struct Slot<M> {
    /// Current contents.
    pub data: PageRef,
    /// The page holds changes its backing store has not seen.
    pub dirty: bool,
    /// What the cache keeps per page besides the bytes.
    pub meta: M,
    last_use: u64,
}

/// An LRU map of pages keyed by `K`. [`PageStore::get`],
/// [`PageStore::slot_mut`] and [`PageStore::put`] make a page the most
/// recently used; nothing else moves recency. The cache over the store
/// picks the capacity and the pages [`PageStore::evict_lru`] may evict.
#[derive(Debug)]
pub struct PageStore<K, M> {
    pages: HashMap<K, Slot<M>>,
    tick: u64,
}

impl<K, M> Default for PageStore<K, M> {
    fn default() -> Self {
        Self { pages: HashMap::new(), tick: 0 }
    }
}

impl<K: Hash + Eq + Copy, M> PageStore<K, M> {
    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.pages.len()
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
        self.pages.insert(key, Slot { data, dirty, meta, last_use: self.tick })
    }

    /// Drops a page, dirty or clean, and returns it.
    pub fn remove(&mut self, key: K) -> Option<Slot<M>> {
        self.pages.remove(&key)
    }

    /// Keeps only the pages `keep` accepts; it may change the ones it keeps.
    pub fn retain(&mut self, keep: impl FnMut(&K, &mut Slot<M>) -> bool) {
        self.pages.retain(keep);
    }

    /// Every resident page, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Slot<M>)> {
        self.pages.iter()
    }

    /// Every resident page, changeable, in no particular order; recency is
    /// left alone.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut Slot<M>)> {
        self.pages.iter_mut()
    }

    /// Drops every page.
    pub fn clear(&mut self) {
        self.pages.clear();
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
        self.pages.remove(&victim).map(|slot| (victim, slot))
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
        /// `slot_mut` and dirty the page, as a cache write does.
        Write(u8),
        Remove(u8),
        /// Keep the keys whose bit is set.
        Retain(u16),
        /// Clear every dirty bit in place, as writeback does.
        Clean,
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
            Just(Op::Clean),
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
        /// and holds the same pages with the same dirty bits, so the same
        /// dirty count.
        #[test]
        fn the_store_evicts_in_order_of_last_touch(
            ops in proptest::collection::vec(op(), 1..120),
            capacity in 4..9usize,
            clean_only in any::<bool>(),
        ) {
            let evictable = |slot: &Slot<()>| !(clean_only && slot.dirty);
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
                            slot.dirty = true;
                            slot.data.make_mut()[0] ^= 0x80;
                        }
                        if take(&mut model, k).is_some() {
                            model.push((k, true));
                        }
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(store.remove(k).map(|s| s.dirty), take(&mut model, k));
                    }
                    Op::Retain(mask) => {
                        store.retain(|k, _| mask & (1 << k) != 0);
                        model.retain(|(k, _)| mask & (1 << k) != 0);
                    }
                    Op::Clean => {
                        store.iter_mut().for_each(|(_, slot)| slot.dirty = false);
                        model.iter_mut().for_each(|(_, dirty)| *dirty = false);
                    }
                    Op::Evict => {
                        let got: Vec<u8> =
                            store.pop_lru_where(evictable).map(|(k, _)| k).into_iter().collect();
                        let keep = model.len().saturating_sub(1);
                        prop_assert_eq!(got, model_evict(&mut model, clean_only, keep));
                    }
                }
                let mut resident: Vec<_> = store.iter().map(|(k, s)| (*k, s.dirty)).collect();
                resident.sort_unstable();
                let mut want = model.clone();
                want.sort_unstable();
                prop_assert_eq!(resident, want);
            }
        }
    }
}
