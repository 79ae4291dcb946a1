//! The LSM-tree database: WAL + memtable + SSTables + tiered compaction.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use fskit::{FileSystem, FileSystemExt, FsResult};

use crate::memtable::Memtable;
use crate::sstable::SsTable;
use crate::wal::{Wal, WalRecord};

/// When the write-ahead log is forced to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// `fdatasync` after every write (safest, slowest).
    EveryWrite,
    /// `fdatasync` after every N writes (group commit, the default).
    Periodic(u32),
    /// Only when the memtable is flushed.
    OnFlush,
}

/// Database tuning options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbOptions {
    /// Memtable size that triggers a flush to an SSTable.
    pub memtable_bytes: usize,
    /// Number of level-0 SSTables that triggers a compaction.
    pub compaction_threshold: usize,
    /// WAL durability policy.
    pub wal_sync: WalSync,
}

impl Default for DbOptions {
    fn default() -> Self {
        Self { memtable_bytes: 1 << 20, compaction_threshold: 4, wal_sync: WalSync::Periodic(64) }
    }
}

impl DbOptions {
    /// Small limits so unit tests exercise flush and compaction quickly.
    pub fn small_test() -> Self {
        Self { memtable_bytes: 16 << 10, compaction_threshold: 3, wal_sync: WalSync::Periodic(8) }
    }
}

/// Operation counters of a [`Db`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Number of puts and deletes accepted.
    pub writes: u64,
    /// Number of point lookups served.
    pub reads: u64,
    /// Number of range scans served.
    pub scans: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Torn WAL tails truncated during recovery at open (the signature of a
    /// crash mid-append; see [`crate::wal::Wal::open`]).
    pub torn_tails_truncated: u64,
}

struct DbState {
    memtable: Memtable,
    wal: Wal,
    tables: Vec<SsTable>,
    next_table_id: u64,
    writes_since_sync: u32,
    stats: DbStats,
}

/// An LSM-tree key-value store on top of a [`FileSystem`].
pub struct Db {
    fs: Arc<dyn FileSystem>,
    dir: String,
    options: DbOptions,
    state: Mutex<DbState>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db").field("dir", &self.dir).finish()
    }
}

impl Db {
    /// Opens (or creates) a database rooted at directory `dir`. Existing WAL
    /// records are replayed into the memtable.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(fs: Arc<dyn FileSystem>, dir: &str, options: DbOptions) -> FsResult<Self> {
        fs.mkdir_all(dir)?;
        let wal_path = format!("{dir}/wal");
        let wal = Wal::open(Arc::clone(&fs), &wal_path)?;

        // Recover existing SSTables (files named sst-<id>) in creation order.
        let mut tables = Vec::new();
        let mut next_table_id = 0;
        let mut names: Vec<(u64, String)> = fs
            .readdir(dir)?
            .into_iter()
            .filter_map(|e| {
                e.name
                    .strip_prefix("sst-")
                    .and_then(|id| id.parse::<u64>().ok())
                    .map(|id| (id, format!("{dir}/{}", e.name)))
            })
            .collect();
        names.sort_unstable();
        for (id, path) in names {
            tables.push(SsTable::open(Arc::clone(&fs), &path)?);
            next_table_id = next_table_id.max(id + 1);
        }

        // Replay the WAL into a fresh memtable.
        let mut memtable = Memtable::new();
        for rec in wal.replay()? {
            match rec.value {
                Some(v) => memtable.put(&rec.key, &v),
                None => memtable.delete(&rec.key),
            }
        }

        let stats =
            DbStats { torn_tails_truncated: wal.torn_tails_truncated(), ..DbStats::default() };
        let state = DbState { memtable, wal, tables, next_table_id, writes_since_sync: 0, stats };
        Ok(Self { fs, dir: dir.to_string(), options, state: Mutex::new(state) })
    }

    /// One consistent snapshot for the crash-consistency checker: the WAL
    /// validation result plus the memtable's current contents (see the
    /// [`fskit::check::CrashConsistent`] impl in [`crate::wal`]).
    #[allow(clippy::type_complexity)]
    pub(crate) fn wal_and_memtable_view(
        &self,
    ) -> (FsResult<Result<Vec<WalRecord>, String>>, Vec<(Vec<u8>, Option<Vec<u8>>)>) {
        let st = self.state.lock();
        let wal_check = st.wal.validate();
        let view = st.memtable.range_from(&[]).map(|(k, v)| (k.clone(), v.clone())).collect();
        (wal_check, view)
    }

    /// Operation counters.
    pub fn stats(&self) -> DbStats {
        self.state.lock().stats
    }

    /// Number of on-device SSTables.
    pub fn table_count(&self) -> usize {
        self.state.lock().tables.len()
    }

    /// Inserts or overwrites a key.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn put(&self, key: &[u8], value: &[u8]) -> FsResult<()> {
        self.write(key, Some(value))
    }

    /// Deletes a key.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn delete(&self, key: &[u8]) -> FsResult<()> {
        self.write(key, None)
    }

    fn write(&self, key: &[u8], value: Option<&[u8]>) -> FsResult<()> {
        let mut st = self.state.lock();
        st.wal.append(&WalRecord { key: key.to_vec(), value: value.map(|v| v.to_vec()) })?;
        st.writes_since_sync += 1;
        let should_sync = match self.options.wal_sync {
            WalSync::EveryWrite => true,
            WalSync::Periodic(n) => st.writes_since_sync >= n,
            WalSync::OnFlush => false,
        };
        if should_sync {
            st.wal.sync()?;
            st.writes_since_sync = 0;
        }
        match value {
            Some(v) => st.memtable.put(key, v),
            None => st.memtable.delete(key),
        }
        st.stats.writes += 1;
        if st.memtable.approx_bytes() >= self.options.memtable_bytes {
            self.flush_locked(&mut st)?;
        }
        Ok(())
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn get(&self, key: &[u8]) -> FsResult<Option<Vec<u8>>> {
        let mut st = self.state.lock();
        st.stats.reads += 1;
        if let Some(hit) = st.memtable.get(key) {
            return Ok(hit);
        }
        // Newest table first.
        for table in st.tables.iter().rev() {
            if let Some(found) = table.get(key)? {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Range scan: up to `count` live entries with keys `>= start`, in order.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn scan(&self, start: &[u8], count: usize) -> FsResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut st = self.state.lock();
        st.stats.scans += 1;
        // Merge all sources, newest version wins.
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for table in st.tables.iter() {
            for entry in table.scan_all()? {
                if entry.key.as_slice() >= start {
                    merged.insert(entry.key, entry.value);
                }
            }
        }
        for (k, v) in st.memtable.range_from(start) {
            merged.insert(k.clone(), v.clone());
        }
        Ok(merged.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).take(count).collect())
    }

    /// Forces the memtable to an SSTable (also truncates the WAL).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn flush(&self) -> FsResult<()> {
        let mut st = self.state.lock();
        self.flush_locked(&mut st)
    }

    fn flush_locked(&self, st: &mut DbState) -> FsResult<()> {
        if st.memtable.is_empty() {
            return Ok(());
        }
        st.wal.sync()?;
        let entries = st.memtable.drain_sorted();
        let id = st.next_table_id;
        st.next_table_id += 1;
        let path = format!("{}/sst-{id}", self.dir);
        let table = SsTable::write(Arc::clone(&self.fs), &path, &entries)?;
        st.tables.push(table);
        st.wal.reset()?;
        st.writes_since_sync = 0;
        st.stats.flushes += 1;
        if st.tables.len() > self.options.compaction_threshold {
            self.compact_locked(st)?;
        }
        Ok(())
    }

    fn compact_locked(&self, st: &mut DbState) -> FsResult<()> {
        // Tiered compaction: merge every table into one, newest version wins,
        // dropping tombstones (full merge ⇒ nothing older can resurface).
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for table in st.tables.iter() {
            for entry in table.scan_all()? {
                merged.insert(entry.key, entry.value);
            }
        }
        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        let id = st.next_table_id;
        st.next_table_id += 1;
        let path = format!("{}/sst-{id}", self.dir);
        let new_table = if entries.is_empty() {
            None
        } else {
            Some(SsTable::write(Arc::clone(&self.fs), &path, &entries)?)
        };
        for table in st.tables.drain(..) {
            table.delete()?;
        }
        st.tables.extend(new_table);
        st.stats.compactions += 1;
        Ok(())
    }

    /// Flushes everything and syncs the file system (graceful shutdown).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn close(&self) -> FsResult<()> {
        self.flush()?;
        self.fs.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::Ext4Like;
    use bytefs::{ByteFs, ByteFsConfig};
    use mssd::{DramMode, Mssd, MssdConfig};

    fn bytefs() -> Arc<dyn FileSystem> {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        ByteFs::format(dev, ByteFsConfig::default()).unwrap()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let db = Db::open(bytefs(), "/db", DbOptions::small_test()).unwrap();
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"gamma").unwrap(), None);
        db.delete(b"alpha").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), None);
        db.put(b"beta", b"22").unwrap();
        assert_eq!(db.get(b"beta").unwrap(), Some(b"22".to_vec()));
    }

    #[test]
    fn flush_and_read_from_sstables() {
        let db = Db::open(bytefs(), "/db", DbOptions::small_test()).unwrap();
        for i in 0..200u32 {
            db.put(format!("user{i:04}").as_bytes(), &[i as u8; 100]).unwrap();
        }
        db.flush().unwrap();
        assert!(db.table_count() >= 1);
        assert_eq!(db.get(b"user0150").unwrap(), Some(vec![150u8; 100]));
        assert_eq!(db.get(b"user9999").unwrap(), None);
        assert!(db.stats().flushes >= 1);
    }

    #[test]
    fn compaction_keeps_newest_versions_and_drops_tombstones() {
        let mut opts = DbOptions::small_test();
        opts.memtable_bytes = 2 << 10;
        opts.compaction_threshold = 2;
        let db = Db::open(bytefs(), "/db", opts).unwrap();
        for round in 0..6u32 {
            for i in 0..40u32 {
                db.put(format!("k{i:03}").as_bytes(), format!("v{round}-{i}").as_bytes()).unwrap();
            }
            db.delete(format!("k{:03}", round).as_bytes()).unwrap();
            db.flush().unwrap();
        }
        assert!(db.stats().compactions >= 1);
        assert!(db.table_count() <= 3, "compaction bounds the table count");
        // Newest version wins; deleted keys from the last round stay deleted.
        assert_eq!(db.get(b"k010").unwrap(), Some(b"v5-10".to_vec()));
        assert_eq!(db.get(b"k005").unwrap(), None);
    }

    #[test]
    fn scans_merge_memtable_and_tables() {
        let db = Db::open(bytefs(), "/db", DbOptions::small_test()).unwrap();
        for i in 0..50u32 {
            db.put(format!("key{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        // Newer versions land in the memtable.
        db.put(b"key010", b"fresh").unwrap();
        db.delete(b"key011").unwrap();
        let rows = db.scan(b"key009", 5).unwrap();
        let keys: Vec<String> =
            rows.iter().map(|(k, _)| String::from_utf8_lossy(k).into()).collect();
        assert_eq!(keys, vec!["key009", "key010", "key012", "key013", "key014"]);
        assert_eq!(rows[1].1, b"fresh".to_vec());
    }

    #[test]
    fn reopen_recovers_from_wal_and_sstables() {
        let fs = bytefs();
        {
            let db = Db::open(Arc::clone(&fs), "/db", DbOptions::small_test()).unwrap();
            for i in 0..100u32 {
                db.put(format!("stable{i:03}").as_bytes(), b"on-disk").unwrap();
            }
            db.flush().unwrap();
            // These stay only in the WAL (no flush afterwards).
            db.put(b"wal-only", b"recovered").unwrap();
        }
        let db = Db::open(Arc::clone(&fs), "/db", DbOptions::small_test()).unwrap();
        assert_eq!(db.get(b"stable050").unwrap(), Some(b"on-disk".to_vec()));
        assert_eq!(db.get(b"wal-only").unwrap(), Some(b"recovered".to_vec()));
    }

    #[test]
    fn works_on_a_baseline_file_system_too() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let fs: Arc<dyn FileSystem> = Ext4Like::format(dev);
        let db = Db::open(fs, "/rocks", DbOptions::small_test()).unwrap();
        for i in 0..100u32 {
            db.put(format!("k{i}").as_bytes(), &[7u8; 64]).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.get(b"k42").unwrap(), Some(vec![7u8; 64]));
        assert_eq!(db.stats().writes, 100);
    }

    #[test]
    fn wal_sync_every_write_is_respected() {
        let fs = bytefs();
        let dev = Arc::clone(fs.device());
        let opts = DbOptions { wal_sync: WalSync::EveryWrite, ..DbOptions::small_test() };
        let db = Db::open(fs, "/db", opts).unwrap();
        let before = dev.traffic().tx_commits;
        for i in 0..10u32 {
            db.put(format!("s{i}").as_bytes(), b"x").unwrap();
        }
        let after = dev.traffic().tx_commits;
        assert!(after - before >= 10, "every write forces a durable WAL sync");
    }
}
