//! A JBD2-style block journal.
//!
//! Ext4's ordered mode writes every updated metadata block twice: once into a
//! reserved on-disk journal area (descriptor block + data blocks + commit
//! block) and once in place when the transaction checkpoints. This "double
//! write" is exactly the journaling amplification the paper's Figure 1 and
//! Table 2 attribute to Ext4, so the Ext4-like baseline and the ByteFS data
//! journaling mode (§4.6) both use this module.
//!
//! The journal area is a contiguous range of device blocks used as a circular
//! log. Block contents are written through the block interface and tagged
//! [`Category::Journal`]; checkpoint writes carry the caller's category.

use std::sync::Arc;

use mssd::{Category, Mssd};

use crate::blockrun::BlockWriteBatch;
use crate::error::{FsError, FsResult};

/// One block update participating in a journaled transaction.
#[derive(Debug, Clone)]
pub struct JournaledBlock {
    /// Destination logical block address of the final (checkpoint) write.
    pub lba: u64,
    /// Full block contents.
    pub data: Vec<u8>,
    /// Traffic category of the destination block (e.g. `Inode`, `Bitmap`).
    pub category: Category,
}

/// Statistics the journal keeps about its own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Number of committed transactions.
    pub transactions: u64,
    /// Number of data blocks journaled (excludes descriptor/commit blocks).
    pub journaled_blocks: u64,
    /// Number of checkpoint (in-place) block writes.
    pub checkpointed_blocks: u64,
}

/// A circular block journal over a reserved device region.
#[derive(Debug)]
pub struct BlockJournal {
    device: Arc<Mssd>,
    start: u64,
    nblocks: u64,
    head: u64,
    stats: JournalStats,
}

impl BlockJournal {
    /// Creates a journal over `[start, start + nblocks)`.
    ///
    /// # Panics
    ///
    /// Panics if `nblocks < 4` (a transaction needs at least descriptor +
    /// one data block + commit) or the region exceeds the device capacity.
    pub fn new(device: Arc<Mssd>, start: u64, nblocks: u64) -> Self {
        assert!(nblocks >= 4, "journal area too small");
        assert!(start + nblocks <= device.logical_pages(), "journal area beyond device capacity");
        Self { device, start, nblocks, head: 0, stats: JournalStats::default() }
    }

    /// Number of blocks reserved for the journal.
    pub fn capacity_blocks(&self) -> u64 {
        self.nblocks
    }

    /// Journal activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    fn next_journal_lba(&mut self) -> u64 {
        let lba = self.start + self.head;
        self.head = (self.head + 1) % self.nblocks;
        lba
    }

    /// Commits a transaction: journal write (descriptor + data in flight
    /// together, then the commit block), device flush, then in-place
    /// checkpoint writes.
    ///
    /// `checkpoint_now` controls whether the in-place writes are issued
    /// immediately (data journaling) or left to the caller (ordered mode
    /// checkpoints lazily; the caller then uses [`BlockJournal::checkpoint`]).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::InvalidArgument`] when a block's data length does
    /// not match the device page size, or when the transaction is larger than
    /// the journal area. Returns [`FsError::Io`] when the device reports a
    /// media error (e.g. it degraded to read-only after exhausting spares).
    pub fn commit(&mut self, updates: &[JournaledBlock], checkpoint_now: bool) -> FsResult<()> {
        if updates.is_empty() {
            return Ok(());
        }
        let page_size = self.device.page_size();
        if updates.len() as u64 + 2 > self.nblocks {
            return Err(FsError::InvalidArgument(format!(
                "transaction of {} blocks exceeds journal capacity {}",
                updates.len(),
                self.nblocks
            )));
        }
        for u in updates {
            if u.data.len() != page_size {
                return Err(FsError::InvalidArgument(format!(
                    "journaled block must be exactly {page_size} bytes, got {}",
                    u.data.len()
                )));
            }
        }

        // Descriptor block (the list of destination LBAs; content modelled as
        // a zero-filled page, only the traffic matters) and the journal
        // copies of the data blocks, submitted together as jbd2 does: the
        // area is consecutive, so they share commands up to the run bound
        // and split where the circular log wraps.
        let zeros = vec![0u8; page_size];
        let mut batch = BlockWriteBatch::default();
        batch.push(self.next_journal_lba(), &zeros);
        for u in updates {
            batch.push(self.next_journal_lba(), &u.data);
        }
        batch.flush(&self.device, Category::Journal)?;
        self.stats.journaled_blocks += updates.len() as u64;

        // Commit block — only once descriptor and copies are complete — then
        // force everything to flash so the transaction is durable before any
        // in-place write happens.
        let commit_lba = self.next_journal_lba();
        self.device.try_block_write(commit_lba, &zeros, Category::Journal)?;
        self.device.try_flush()?;
        self.stats.transactions += 1;

        if checkpoint_now {
            self.checkpoint(updates)?;
        }
        Ok(())
    }

    /// Writes the blocks of a committed transaction in place.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Io`] when the device refuses a write (read-only
    /// degradation) or reports a media error.
    pub fn checkpoint(&mut self, updates: &[JournaledBlock]) -> FsResult<()> {
        for u in updates {
            self.device.try_block_write(u.lba, &u.data, u.category)?;
            self.stats.checkpointed_blocks += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssd::{DramMode, MssdConfig};

    fn setup() -> (Arc<Mssd>, BlockJournal) {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let journal = BlockJournal::new(Arc::clone(&dev), 16, 64);
        (dev, journal)
    }

    fn block(tag: u8, dev: &Mssd) -> Vec<u8> {
        vec![tag; dev.page_size()]
    }

    #[test]
    fn commit_writes_journal_and_checkpoint() {
        let (dev, mut journal) = setup();
        let updates = vec![
            JournaledBlock { lba: 100, data: block(1, &dev), category: Category::Inode },
            JournaledBlock { lba: 101, data: block(2, &dev), category: Category::Bitmap },
        ];
        journal.commit(&updates, true).unwrap();

        // Journal traffic: descriptor + 2 data + commit = 4 blocks.
        let t = dev.traffic();
        let journal_bytes =
            t.host_bytes_by_category(mssd::stats::Direction::Write, Category::Journal);
        assert_eq!(journal_bytes, 4 * dev.page_size() as u64);
        // Checkpoint traffic for the destination categories.
        assert_eq!(
            t.host_bytes_by_category(mssd::stats::Direction::Write, Category::Inode),
            dev.page_size() as u64
        );
        // Destination blocks contain the data.
        assert_eq!(dev.try_block_read(100, 1, Category::Inode).unwrap(), block(1, &dev));
        assert_eq!(dev.try_block_read(101, 1, Category::Bitmap).unwrap(), block(2, &dev));

        let s = journal.stats();
        assert_eq!(s.transactions, 1);
        assert_eq!(s.journaled_blocks, 2);
        assert_eq!(s.checkpointed_blocks, 2);
    }

    #[test]
    fn ordered_mode_defers_checkpoint() {
        let (dev, mut journal) = setup();
        let updates =
            vec![JournaledBlock { lba: 200, data: block(7, &dev), category: Category::Inode }];
        journal.commit(&updates, false).unwrap();
        assert_eq!(journal.stats().checkpointed_blocks, 0);
        // Destination untouched until checkpoint.
        assert_eq!(
            dev.try_block_read(200, 1, Category::Inode).unwrap(),
            vec![0u8; dev.page_size()]
        );
        journal.checkpoint(&updates).unwrap();
        assert_eq!(dev.try_block_read(200, 1, Category::Inode).unwrap(), block(7, &dev));
    }

    #[test]
    fn wraps_around_the_journal_area() {
        let (dev, mut journal) = setup();
        let cap = journal.capacity_blocks();
        // Each commit consumes 3 journal blocks (descriptor + 1 data + commit).
        for i in 0..cap {
            let updates = vec![JournaledBlock {
                lba: 300,
                data: block(i as u8, &dev),
                category: Category::Data,
            }];
            journal.commit(&updates, true).unwrap();
        }
        assert_eq!(journal.stats().transactions, cap);
    }

    #[test]
    fn rejects_oversized_transactions_and_bad_blocks() {
        let (dev, mut journal) = setup();
        let too_many: Vec<JournaledBlock> = (0..journal.capacity_blocks())
            .map(|i| JournaledBlock {
                lba: 400 + i,
                data: block(0, &dev),
                category: Category::Data,
            })
            .collect();
        assert!(matches!(journal.commit(&too_many, true), Err(FsError::InvalidArgument(_))));

        let bad = vec![JournaledBlock { lba: 5, data: vec![0u8; 100], category: Category::Data }];
        assert!(matches!(journal.commit(&bad, true), Err(FsError::InvalidArgument(_))));
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let (dev, mut journal) = setup();
        journal.commit(&[], true).unwrap();
        assert_eq!(journal.stats().transactions, 0);
        assert_eq!(dev.traffic().host_write_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "journal area too small")]
    fn tiny_journal_rejected() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let _ = BlockJournal::new(dev, 0, 2);
    }
}
