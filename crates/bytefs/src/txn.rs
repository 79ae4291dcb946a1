//! Host-side transaction management.
//!
//! A ByteFS file-system operation that touches multiple metadata structures
//! (e.g. `create` updates the parent directory, the inode bitmap, the new
//! inode and the parent inode) is wrapped in a transaction: every byte write
//! carries the transaction's TxID, and a single `COMMIT(TxID)` command makes
//! the whole group durable and atomic (§4.3, §4.7). The firmware TxLog alone
//! decides what is durable and what `RECOVER()` keeps, so the host needs only
//! a fresh TxID per transaction ([`TxIds`]); ordering between conflicting
//! transactions is provided by the file-system locks (the namespace lock for
//! metadata operations, per-inode locks for the data path — see the
//! crate-level "Concurrency model" docs).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use mssd::{Category, FlashError, InFlight, Mssd, TxId};

/// The host's TxID source: a global counter (§4.3) that threads draw from
/// with one atomic fetch-add. TxID 0 is reserved as "no transaction".
#[derive(Debug)]
pub struct TxIds {
    next: AtomicU32,
}

impl Default for TxIds {
    fn default() -> Self {
        Self::new()
    }
}

impl TxIds {
    /// Creates a counter whose first TxID is 1.
    pub fn new() -> Self {
        Self { next: AtomicU32::new(1) }
    }

    /// Starts a new transaction and returns its TxID.
    pub fn begin(&self) -> TxId {
        loop {
            let raw = self.next.fetch_add(1, Ordering::Relaxed);
            if raw != 0 {
                return TxId(raw);
            }
            // u32 wrap-around landed on the reserved id; draw again.
        }
    }
}

/// A single in-flight transaction: a thin wrapper that tags byte writes with
/// the TxID, remembers the block writes submitted on its behalf and issues
/// the commit sequence — `COMMIT` submitted behind the data, whose completion
/// is the persistence barrier, and one wait.
#[derive(Debug)]
pub struct Txn {
    device: Arc<Mssd>,
    txid: Option<TxId>,
    writes: usize,
    bytes: usize,
    /// The last completion among the data block writes submitted under this
    /// transaction and not waited for yet.
    data: InFlight,
}

impl Txn {
    /// Starts a transaction. When `txid` is `None` (firmware transactions
    /// disabled) writes are plain byte writes and commit is a persistence
    /// barrier and the wait for the data.
    pub fn new(device: Arc<Mssd>, txid: Option<TxId>) -> Self {
        Self { device, txid, writes: 0, bytes: 0, data: InFlight::default() }
    }

    /// The transaction ID, if firmware transactions are enabled.
    pub fn txid(&self) -> Option<TxId> {
        self.txid
    }

    /// Number of byte writes issued under this transaction.
    pub fn writes(&self) -> usize {
        self.writes
    }

    /// Total bytes written under this transaction.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Issues a byte-interface write tagged with this transaction's TxID.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::ReadOnly`] when the device has degraded to
    /// read-only, or another media error surfaced by the write path.
    pub fn write(&mut self, addr: u64, data: &[u8], cat: Category) -> Result<(), FlashError> {
        self.device.try_byte_write(addr, data, self.txid, cat)?;
        self.writes += 1;
        self.bytes += data.len();
        Ok(())
    }

    /// Orders the commit after data block writes the caller submitted
    /// ([`Mssd::submit_block_write_pages`]): the transaction's metadata
    /// stores go out while they are in flight, and [`Txn::commit`] queues the
    /// commit record behind them.
    pub fn after(&mut self, data: InFlight) {
        self.data = self.data.max(data);
    }

    /// Commits the transaction: when firmware transactions are enabled,
    /// submit `COMMIT(TxID)` behind every data write handed to
    /// [`Txn::after`] ([`Mssd::submit_commit`]: the device never applies the
    /// record before the data it describes is complete), and wait once — for
    /// the record, or for the data alone when there is none.
    ///
    /// The record's completion is the persistence barrier: its doorbell
    /// cannot pass the stores ahead of it, so once it completes they are in
    /// device DRAM. The write-verify read ([`Mssd::persist_barrier`]) is
    /// issued only when no record follows the stores, or when the
    /// interconnect does not order them with it
    /// ([`mssd::MssdConfig::stores_ordered_with_commands`]).
    pub fn commit(mut self) -> Option<TxId> {
        let record_orders_stores =
            self.txid.is_some() && self.device.config().stores_ordered_with_commands();
        if self.writes > 0 && !record_orders_stores {
            self.device.persist_barrier();
        }
        let data = std::mem::take(&mut self.data);
        let last = match self.txid {
            Some(txid) => self.device.submit_commit(txid, data),
            None => data,
        };
        self.device.wait(last);
        self.txid
    }
}

impl Drop for Txn {
    /// A transaction abandoned on an error path still pays for the data it
    /// put in flight.
    fn drop(&mut self) {
        self.device.wait(self.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssd::{DramMode, MssdConfig, TimingProfile};

    #[test]
    fn shared_txtable_is_concurrent() {
        let t = Arc::new(TxIds::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || (0..200).map(|_| t.begin()).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u32> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).map(|id| id.0).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "every thread got unique TxIDs");
        assert!(!all.contains(&0), "TxID 0 stays reserved");
    }

    #[test]
    fn txids_skip_the_reserved_zero_on_wrap() {
        let t = TxIds { next: AtomicU32::new(u32::MAX) };
        assert_eq!(t.begin(), TxId(u32::MAX));
        assert_eq!(t.begin(), TxId(1));
    }

    #[test]
    fn txn_tags_writes_and_commits() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let txid = TxIds::new().begin();
        let mut txn = Txn::new(Arc::clone(&dev), Some(txid));
        txn.write(4096, &[1u8; 64], Category::Inode).unwrap();
        txn.write(8192, &[2u8; 64], Category::Bitmap).unwrap();
        assert_eq!(txn.writes(), 2);
        assert_eq!(txn.bytes(), 128);
        assert_eq!(txn.commit(), Some(txid));
        assert!(dev.is_committed(txid));
        assert_eq!(dev.traffic().tx_commits, 1);
    }

    #[test]
    fn txn_without_firmware_transactions_only_barriers() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::PageCache);
        let mut txn = Txn::new(Arc::clone(&dev), None);
        txn.write(0, &[5u8; 64], Category::Dentry).unwrap();
        assert!(txn.commit().is_none());
        assert_eq!(dev.traffic().tx_commits, 0);
        // The data is still durable in device DRAM.
        assert_eq!(dev.try_byte_read(0, 64, Category::Dentry).unwrap(), vec![5u8; 64]);
    }

    #[test]
    fn the_commit_record_is_the_barrier_unless_the_stores_can_pass_it() {
        // On `small_test()` a COMMIT is 8 000 ns of overhead, a write-verify
        // read 4 800 ns; under CXL the read is 175 ns.
        let small = MssdConfig::small_test();
        let profile = TimingProfile::HighEndCxl;
        let (byte_read_ns, byte_write_ns) = profile.byte_latency_ns();
        let cxl = MssdConfig { profile, byte_read_ns, byte_write_ns, ..small.clone() };
        // (what, device, TxID, what the commit adds to the stores)
        let cases = [
            ("full ByteFS", small.clone(), DramMode::WriteLog, Some(TxId(1)), 8_000),
            ("ByteFS-Dual", small, DramMode::PageCache, None, 4_800),
            ("CXL", cxl, DramMode::WriteLog, Some(TxId(1)), 175 + 8_000),
        ];
        for (what, cfg, mode, txid, commit_ns) in cases {
            let dev = Mssd::new(cfg, mode);
            let mut txn = Txn::new(Arc::clone(&dev), txid);
            txn.write(4096, &[1u8; 64], Category::Inode).unwrap();
            txn.write(8192, &[2u8; 64], Category::Bitmap).unwrap();
            let stores_done = dev.clock().now_ns();
            txn.commit();
            assert_eq!(dev.clock().now_ns() - stores_done, commit_ns, "{what}");
        }
    }

    #[test]
    fn empty_txn_commit_skips_the_barrier() {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let before = dev.clock().now_ns();
        let txn = Txn::new(Arc::clone(&dev), None);
        txn.commit();
        assert_eq!(dev.clock().now_ns(), before);
    }
}
