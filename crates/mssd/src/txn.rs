//! Firmware-side transaction support: transaction identifiers and the TxLog.
//!
//! ByteFS tags every byte-interface write that belongs to a file-system
//! transaction with a 4-byte transaction ID (TxID). Committing a transaction
//! is a single custom NVMe command `COMMIT(TxID)`; the firmware appends a
//! 4-byte commit record to a small (2 MB) region of device DRAM called the
//! **TxLog** (§4.3, Figure 4). Log cleaning flushes entries in TxLog commit
//! order, and the `RECOVER()` path discards entries whose TxID never made it
//! into the TxLog.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

/// A file-system transaction identifier (4 bytes on the wire, monotonically
/// increasing, assigned by the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxId(pub u32);

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx#{}", self.0)
    }
}

impl From<u32> for TxId {
    fn from(v: u32) -> Self {
        TxId(v)
    }
}

/// Size in bytes of one commit record in the TxLog.
pub const COMMIT_RECORD_BYTES: usize = 4;

/// The firmware transaction log: an append-only list of committed TxIDs kept
/// in (battery-backed) device DRAM.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TxLog {
    capacity_records: usize,
    order: Vec<TxId>,
    committed: HashSet<TxId>,
}

impl TxLog {
    /// Creates a TxLog that can hold `capacity_bytes / 4` commit records.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_records: (capacity_bytes / COMMIT_RECORD_BYTES).max(1),
            order: Vec::new(),
            committed: HashSet::new(),
        }
    }

    /// Number of commit records currently held.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if no transaction has been committed since the last cleaning.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `true` when the TxLog cannot accept another commit record; the caller
    /// must trigger log cleaning before committing more transactions.
    pub fn is_full(&self) -> bool {
        self.order.len() >= self.capacity_records
    }

    /// Appends a commit record. Re-committing an already-committed TxID is a
    /// no-op (idempotent commits simplify host retry logic).
    ///
    /// Returns `false` (and records nothing) when the TxLog is full.
    pub fn commit(&mut self, txid: TxId) -> bool {
        if self.committed.contains(&txid) {
            return true;
        }
        if self.is_full() {
            return false;
        }
        self.order.push(txid);
        self.committed.insert(txid);
        true
    }

    /// Whether a TxID has a commit record.
    pub fn is_committed(&self, txid: TxId) -> bool {
        self.committed.contains(&txid)
    }

    /// Committed TxIDs in commit order (used by log cleaning and recovery to
    /// preserve ordering).
    pub fn commit_order(&self) -> &[TxId] {
        &self.order
    }

    /// Clears the TxLog after log cleaning has durably propagated all
    /// committed updates to flash.
    pub fn clear(&mut self) {
        self.order.clear();
        self.committed.clear();
    }

    /// Bytes of device DRAM occupied by the current commit records.
    pub fn used_bytes(&self) -> usize {
        self.order.len() * COMMIT_RECORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_query() {
        let mut log = TxLog::new(1024);
        assert!(log.is_empty());
        assert!(log.commit(TxId(1)));
        assert!(log.commit(TxId(7)));
        assert!(log.is_committed(TxId(1)));
        assert!(!log.is_committed(TxId(2)));
        assert_eq!(log.commit_order(), &[TxId(1), TxId(7)]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.used_bytes(), 8);
    }

    #[test]
    fn commit_is_idempotent() {
        let mut log = TxLog::new(1024);
        assert!(log.commit(TxId(5)));
        assert!(log.commit(TxId(5)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut log = TxLog::new(8); // room for 2 records
        assert!(log.commit(TxId(1)));
        assert!(log.commit(TxId(2)));
        assert!(log.is_full());
        assert!(!log.commit(TxId(3)));
        assert!(!log.is_committed(TxId(3)));
        log.clear();
        assert!(log.commit(TxId(3)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut log = TxLog::new(1024);
        log.commit(TxId(1));
        log.clear();
        assert!(log.is_empty());
        assert!(!log.is_committed(TxId(1)));
        assert_eq!(log.used_bytes(), 0);
    }
}
