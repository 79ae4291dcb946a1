//! The device's durability contract as one executable spec.
//!
//! [`DurabilitySpec`] says what each unit the host wrote may read back after
//! a power cut and `RECOVER()`. A unit is a 64-byte line of the byte
//! interface or a logical page of the block interface, keyed by absolute
//! address. The rules:
//!
//! 1. a plain byte write is durable when it completes;
//! 2. a TxID-tagged byte write is durable at its `COMMIT`, and `RECOVER()`
//!    discards it otherwise. Where chunks overlap, the newer write wins the
//!    merge, whatever order the commits came in;
//! 3. a block write is durable when it completes
//!    ([`COMPLETED_BLOCK_WRITE_SURVIVES_CUT`]);
//! 4. a command that was never submitted has no effect;
//! 5. the command a power cut lands inside ends old or new in each unit,
//!    never torn.
//!
//! The host writes every unit whole with one byte value, its *tag*, so a
//! read is judged by one byte and a torn unit shows as mixed bytes. A page
//! carries byte traffic or block traffic, never both, and a TxID is not
//! written after its `COMMIT`. Each unit holds the set of tags it may read
//! back: a write that surely landed narrows the set to its tag, and one that
//! may not have landed adds its tag. crashkit's device scenarios record
//! every command here with what the host learned of it;
//! `tests/durability_spec.rs` holds the device itself to the spec.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::device::Mssd;
use crate::queue::Command;
use crate::stats::Category;
use crate::txn::TxId;
use crate::CACHELINE;

/// Rule 3: a completed block write survives a cut, flushed or not, because
/// the FTL write buffer is battery-backed. The one place that changes when
/// FLUSH becomes the persistence point.
pub const COMPLETED_BLOCK_WRITE_SURVIVES_CUT: bool = true;

/// What the host learned of one recorded command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Its completion was produced, polled or not.
    Done,
    /// It may or may not have executed: an aborted attempt, a spent retry
    /// budget.
    InDoubt,
    /// The power cut landed inside it.
    CutInside,
    /// It never reached the firmware.
    Never,
}

/// One unit of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// The 64-byte line at byte address `64 × n`.
    Line(u64),
    /// Logical page `n`.
    Page(u64),
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unit::Line(n) => write!(f, "line {n}"),
            Unit::Page(n) => write!(f, "page {n}"),
        }
    }
}

/// The tags one unit may read back.
#[derive(Debug, Clone)]
struct Admissible {
    /// Sequence number of the newest write that surely landed; an older
    /// write loses the merge to it.
    floor: u64,
    /// Candidate tags by the sequence number of their write; 0 is the
    /// never-written unit.
    tags: BTreeMap<u64, u8>,
}

impl Default for Admissible {
    fn default() -> Self {
        Self { floor: 0, tags: BTreeMap::from([(0, 0)]) }
    }
}

/// The durability contract of one device, fed the commands a host issued.
#[derive(Debug, Clone)]
pub struct DurabilitySpec {
    page_size: usize,
    /// Media faults may lose acknowledged data: every write only adds its
    /// tag, 0 stays admitted, and a transient read error is a reported loss.
    lossy: bool,
    seq: u64,
    units: BTreeMap<Unit, Admissible>,
    /// Uncommitted chunks per TxID: line, sequence number, tag, and whether
    /// the write surely landed.
    pending: BTreeMap<TxId, Vec<(u64, u64, u8, bool)>>,
}

impl DurabilitySpec {
    /// The exact contract for a device of `page_size`-byte pages.
    pub fn new(page_size: usize) -> Self {
        Self { page_size, lossy: false, seq: 0, units: BTreeMap::new(), pending: BTreeMap::new() }
    }

    /// The contract under media faults, which may lose acknowledged data.
    pub fn lossy(page_size: usize) -> Self {
        Self { lossy: true, ..Self::new(page_size) }
    }

    /// Records `cmd` with what the host learned of it. Reads and FLUSH
    /// change nothing.
    pub fn record(&mut self, cmd: &Command, outcome: Outcome) {
        let landed = match outcome {
            Outcome::Never => return,
            // TRIM takes no fault step, so a cut that consumed one came
            // before it.
            Outcome::CutInside if matches!(cmd, Command::Trim { .. }) => return,
            Outcome::Done => true,
            Outcome::InDoubt | Outcome::CutInside => false,
        };
        match cmd {
            Command::ByteWrite { addr, data, txid, .. } => {
                assert!(addr % CACHELINE as u64 == 0 && data.len() % CACHELINE == 0);
                for (i, line) in data.chunks(CACHELINE).enumerate() {
                    let (n, seq) = (addr / CACHELINE as u64 + i as u64, self.next_seq());
                    match txid {
                        Some(tx) => {
                            self.pending.entry(*tx).or_default().push((n, seq, line[0], landed))
                        }
                        None => self.write(Unit::Line(n), seq, line[0], landed),
                    }
                }
            }
            Command::Commit { txid } => {
                let chunks = self.pending.remove(txid).unwrap_or_default();
                let before: Vec<(Unit, Admissible)> = chunks
                    .iter()
                    .map(|&(n, ..)| Unit::Line(n))
                    .map(|unit| (unit, self.units.get(&unit).cloned().unwrap_or_default()))
                    .collect();
                for (n, seq, tag, chunk_landed) in chunks {
                    self.write(Unit::Line(n), seq, tag, chunk_landed);
                }
                if !landed {
                    // The record is in the TxLog or not: every line ends as
                    // before the COMMIT or as after it.
                    for (unit, old) in before {
                        let a = self.units.get_mut(&unit).expect("written above");
                        a.floor = old.floor;
                        a.tags.extend(old.tags);
                    }
                }
            }
            Command::BlockWrite { lba, data, .. } => {
                let landed = landed && COMPLETED_BLOCK_WRITE_SURVIVES_CUT;
                for (i, page) in data.chunks(self.page_size).enumerate() {
                    let seq = self.next_seq();
                    self.write(Unit::Page(lba + i as u64), seq, page[0], landed);
                }
            }
            Command::Trim { lba, count } => {
                for n in *lba..lba + *count as u64 {
                    let seq = self.next_seq();
                    self.write(Unit::Page(n), seq, 0, landed);
                }
            }
            Command::ByteRead { .. } | Command::BlockRead { .. } | Command::Flush => {}
        }
    }

    /// `RECOVER()` ran: every uncommitted chunk is gone.
    pub fn recover(&mut self) {
        self.pending.clear();
    }

    /// The tags `unit` may read back.
    pub fn admits(&self, unit: Unit) -> BTreeSet<u8> {
        self.units.get(&unit).cloned().unwrap_or_default().tags.into_values().collect()
    }

    /// Reads `unit` from `dev` and says what is wrong with it, if anything.
    pub fn check(&self, dev: &Mssd, unit: Unit) -> Option<String> {
        let read = match unit {
            Unit::Line(n) => dev.try_byte_read(n * CACHELINE as u64, CACHELINE, Category::Data),
            Unit::Page(n) => dev.try_block_read(n, 1, Category::Data),
        };
        let got = match read {
            Ok(got) => got,
            Err(e) if self.lossy && e.is_transient() => return None,
            Err(e) => return Some(format!("{unit}: read error: {e}")),
        };
        let (tag, admits) = (got[0], self.admits(unit));
        if got.iter().any(|b| *b != tag) {
            Some(format!("{unit}: torn (mixes byte values)"))
        } else if !admits.contains(&tag) {
            Some(format!("{unit}: read tag {tag}, admissible {admits:?}"))
        } else {
            None
        }
    }

    /// Checks every unit ever written, lines first, in address order.
    pub fn verify(&self, dev: &Mssd) -> Vec<String> {
        self.units.keys().filter_map(|&unit| self.check(dev, unit)).collect()
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn write(&mut self, unit: Unit, seq: u64, tag: u8, landed: bool) {
        let a = self.units.entry(unit).or_default();
        if seq < a.floor {
            return; // a newer write surely landed: this one lost the merge
        }
        if landed && !self.lossy {
            a.tags.retain(|&s, _| s > seq);
            a.floor = seq;
        }
        a.tags.insert(seq, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn byte(line: u64, tag: u8, txid: Option<TxId>) -> Command {
        Command::ByteWrite { addr: line * 64, data: vec![tag; 64], txid, cat: Category::Data }
    }

    fn admits(spec: &DurabilitySpec, line: u64) -> Vec<u8> {
        spec.admits(Unit::Line(line)).into_iter().collect()
    }

    #[test]
    fn two_in_doubt_writes_admit_the_old_value_and_both_tags() {
        let mut spec = DurabilitySpec::new(4096);
        spec.record(&byte(3, 7, None), Outcome::Done);
        spec.record(&byte(3, 8, None), Outcome::InDoubt);
        spec.record(&byte(3, 9, None), Outcome::InDoubt);
        assert_eq!(admits(&spec, 3), [7, 8, 9]);
        spec.record(&byte(3, 10, None), Outcome::Done);
        assert_eq!(admits(&spec, 3), [10]);
    }

    #[test]
    fn the_newer_write_wins_whatever_order_the_commits_came_in() {
        let mut spec = DurabilitySpec::new(4096);
        spec.record(&byte(1, 5, Some(TxId(1))), Outcome::Done);
        spec.record(&byte(1, 6, Some(TxId(2))), Outcome::Done);
        spec.record(&Command::Commit { txid: TxId(2) }, Outcome::Done);
        spec.record(&Command::Commit { txid: TxId(1) }, Outcome::Done);
        assert_eq!(admits(&spec, 1), [6]);
        // A plain write after a pending chunk overrides it at its commit.
        spec.record(&byte(2, 5, Some(TxId(3))), Outcome::Done);
        spec.record(&byte(2, 6, None), Outcome::Done);
        spec.record(&Command::Commit { txid: TxId(3) }, Outcome::Done);
        assert_eq!(admits(&spec, 2), [6]);
    }

    #[test]
    fn an_in_doubt_commit_lands_whole_or_not_at_all() {
        let mut spec = DurabilitySpec::new(4096);
        spec.record(&byte(1, 5, Some(TxId(1))), Outcome::Done);
        spec.record(&byte(1, 6, Some(TxId(1))), Outcome::Done);
        spec.record(&Command::Commit { txid: TxId(1) }, Outcome::CutInside);
        assert_eq!(admits(&spec, 1), [0, 6]);
        // Uncommitted at RECOVER(): the old value stands.
        spec.record(&byte(2, 5, Some(TxId(2))), Outcome::Done);
        spec.recover();
        spec.record(&Command::Commit { txid: TxId(2) }, Outcome::Done);
        assert_eq!(admits(&spec, 2), [0]);
    }

    #[test]
    fn a_cut_trim_never_ran_and_a_lossy_unit_keeps_every_tag() {
        let mut spec = DurabilitySpec::new(4096);
        let block = Command::BlockWrite { lba: 9, data: vec![4; 4096], cat: Category::Data };
        spec.record(&block, Outcome::Done);
        spec.record(&Command::Trim { lba: 9, count: 1 }, Outcome::CutInside);
        assert_eq!(spec.admits(Unit::Page(9)), BTreeSet::from([4]));
        spec.record(&Command::Trim { lba: 9, count: 1 }, Outcome::InDoubt);
        assert_eq!(spec.admits(Unit::Page(9)), BTreeSet::from([0, 4]));
        let mut lossy = DurabilitySpec::lossy(4096);
        lossy.record(&byte(1, 5, None), Outcome::Done);
        lossy.record(&byte(1, 6, None), Outcome::Done);
        assert_eq!(admits(&lossy, 1), [0, 5, 6]);
    }
}
