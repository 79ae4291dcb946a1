//! Built-in crash scenarios: deterministic seeded workloads paired with the
//! oracles that verify their durability contract after a power cycle.
//!
//! A [`Scenario`] owns the workload shape (which layer it drives, which ops
//! it mixes); the seed owns the concrete op stream. Scenarios must be
//! deterministic: the same seed issues the same ops against a fresh device,
//! so the enumeration driver can first count the durability steps and then
//! replay the exact run with power cut at any chosen step. Every scenario
//! polls [`Mssd::fault_tripped`] at op boundaries and stops once the cut
//! fired; the op during which the cut landed is recorded as *in doubt* — its
//! effects may be wholly, partially or not at all durable, and the oracle
//! accepts any of those outcomes while every completed op is checked
//! exactly.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use baselines::{Ext4Like, NovaLike};
use bytefs::{ByteFs, ByteFsConfig};
use fskit::check::{CrashConsistent, Violation};
use fskit::{Fd, FileSystem, FileSystemExt, OpenFlags};
use kvstore::{Db, DbOptions, WalSync};
use mssd::{
    Category, DramMode, HangFaultConfig, HangFaultPlan, MediaFaultConfig, MediaFaultPlan, Mssd,
    MssdConfig, TxId,
};

use workloads::{record_corpus, CorpusKind, FsKind, OpTrace, Scale};

use crate::Rng;

/// A deterministic crash workload plus the knowledge to verify it.
pub trait Scenario {
    /// Base device configuration for this scenario. The driver installs the
    /// fault plan and may override `background_cleaning` on top.
    fn device_config(&self) -> MssdConfig;

    /// Firmware mode the scenario's stack needs.
    fn dram_mode(&self) -> DramMode {
        DramMode::WriteLog
    }

    /// Drives the stack on a fresh device. Must be a pure function of
    /// `seed`; must poll [`Mssd::fault_tripped`] at op boundaries and stop
    /// once it fires. Returns the oracle of expected durable state.
    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle>;
}

/// Expected durable state captured by a [`Scenario::run`]; verified against
/// the restored-and-recovered device.
pub trait Oracle {
    /// Runs recovery-side checks on the restored device (power back on).
    /// Returns every violation found; empty means the crash point is clean.
    fn verify(&self, dev: &Arc<Mssd>) -> Vec<Violation>;
}

/// What a completed (or in-doubt) write lets the oracle demand afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// The exact tag must be durable.
    Exactly(u8),
    /// The cut landed inside the producing op: either the old or the new
    /// tag is acceptable.
    Either(u8, u8),
}

impl Expect {
    fn admits(self, got: u8) -> bool {
        match self {
            Expect::Exactly(t) => got == t,
            Expect::Either(a, b) => got == a || got == b,
        }
    }
}

// ---------------------------------------------------------------------------
// Device-level mixed-op stress
// ---------------------------------------------------------------------------

/// The mixed-op device stress workload: single-threaded, seeded mix of
/// non-transactional byte writes, transactional byte writes with batched
/// commits, page-boundary-crossing byte writes, multi-page block writes,
/// TRIMs, explicit region seals and NVMe flushes — the workload the
/// acceptance sweep enumerates. Byte traffic lives in cacheline slots of
/// partition 0; block traffic in whole pages of partition 1, so the two
/// oracles never alias.
#[derive(Debug, Clone)]
pub struct DeviceStress {
    /// Number of ops in the stream.
    pub ops: usize,
}

/// 64-byte byte-interface slots the stress cycles through.
const SLOTS: u64 = 96;
/// Whole pages of block-interface traffic (offset into partition 1).
const BLOCK_PAGES: u64 = 12;
/// First logical page of the block region (16 MB / 4 KB = partition 1).
const BLOCK_BASE: u64 = 4096;

impl DeviceStress {
    /// A stream sized so the crash-point space comfortably exceeds the
    /// 200-point acceptance floor while a full exhaustive sweep stays fast.
    pub fn quick() -> Self {
        Self { ops: 220 }
    }
}

impl Scenario for DeviceStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        // Two 16 MB partitions: byte slots in the first, block pages in the
        // second.
        cfg.capacity_bytes = 32 << 20;
        // A log region small enough that the stream fills it repeatedly,
        // with the cleaning threshold pushed out of the way so space
        // admission actually fails: that drives the foreground seal +
        // sealed-region drain path, whose SealDrain migrations are crash
        // points of their own.
        cfg.dram_region_bytes = 8 << 10;
        cfg.log_clean_threshold = 0.999;
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        let mut rng = Rng::new(seed);
        let mut o = DeviceOracle::default();
        // Transactional batch in flight: (slot, tag) pairs awaiting commit.
        let mut pending: Vec<(u64, u8)> = Vec::new();
        let mut tx = TxId(1);
        for _ in 0..self.ops {
            let roll = rng.below(100);
            // Units touched by this op, with their new tags — used to mark
            // the op in-doubt if the cut lands inside it.
            let mut touched_lines: Vec<(u64, u8)> = Vec::new();
            let mut touched_pages: Vec<(u64, u8)> = Vec::new();
            let mut committing = false;
            match roll {
                // Non-transactional single-cacheline write.
                0..=39 => {
                    let slot = rng.below(SLOTS);
                    let tag = 1 + (rng.below(250)) as u8;
                    dev.try_byte_write(slot * 64, &[tag; 64], None, Category::Data)
                        .expect("no media fault planned");
                    touched_lines.push((slot, tag));
                }
                // Transactional write; every 4th op of this kind commits.
                40..=59 => {
                    let slot = rng.below(SLOTS);
                    let tag = 1 + (rng.below(250)) as u8;
                    dev.try_byte_write(slot * 64, &[tag; 64], Some(tx), Category::Inode)
                        .expect("no media fault planned");
                    pending.push((slot, tag));
                    if pending.len() >= 4 {
                        committing = true;
                        dev.commit(tx);
                    }
                }
                // Byte write crossing a page boundary: two chunks, torn
                // independently.
                60..=69 => {
                    // Slots come in pairs (2k, 2k+1) at a page boundary:
                    // slot addresses are page-relative lines, so pick a pair
                    // whose first line ends a page (line 63 of some page).
                    let page = 1 + rng.below(SLOTS / 64);
                    let tag = 1 + (rng.below(250)) as u8;
                    let addr = page * 4096 - 64;
                    dev.try_byte_write(addr, &[tag; 128], None, Category::Data)
                        .expect("no media fault planned");
                    touched_lines.push((page * 64 - 1, tag));
                    touched_lines.push((page * 64, tag));
                }
                // Multi-page block write (1-3 pages), torn per page.
                70..=84 => {
                    let start = rng.below(BLOCK_PAGES - 2);
                    let count = 1 + rng.below(3);
                    let tag = 1 + (rng.below(250)) as u8;
                    dev.try_block_write(
                        BLOCK_BASE + start,
                        &vec![tag; (count * 4096) as usize],
                        Category::Data,
                    )
                    .expect("no media fault planned");
                    for p in start..start + count {
                        touched_pages.push((p, tag));
                    }
                }
                // TRIM one block page (atomic: counts no step).
                85..=89 => {
                    let p = rng.below(BLOCK_PAGES);
                    dev.trim(BLOCK_BASE + p, 1);
                    touched_pages.push((p, 0));
                }
                // Seal every shard's active log region.
                90..=94 => dev.seal_log_regions(),
                // NVMe FLUSH.
                _ => dev.try_flush().expect("no media fault planned"),
            }
            if dev.fault_tripped() {
                // The cut landed inside this op: everything it touched is in
                // doubt, and any uncommitted transactional writes die with
                // the TxLog record they never got.
                for (slot, tag) in touched_lines {
                    let old = o.line_tag(slot);
                    o.lines.insert(slot, Expect::Either(old, tag));
                }
                for (page, tag) in touched_pages {
                    let old = o.page_tag(page);
                    o.pages.insert(page, Expect::Either(old, tag));
                }
                if committing {
                    // Whether the commit record made it decides the whole
                    // batch at once; per slot only the newest pending tag
                    // can win the merge, and "old" is the pre-batch value —
                    // snapshot it before any insert so a batch that wrote
                    // one slot twice cannot corrupt its own baseline.
                    let mut newest: BTreeMap<u64, u8> = BTreeMap::new();
                    for (slot, tag) in pending.drain(..) {
                        newest.insert(slot, tag);
                    }
                    for (slot, tag) in newest {
                        let old = o.line_tag(slot);
                        o.lines.insert(slot, Expect::Either(old, tag));
                    }
                } else {
                    pending.clear(); // uncommitted ⇒ recovery discards ⇒ old value stands
                }
                return Box::new(o);
            }
            // Op completed: its effects are exactly durable. A
            // non-transactional write also overshadows any older pending
            // transactional write to the same slot — the pending chunk may
            // still commit later, but its older sequence number loses the
            // merge, so the oracle must forget it.
            for (slot, tag) in touched_lines {
                pending.retain(|(s, _)| *s != slot);
                o.lines.insert(slot, Expect::Exactly(tag));
            }
            for (page, tag) in touched_pages {
                o.pages.insert(page, Expect::Exactly(tag));
            }
            if committing {
                for (slot, tag) in pending.drain(..) {
                    o.lines.insert(slot, Expect::Exactly(tag));
                }
                tx = TxId(tx.0 + 1);
            }
        }
        // Stream ended without a cut (count phase): uncommitted
        // transactional writes are still discarded by recovery, so the old
        // values already recorded in `lines` stand.
        Box::new(o)
    }
}

/// Expected durable device state of a [`DeviceStress`] or
/// [`DeviceMqStress`] run.
#[derive(Debug, Default)]
struct DeviceOracle {
    /// Cacheline slot (address / 64) → expected 64-byte tag.
    lines: BTreeMap<u64, Expect>,
    /// Block-region page (relative to [`BLOCK_BASE`]) → expected page tag
    /// (used by [`DeviceStress`]).
    pages: BTreeMap<u64, Expect>,
    /// Absolute logical page → expected page tag (used by
    /// [`DeviceMqStress`], whose block traffic is sliced per queue).
    pages_abs: BTreeMap<u64, Expect>,
}

impl DeviceOracle {
    fn line_tag(&self, slot: u64) -> u8 {
        match self.lines.get(&slot) {
            Some(Expect::Exactly(t)) => *t,
            // An in-doubt slot rewritten later: use 0 as the conservative
            // base; the new Exactly/Either overwrites the entry anyway.
            Some(Expect::Either(..)) | None => 0,
        }
    }

    fn page_tag(&self, page: u64) -> u8 {
        match self.pages.get(&page) {
            Some(Expect::Exactly(t)) => *t,
            Some(Expect::Either(..)) | None => 0,
        }
    }

    fn page_abs_tag(&self, lba: u64) -> u8 {
        match self.pages_abs.get(&lba) {
            Some(Expect::Exactly(t)) => *t,
            Some(Expect::Either(..)) | None => 0,
        }
    }
}

impl Oracle for DeviceOracle {
    fn verify(&self, dev: &Arc<Mssd>) -> Vec<Violation> {
        let mut v = Vec::new();
        dev.recover();
        if dev.snapshot().log_entries != 0 {
            v.push(Violation::new(
                "device-recover",
                format!("{} log entries survived recovery", dev.snapshot().log_entries),
            ));
        }
        for (&slot, &expect) in &self.lines {
            let got =
                dev.try_byte_read(slot * 64, 64, Category::Data).expect("no media fault planned");
            let tag = got[0];
            if !got.iter().all(|b| *b == tag) {
                v.push(Violation::new(
                    "device-data",
                    format!("slot {slot}: torn cacheline (mixes byte values)"),
                ));
            } else if !expect.admits(tag) {
                v.push(Violation::new(
                    "device-data",
                    format!("slot {slot}: read tag {tag}, expected {expect:?}"),
                ));
            }
        }
        for (&page, &expect) in &self.pages {
            let got = dev
                .try_block_read(BLOCK_BASE + page, 1, Category::Data)
                .expect("no media fault planned");
            let tag = got[0];
            if !got.iter().all(|b| *b == tag) {
                v.push(Violation::new(
                    "device-data",
                    format!("block page {page}: torn page (mixes byte values)"),
                ));
            } else if !expect.admits(tag) {
                v.push(Violation::new(
                    "device-data",
                    format!("block page {page}: read tag {tag}, expected {expect:?}"),
                ));
            }
        }
        for (&lba, &expect) in &self.pages_abs {
            let got = dev.try_block_read(lba, 1, Category::Data).expect("no media fault planned");
            let tag = got[0];
            if !got.iter().all(|b| *b == tag) {
                v.push(Violation::new(
                    "device-data",
                    format!("lba {lba}: torn page (mixes byte values)"),
                ));
            } else if !expect.admits(tag) {
                v.push(Violation::new(
                    "device-data",
                    format!("lba {lba}: read tag {tag}, expected {expect:?}"),
                ));
            }
        }
        for problem in dev.check_consistency() {
            v.push(Violation::new("mssd-ftl", problem));
        }
        v
    }
}

// ---------------------------------------------------------------------------
// Multi-queue device stress (in-flight commands on several queues)
// ---------------------------------------------------------------------------

/// Multi-queue crash scenario: three [`mssd::HostQueue`]s over disjoint
/// partitions, driven round-robin from one thread (crashkit workloads must
/// be deterministic) with batched doorbells, coalescible adjacent byte
/// writes, transactional batches with in-batch `COMMIT`s, block writes,
/// TRIMs and FLUSHes. The power cut lands with commands in flight in three
/// distinct states, and the oracle holds the queue contract:
///
/// * commands whose **completion was produced** — even if the host never
///   polled it — are durable under the normal rules (non-transactional
///   writes immediately, transactional writes at their commit);
/// * the one command group the cut landed **inside** is in-doubt (old or
///   new value, never torn);
/// * commands still sitting in a submission queue (**unsubmitted** to the
///   firmware: the doorbell never consumed them) must have *no* durable
///   effect — the old value must survive recovery.
#[derive(Debug, Clone)]
pub struct DeviceMqStress {
    /// Number of submission rounds (each round feeds every queue a small
    /// batch and rings its doorbell).
    pub rounds: usize,
}

/// Queues (= 16 MB partitions) the scenario drives.
const MQ_QUEUES: usize = 3;
/// 64-byte slots per queue partition.
const MQ_SLOTS: u64 = 64;
/// Block pages per queue inside the block partition (partition
/// [`MQ_QUEUES`]).
const MQ_BLOCK_PAGES: u64 = 8;

impl DeviceMqStress {
    /// A stream sized so the crash-point space comfortably exceeds a few
    /// hundred steps while a sweep stays fast.
    pub fn quick() -> Self {
        Self { rounds: 40 }
    }
}

/// What one submitted multi-queue command will do, for the oracle's
/// bookkeeping (absolute line index = device address / 64).
#[derive(Debug, Clone)]
enum MqCmd {
    /// Byte write of one cacheline, tagged with its transaction id if any.
    Line { line: u64, tag: u8, txid: Option<u32> },
    /// `COMMIT` of one specific transaction. Carries the id because a
    /// doorbell-skipped round can leave this commit in the SQ while the
    /// next round already writes under the successor transaction — the
    /// commit must only cover its own transaction's writes.
    Commit { txid: u32 },
    /// Block write of one page.
    Page { lba: u64, tag: u8 },
    /// TRIM of one page.
    TrimPage { lba: u64 },
    /// FLUSH (no oracle effect).
    Flush,
}

impl Scenario for DeviceMqStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        // MQ_QUEUES byte partitions plus one block partition.
        cfg.capacity_bytes = (MQ_QUEUES as u64 + 1) * (16 << 20);
        // Small log region with the threshold pushed out, as in
        // DeviceStress: space admission failures drive seal-drain crash
        // points under multi-queue traffic too.
        cfg.dram_region_bytes = 16 << 10;
        cfg.log_clean_threshold = 0.999;
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        let page_size = dev.page_size() as u64;
        let partition_pages = (16u64 << 20) / page_size;
        let block_base = MQ_QUEUES as u64 * partition_pages;
        let mut rng = Rng::new(seed);
        let mut o = DeviceOracle::default();
        let mut queues: Vec<mssd::HostQueue> = (0..MQ_QUEUES).map(|_| dev.open_queue(32)).collect();
        // Per queue: descriptors of commands sitting in the SQ (front =
        // oldest), the running TxId, and (slot, tag, txid) writes awaiting
        // their commit.
        let mut in_flight: Vec<Vec<MqCmd>> = vec![Vec::new(); MQ_QUEUES];
        let mut tx: Vec<TxId> = (0..MQ_QUEUES).map(|q| TxId((q as u32 + 1) << 16)).collect();
        let mut pending_tx: Vec<Vec<(u64, u8, u32)>> = vec![Vec::new(); MQ_QUEUES];

        'rounds: for _ in 0..self.rounds {
            for q in 0..MQ_QUEUES {
                // Submit a small batch: a coalescible run of byte writes,
                // then sometimes a commit / block op / trim / flush.
                let base_slot = rng.below(MQ_SLOTS);
                let run_len = 1 + rng.below(4);
                let tag = 1 + rng.below(250) as u8;
                let transactional = rng.below(3) == 0;
                for i in 0..run_len {
                    let slot = (base_slot + i) % MQ_SLOTS;
                    let line = q as u64 * (16 << 20) / 64 + slot;
                    let cmd = mssd::Command::ByteWrite {
                        addr: line * 64,
                        data: vec![tag.wrapping_add(i as u8); 64],
                        txid: transactional.then_some(tx[q]),
                        cat: Category::Data,
                    };
                    if queues[q].submit(cmd).is_ok() {
                        in_flight[q].push(MqCmd::Line {
                            line,
                            tag: tag.wrapping_add(i as u8),
                            txid: transactional.then_some(tx[q].0),
                        });
                    }
                }
                match rng.below(10) {
                    0 | 1 if transactional => {
                        let cmd = mssd::Command::Commit { txid: tx[q] };
                        if queues[q].submit(cmd).is_ok() {
                            in_flight[q].push(MqCmd::Commit { txid: tx[q].0 });
                            // Advance at *submit*, not at consumption: a
                            // skipped doorbell must not let the next round
                            // reuse a TxId whose commit record is already
                            // queued — the record would retroactively
                            // commit the later writes on the device while
                            // the oracle still expects their old values.
                            tx[q] = TxId(tx[q].0 + 1);
                        }
                    }
                    2 | 3 => {
                        let lba =
                            block_base + q as u64 * MQ_BLOCK_PAGES + rng.below(MQ_BLOCK_PAGES);
                        let ptag = 1 + rng.below(250) as u8;
                        let cmd = mssd::Command::BlockWrite {
                            lba,
                            data: vec![ptag; page_size as usize],
                            cat: Category::Data,
                        };
                        if queues[q].submit(cmd).is_ok() {
                            in_flight[q].push(MqCmd::Page { lba, tag: ptag });
                        }
                    }
                    4 => {
                        let lba =
                            block_base + q as u64 * MQ_BLOCK_PAGES + rng.below(MQ_BLOCK_PAGES);
                        if queues[q].submit(mssd::Command::Trim { lba, count: 1 }).is_ok() {
                            in_flight[q].push(MqCmd::TrimPage { lba });
                        }
                    }
                    5 => {
                        let cmd = mssd::Command::Flush;
                        if queues[q].submit(cmd).is_ok() {
                            in_flight[q].push(MqCmd::Flush);
                        }
                    }
                    _ => {}
                }
            }
            // Ring every doorbell round-robin; some rounds leave one queue
            // un-rung so the cut also catches whole batches unsubmitted.
            let skip =
                if rng.below(4) == 0 { Some(rng.below(MQ_QUEUES as u64) as usize) } else { None };
            for q in 0..MQ_QUEUES {
                if Some(q) == skip && !dev.fault_tripped() {
                    continue;
                }
                let before = in_flight[q].len();
                let delivered = queues[q].ring_doorbell();
                let consumed = before - queues[q].pending();
                let cmds: Vec<MqCmd> = in_flight[q].drain(..consumed).collect();
                for (i, cmd) in cmds.into_iter().enumerate() {
                    let completed = i < delivered;
                    apply_mq_cmd(&mut o, &mut pending_tx[q], cmd, completed);
                }
                if dev.fault_tripped() {
                    break 'rounds;
                }
            }
        }
        // Commands still in a submission queue at the cut (or at stream
        // end): never executed, no durable effect — the oracle's recorded
        // old values stand, and uncommitted transactional writes die with
        // the commit record they never got.
        drop(queues);
        Box::new(o)
    }
}

/// Applies one consumed multi-queue command to the oracle. `completed`
/// means its completion was produced (durable under the normal rules);
/// otherwise the cut landed inside its group and it is in-doubt.
fn apply_mq_cmd(
    o: &mut DeviceOracle,
    pending: &mut Vec<(u64, u8, u32)>,
    cmd: MqCmd,
    completed: bool,
) {
    match cmd {
        MqCmd::Line { line, tag, txid } => {
            if let Some(t) = txid {
                if completed {
                    pending.push((line, tag, t));
                }
                // In-doubt transactional write: its commit never executed,
                // so recovery discards the chunk either way — the old value
                // stands and the oracle entry is untouched.
            } else if completed {
                // A completed non-transactional write overshadows any older
                // pending transactional write to the same slot (newer seq
                // wins the merge).
                pending.retain(|(l, _, _)| *l != line);
                o.lines.insert(line, Expect::Exactly(tag));
            } else {
                let old = o.line_tag(line);
                o.lines.insert(line, Expect::Either(old, tag));
            }
        }
        MqCmd::Commit { txid } => {
            // Only this transaction's writes become durable; pending
            // entries of a successor transaction (written after this
            // commit entered the SQ) keep waiting for their own commit.
            // Push order = consumption order = device seq order, so later
            // inserts correctly overwrite earlier ones per slot.
            let (mine, keep): (Vec<_>, Vec<_>) =
                pending.drain(..).partition(|(_, _, t)| *t == txid);
            *pending = keep;
            if completed {
                for (line, tag, _) in mine {
                    o.lines.insert(line, Expect::Exactly(tag));
                }
            } else {
                // Whether the commit record made it decides the whole batch
                // at once; per slot only the newest pending tag can win,
                // and "old" is the pre-batch value (snapshot before any
                // insert, as in DeviceStress).
                let mut newest: BTreeMap<u64, u8> = BTreeMap::new();
                for (line, tag, _) in mine {
                    newest.insert(line, tag);
                }
                for (line, tag) in newest {
                    let old = o.line_tag(line);
                    o.lines.insert(line, Expect::Either(old, tag));
                }
            }
        }
        MqCmd::Page { lba, tag } => {
            if completed {
                o.pages_abs.insert(lba, Expect::Exactly(tag));
            } else {
                let old = o.page_abs_tag(lba);
                o.pages_abs.insert(lba, Expect::Either(old, tag));
            }
        }
        MqCmd::TrimPage { lba } => {
            // TRIM is atomic (no internal fault step); only a completed one
            // has an effect.
            if completed {
                o.pages_abs.insert(lba, Expect::Exactly(0));
            }
        }
        MqCmd::Flush => {}
    }
}

// ---------------------------------------------------------------------------
// Async-runtime device stress (futures multiplexed over reactor lanes)
// ---------------------------------------------------------------------------

/// Logical clients the async stress spawns as futures.
const ASYNC_CLIENTS: usize = 6;
/// Reactor lanes (queue pairs) the clients share — three clients per lane.
const ASYNC_LANES: usize = 2;
/// SQ depth per lane: shallow enough that one client's batch can fill the
/// lane and the others must *park* for capacity, so the cut also lands with
/// submitters suspended in the backpressure queue.
const ASYNC_DEPTH: usize = 4;
/// 64-byte cacheline slots per client (disjoint ranges in partition 0).
const ASYNC_SLOTS: u64 = 48;
/// Block pages per client (disjoint ranges in partition 1).
const ASYNC_PAGES: u64 = 6;

/// Async-runtime crash scenario: `ASYNC_CLIENTS` logical clients submit
/// seeded command batches as futures through one [`mssd::Runtime`] — the
/// enumerating thread drives the executor, so the same seed replays the
/// same interleaving exactly. The
/// clients share `ASYNC_LANES` reactor lanes of depth `ASYNC_DEPTH`,
/// which keeps submitters parking for capacity; the power cut therefore
/// lands with futures in every terminal state the runtime distinguishes,
/// and the oracle holds the typed contract:
///
/// * a future resolving `Ok(completion)` — even if nothing ever read the
///   result — is durable under the normal rules (non-transactional writes
///   immediately, transactional writes at their commit);
/// * [`mssd::SubmitError::CutConsumed`] means the cut landed inside the
///   command's (possibly coalesced) group: in doubt, old or new value but
///   never torn;
/// * [`mssd::SubmitError::CutUnsubmitted`] (parked at the cut, stranded in
///   the SQ, or submitted after power failed) must have **no** durable
///   effect.
///
/// Clients write disjoint cacheline and block-page ranges, so per-location
/// device write order is each client's own submission order and the oracle
/// composes client by client via `apply_mq_cmd`.
#[derive(Debug, Clone)]
pub struct DeviceAsyncStress {
    /// Number of batches each client submits.
    pub rounds: usize,
}

impl DeviceAsyncStress {
    /// A stream sized so the crash-point space comfortably exceeds a few
    /// hundred steps while a sweep stays fast.
    pub fn quick() -> Self {
        Self { rounds: 28 }
    }
}

impl Scenario for DeviceAsyncStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        // Partition 0 holds the clients' byte slots, partition 1 their
        // block pages.
        cfg.capacity_bytes = 32 << 20;
        // Small log region, threshold pushed out: space admission failures
        // drive foreground seal + drain crash points under async traffic.
        cfg.dram_region_bytes = 16 << 10;
        cfg.log_clean_threshold = 0.999;
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        let rt = mssd::Runtime::new(dev, ASYNC_LANES, ASYNC_DEPTH);
        let page_size = dev.page_size() as u64;
        let block_base = (16u64 << 20) / page_size; // partition 1
        let rounds = self.rounds;

        let handles: Vec<_> = (0..ASYNC_CLIENTS)
            .map(|c| {
                let reactor = Arc::clone(rt.reactor());
                let dev = Arc::clone(dev);
                rt.spawn(async move {
                    let mut rng = Rng::new(seed.wrapping_add((c as u64 + 1) << 8));
                    let mut tx = TxId(((c as u32) + 1) << 16);
                    let lane = reactor.lane_for(c);
                    let line_base = c as u64 * ASYNC_SLOTS;
                    let page_base = block_base + c as u64 * ASYNC_PAGES;
                    let mut log: Vec<(MqCmd, Result<(), mssd::SubmitError>)> = Vec::new();
                    for _ in 0..rounds {
                        // A coalescible run of adjacent byte writes, with a
                        // tail op appended to some batches.
                        let run_len = 1 + rng.below(3);
                        let base_slot = rng.below(ASYNC_SLOTS - run_len);
                        let tag = 1 + rng.below(250) as u8;
                        let transactional = rng.below(3) == 0;
                        let mut cmds = Vec::new();
                        let mut descs = Vec::new();
                        for i in 0..run_len {
                            let line = line_base + base_slot + i;
                            let t = tag.wrapping_add(i as u8);
                            cmds.push(mssd::Command::ByteWrite {
                                addr: line * 64,
                                data: vec![t; 64],
                                txid: transactional.then_some(tx),
                                cat: Category::Data,
                            });
                            descs.push(MqCmd::Line {
                                line,
                                tag: t,
                                txid: transactional.then_some(tx.0),
                            });
                        }
                        match rng.below(8) {
                            0 if transactional => {
                                cmds.push(mssd::Command::Commit { txid: tx });
                                descs.push(MqCmd::Commit { txid: tx.0 });
                                // Advance at submission, exactly as the
                                // multi-queue stress does.
                                tx = TxId(tx.0 + 1);
                            }
                            1 | 2 => {
                                let lba = page_base + rng.below(ASYNC_PAGES);
                                let ptag = 1 + rng.below(250) as u8;
                                cmds.push(mssd::Command::BlockWrite {
                                    lba,
                                    data: vec![ptag; page_size as usize],
                                    cat: Category::Data,
                                });
                                descs.push(MqCmd::Page { lba, tag: ptag });
                            }
                            3 => {
                                let lba = page_base + rng.below(ASYNC_PAGES);
                                cmds.push(mssd::Command::Trim { lba, count: 1 });
                                descs.push(MqCmd::TrimPage { lba });
                            }
                            4 => {
                                cmds.push(mssd::Command::Flush);
                                descs.push(MqCmd::Flush);
                            }
                            _ => {}
                        }
                        let outcomes = reactor.submit_batch(lane, cmds).await;
                        for (desc, out) in descs.into_iter().zip(outcomes) {
                            log.push((desc, out.map(|_| ())));
                        }
                        if dev.fault_tripped() {
                            break; // remaining submits would all be dead
                        }
                    }
                    log
                })
            })
            .collect();
        let logs = rt.block_on(async move {
            let mut v = Vec::with_capacity(handles.len());
            for h in handles {
                v.push(h.await);
            }
            v
        });

        // Locations are disjoint per client, so replaying each client's log
        // in its own submission order reconstructs per-location device
        // order.
        let mut o = DeviceOracle::default();
        for log in logs {
            let mut pending: Vec<(u64, u8, u32)> = Vec::new();
            for (cmd, outcome) in log {
                match outcome {
                    Ok(()) => apply_mq_cmd(&mut o, &mut pending, cmd, true),
                    Err(mssd::SubmitError::CutConsumed) => {
                        apply_mq_cmd(&mut o, &mut pending, cmd, false)
                    }
                    // Never executed: the recorded old value stands.
                    Err(mssd::SubmitError::CutUnsubmitted) => {}
                }
            }
        }
        Box::new(o)
    }
}

// ---------------------------------------------------------------------------
// ByteFS file-system stress
// ---------------------------------------------------------------------------

/// File-system-level crash scenario on ByteFS: seeded mix of durable ops
/// (`write_file` = create/overwrite + fsync, `mkdir`, `rename`, `unlink`,
/// shrinking `truncate` + fsync). Every completed op must survive the crash
/// exactly; the in-doubt op may land either way (but never tear).
#[derive(Debug, Clone)]
pub struct FsStress {
    /// Number of file-system ops in the stream.
    pub ops: usize,
}

impl FsStress {
    /// Default stream for sweeps.
    pub fn quick() -> Self {
        Self { ops: 48 }
    }
}

/// The one op whose transaction the cut may have straddled.
#[derive(Debug, Clone)]
enum InDoubt {
    /// Power died during `format`: no file system exists to verify.
    Format,
    /// `write_file` (create or overwrite): any of absent / old / new /
    /// empty is acceptable; content equality is only enforced when the new
    /// size matches.
    WriteFile { path: String, old: Option<Vec<u8>>, new: Vec<u8> },
    /// `mkdir`: the directory may or may not exist.
    Mkdir { path: String },
    /// `unlink`: the file is gone, or still there with its old content.
    Unlink { path: String, old: Vec<u8> },
    /// `rename`: exactly one of the names exists, carrying the content.
    Rename { from: String, to: String, content: Vec<u8> },
    /// shrinking `truncate`: old size or new size, content prefix intact.
    Truncate { path: String, old: Vec<u8>, new_len: usize },
}

impl Scenario for FsStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        cfg.capacity_bytes = 64 << 20;
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        let mut o = FsOracle {
            files: BTreeMap::new(),
            dirs: vec!["/".into()],
            in_doubt: None,
            formatted: false,
        };
        let fs = match ByteFs::format(Arc::clone(dev), ByteFsConfig::full()) {
            Ok(fs) => fs,
            Err(_) => {
                o.in_doubt = Some(InDoubt::Format);
                return Box::new(o);
            }
        };
        if dev.fault_tripped() {
            o.in_doubt = Some(InDoubt::Format);
            return Box::new(o);
        }
        o.formatted = true;

        let mut rng = Rng::new(seed);
        let mut serial = 0usize;
        for _ in 0..self.ops {
            let roll = rng.below(100);
            let in_doubt: InDoubt;
            match roll {
                // Create a fresh fsynced file in a random directory.
                0..=39 => {
                    let dir = o.dirs[rng.below(o.dirs.len() as u64) as usize].clone();
                    let path =
                        if dir == "/" { format!("/f{serial}") } else { format!("{dir}/f{serial}") };
                    serial += 1;
                    let tag = 1 + rng.below(250) as u8;
                    let len = 64 + rng.below(6000) as usize;
                    let content = vec![tag; len];
                    in_doubt =
                        InDoubt::WriteFile { path: path.clone(), old: None, new: content.clone() };
                    fs.write_file(&path, &content).ok();
                    if !dev.fault_tripped() {
                        o.files.insert(path, content);
                    }
                }
                // Overwrite an existing file (fsynced).
                40..=54 => {
                    let Some(path) = nth_key(&o.files, rng.next_u64()) else { continue };
                    let tag = 1 + rng.below(250) as u8;
                    let len = 64 + rng.below(6000) as usize;
                    let content = vec![tag; len];
                    in_doubt = InDoubt::WriteFile {
                        path: path.clone(),
                        old: o.files.get(&path).cloned(),
                        new: content.clone(),
                    };
                    fs.write_file(&path, &content).ok();
                    if !dev.fault_tripped() {
                        o.files.insert(path, content);
                    }
                }
                // mkdir.
                55..=64 => {
                    let path = format!("/d{serial}");
                    serial += 1;
                    in_doubt = InDoubt::Mkdir { path: path.clone() };
                    fs.mkdir(&path).ok();
                    if !dev.fault_tripped() {
                        o.dirs.push(path);
                    }
                }
                // Rename a file to a fresh name in its directory.
                65..=74 => {
                    let Some(from) = nth_key(&o.files, rng.next_u64()) else { continue };
                    let to = match from.rfind('/') {
                        Some(0) => format!("/r{serial}"),
                        Some(i) => format!("{}/r{serial}", &from[..i]),
                        None => format!("/r{serial}"),
                    };
                    serial += 1;
                    let content = o.files[&from].clone();
                    in_doubt = InDoubt::Rename { from: from.clone(), to: to.clone(), content };
                    fs.rename(&from, &to).ok();
                    if !dev.fault_tripped() {
                        let c = o.files.remove(&from).expect("tracked");
                        o.files.insert(to, c);
                    }
                }
                // Unlink.
                75..=87 => {
                    let Some(path) = nth_key(&o.files, rng.next_u64()) else { continue };
                    in_doubt = InDoubt::Unlink { path: path.clone(), old: o.files[&path].clone() };
                    fs.unlink(&path).ok();
                    if !dev.fault_tripped() {
                        o.files.remove(&path);
                    }
                }
                // Shrinking truncate + fsync.
                _ => {
                    let Some(path) = nth_key(&o.files, rng.next_u64()) else { continue };
                    let old = o.files[&path].clone();
                    if old.len() < 2 {
                        continue;
                    }
                    let new_len = (rng.below(old.len() as u64 - 1) + 1) as usize;
                    in_doubt = InDoubt::Truncate { path: path.clone(), old: old.clone(), new_len };
                    if let Ok(fd) = fs.open(&path, OpenFlags::read_write()) {
                        fs.truncate(fd, new_len as u64).ok();
                        fs.fsync(fd).ok();
                        fs.close(fd).ok();
                    }
                    if !dev.fault_tripped() {
                        o.files.get_mut(&path).expect("tracked").truncate(new_len);
                    }
                }
            }
            if dev.fault_tripped() {
                o.in_doubt = Some(in_doubt);
                break;
            }
        }
        // The crashed host's in-memory fs state dies here; only the device
        // image carries on.
        Box::new(o)
    }
}

/// Expected durable file-system state of an [`FsStress`] run.
struct FsOracle {
    files: BTreeMap<String, Vec<u8>>,
    dirs: Vec<String>,
    in_doubt: Option<InDoubt>,
    formatted: bool,
}

impl FsOracle {
    /// Paths the in-doubt op may legitimately have altered; exact checks
    /// skip them.
    fn in_doubt_paths(&self) -> Vec<&str> {
        match &self.in_doubt {
            Some(InDoubt::WriteFile { path, .. })
            | Some(InDoubt::Mkdir { path })
            | Some(InDoubt::Unlink { path, .. })
            | Some(InDoubt::Truncate { path, .. }) => vec![path],
            Some(InDoubt::Rename { from, to, .. }) => vec![from, to],
            Some(InDoubt::Format) | None => vec![],
        }
    }
}

impl Oracle for FsOracle {
    fn verify(&self, dev: &Arc<Mssd>) -> Vec<Violation> {
        let mut v = Vec::new();
        dev.recover();
        if !self.formatted {
            // Power died during mkfs: there is nothing mountable to check,
            // only device-level invariants.
            for problem in dev.check_consistency() {
                v.push(Violation::new("mssd-ftl", problem));
            }
            return v;
        }
        let fs = match ByteFs::mount(Arc::clone(dev), ByteFsConfig::full()) {
            Ok(fs) => fs,
            Err(e) => {
                v.push(Violation::new("fs-mount", format!("remount failed: {e}")));
                return v;
            }
        };
        let skip = self.in_doubt_paths();
        for (path, content) in &self.files {
            if skip.contains(&path.as_str()) {
                continue;
            }
            match fs.read_file(path) {
                Ok(got) if &got == content => {}
                Ok(got) => v.push(Violation::new(
                    "fs-data",
                    format!(
                        "{path}: {} bytes read, {} expected (content diverged)",
                        got.len(),
                        content.len()
                    ),
                )),
                Err(e) => v.push(Violation::new(
                    "fs-data",
                    format!("{path}: completed fsynced write lost ({e})"),
                )),
            }
        }
        for dir in &self.dirs {
            if skip.contains(&dir.as_str()) {
                continue;
            }
            if !fs.exists(dir) {
                v.push(Violation::new("fs-namespace", format!("{dir}: committed mkdir lost")));
            }
        }
        // The in-doubt op may have landed either way — but never torn.
        match &self.in_doubt {
            None | Some(InDoubt::Format) => {}
            Some(InDoubt::WriteFile { path, old, new }) => {
                if let Ok(got) = fs.read_file(path) {
                    let ok = got.is_empty()
                        || Some(&got) == old.as_ref()
                        || &got == new
                        // An overwrite tears at page granularity inside the
                        // host cache writeback; sizes must still be one of
                        // the two.
                        || old.as_ref().is_some_and(|o| got.len() == o.len())
                        || got.len() == new.len();
                    if !ok {
                        v.push(Violation::new(
                            "fs-data",
                            format!("{path}: in-doubt write left an impossible size {}", got.len()),
                        ));
                    }
                }
            }
            Some(InDoubt::Mkdir { .. }) => {}
            Some(InDoubt::Unlink { path, old }) => {
                if let Ok(got) = fs.read_file(path) {
                    if &got != old {
                        v.push(Violation::new(
                            "fs-data",
                            format!(
                                "{path}: in-doubt unlink left {} bytes, expected the old {} \
                                 (pre-commit TRIM would zero this)",
                                got.len(),
                                old.len()
                            ),
                        ));
                    }
                }
            }
            Some(InDoubt::Rename { from, to, content }) => {
                let at_from = fs.read_file(from).ok();
                let at_to = fs.read_file(to).ok();
                match (at_from, at_to) {
                    (Some(c), None) | (None, Some(c)) => {
                        if &c != content {
                            v.push(Violation::new(
                                "fs-data",
                                format!("{from} -> {to}: rename changed the file's content"),
                            ));
                        }
                    }
                    (Some(_), Some(_)) => v.push(Violation::new(
                        "fs-namespace",
                        format!("{from} -> {to}: file visible under both names"),
                    )),
                    (None, None) => v.push(Violation::new(
                        "fs-namespace",
                        format!("{from} -> {to}: file vanished during rename"),
                    )),
                }
            }
            Some(InDoubt::Truncate { path, old, new_len }) => match fs.read_file(path) {
                Ok(got) => {
                    let ok = (got.len() == *new_len && got[..] == old[..*new_len])
                        || (got.len() == old.len() && got == *old);
                    if !ok {
                        v.push(Violation::new(
                            "fs-data",
                            format!(
                                "{path}: in-doubt truncate left {} bytes (old {}, new {}) \
                                     or corrupted the prefix",
                                got.len(),
                                old.len(),
                                new_len
                            ),
                        ));
                    }
                }
                Err(e) => v.push(Violation::new(
                    "fs-data",
                    format!("{path}: file lost by a truncate ({e})"),
                )),
            },
        }
        v.extend(fs.fsck());
        v
    }
}

fn nth_key(map: &BTreeMap<String, Vec<u8>>, r: u64) -> Option<String> {
    if map.is_empty() {
        return None;
    }
    map.keys().nth((r as usize) % map.len()).cloned()
}

// ---------------------------------------------------------------------------
// KV-store stress (WAL tail recovery)
// ---------------------------------------------------------------------------

/// KV-store crash scenario: unique-key puts through [`kvstore::Db`] on
/// ByteFS with group-committed WAL syncs and periodic explicit flushes. The
/// oracle pins the WAL-tail contract: reopening the database after *any*
/// crash point must succeed (a torn final record truncates instead of
/// erroring), every put up to the last completed flush must be present, and
/// later puts are each present-or-absent but never corrupt.
#[derive(Debug, Clone)]
pub struct KvStress {
    /// Number of puts in the stream.
    pub puts: usize,
    /// A `db.flush()` is issued after every `flush_every` puts.
    pub flush_every: usize,
}

impl KvStress {
    /// Default stream for sweeps.
    pub fn quick() -> Self {
        Self { puts: 40, flush_every: 16 }
    }

    fn value(i: usize) -> Vec<u8> {
        // Long enough that records regularly straddle page boundaries in
        // the WAL file — the torn-tail shape the checksums must catch.
        vec![(i % 251) as u8; 350 + (i * 37) % 300]
    }

    fn options() -> DbOptions {
        DbOptions {
            memtable_bytes: 8 << 10,
            compaction_threshold: 3,
            wal_sync: WalSync::Periodic(4),
        }
    }
}

impl Scenario for KvStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        cfg.capacity_bytes = 64 << 20;
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        let _ = seed; // the stream is fixed; the seed varies only the cut
        let mut o = KvOracle {
            flush_every: self.flush_every,
            completed_puts: 0,
            durable_puts: 0,
            opened: false,
        };
        let Ok(fs) = ByteFs::format(Arc::clone(dev), ByteFsConfig::full()) else {
            return Box::new(o);
        };
        if dev.fault_tripped() {
            return Box::new(o);
        }
        let Ok(db) = Db::open(fs, "/db", Self::options()) else {
            return Box::new(o);
        };
        if dev.fault_tripped() {
            return Box::new(o);
        }
        o.opened = true;
        for i in 0..self.puts {
            db.put(format!("key{i:05}").as_bytes(), &Self::value(i)).ok();
            if dev.fault_tripped() {
                return Box::new(o);
            }
            o.completed_puts = i + 1;
            if (i + 1) % self.flush_every == 0 {
                db.flush().ok();
                if dev.fault_tripped() {
                    return Box::new(o);
                }
                o.durable_puts = i + 1;
            }
        }
        db.close().ok();
        if !dev.fault_tripped() {
            o.durable_puts = self.puts;
        }
        Box::new(o)
    }
}

/// Expected durable KV state of a [`KvStress`] run.
struct KvOracle {
    flush_every: usize,
    /// Puts whose `put()` call returned before the cut.
    completed_puts: usize,
    /// Puts known durable (last completed explicit flush / clean close).
    durable_puts: usize,
    /// Whether the database finished opening before the cut.
    opened: bool,
}

impl Oracle for KvOracle {
    fn verify(&self, dev: &Arc<Mssd>) -> Vec<Violation> {
        let mut v = Vec::new();
        dev.recover();
        if !self.opened {
            for problem in dev.check_consistency() {
                v.push(Violation::new("mssd-ftl", problem));
            }
            return v;
        }
        let fs = match ByteFs::mount(Arc::clone(dev), ByteFsConfig::full()) {
            Ok(fs) => fs,
            Err(e) => {
                v.push(Violation::new("fs-mount", format!("remount failed: {e}")));
                return v;
            }
        };
        // The WAL-tail contract: reopening must always succeed — a torn
        // final record truncates cleanly instead of erroring out.
        let db = match Db::open(fs.clone(), "/db", KvStress::options()) {
            Ok(db) => db,
            Err(e) => {
                v.push(Violation::new(
                    "wal-tail",
                    format!("Db::open failed after crash (torn WAL tail not recovered): {e}"),
                ));
                return v;
            }
        };
        for i in 0..self.durable_puts {
            let key = format!("key{i:05}");
            match db.get(key.as_bytes()) {
                Ok(Some(val)) if val == KvStress::value(i) => {}
                Ok(Some(_)) => v.push(Violation::new(
                    "kv-data",
                    format!("{key}: value corrupted after recovery"),
                )),
                Ok(None) => v.push(Violation::new(
                    "kv-data",
                    format!("{key}: flushed put lost (durable through put {})", self.durable_puts),
                )),
                Err(e) => v.push(Violation::new("kv-data", format!("{key}: read failed: {e}"))),
            }
        }
        // Later puts may or may not have reached the device, but whatever
        // survives must be byte-exact.
        for i in self.durable_puts..self.completed_puts {
            let key = format!("key{i:05}");
            if let Ok(Some(val)) = db.get(key.as_bytes()) {
                if val != KvStress::value(i) {
                    v.push(Violation::new(
                        "kv-data",
                        format!("{key}: surviving unsynced put is corrupt"),
                    ));
                }
            }
        }
        let _ = self.flush_every;
        v.extend(db.check_invariants());
        v.extend(fs.fsck());
        v
    }
}

// ---------------------------------------------------------------------------
// Baseline engines (device-level durability only)
// ---------------------------------------------------------------------------

/// Which baseline engine a [`BaselineStress`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// The Ext4-like block-journaling baseline.
    Ext4,
    /// The NOVA-like byte-interface log-structured baseline.
    Nova,
}

impl BaselineKind {
    /// Stable label for reports and the CI matrix.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Ext4 => "ext4like",
            BaselineKind::Nova => "novalike",
        }
    }
}

/// Crash scenario for the baseline engines. The baselines are measurement
/// stand-ins without a remountable on-disk format (see
/// `crates/baselines/src/lib.rs`), so the oracle checks what *is* durable
/// contract here: the engine's own structural invariants at the moment of
/// the cut (via its [`CrashConsistent`] impl), and the device's — the
/// restored image must recover into a consistent FTL with no log residue.
/// The crash points still exercise the whole PageCache-mode device path
/// (cache writes, evictions, journal writes, flushes, GC).
#[derive(Debug, Clone)]
pub struct BaselineStress {
    /// Which engine to drive.
    pub kind: BaselineKind,
    /// Number of file-system ops in the stream.
    pub ops: usize,
}

impl BaselineStress {
    /// Default stream for sweeps.
    pub fn quick(kind: BaselineKind) -> Self {
        Self { kind, ops: 60 }
    }
}

impl Scenario for BaselineStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        cfg.capacity_bytes = 64 << 20;
        // A small device cache so evictions and write-through traffic
        // produce flash crash points, not just cache writes.
        cfg.dram_region_bytes = 64 << 10;
        cfg
    }

    fn dram_mode(&self) -> DramMode {
        DramMode::PageCache
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        match self.kind {
            BaselineKind::Ext4 => {
                let fs = Ext4Like::format(Arc::clone(dev));
                drive_baseline(fs, dev, seed, self.ops)
            }
            BaselineKind::Nova => {
                let fs = NovaLike::format(Arc::clone(dev));
                drive_baseline(fs, dev, seed, self.ops)
            }
        }
    }
}

/// Runs the baseline op stream on a concrete engine (the type must stay
/// concrete so both its [`FileSystem`] and [`CrashConsistent`] impls are
/// reachable), returning the oracle.
fn drive_baseline<F>(fs: Arc<F>, dev: &Arc<Mssd>, seed: u64, ops: usize) -> Box<dyn Oracle>
where
    F: FileSystem + CrashConsistent,
{
    let mut rng = Rng::new(seed);
    let mut serial = 0usize;
    let mut files: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for _ in 0..ops {
        if dev.fault_tripped() {
            break;
        }
        match rng.below(10) {
            0..=4 => {
                let path = format!("/f{serial}");
                serial += 1;
                let tag = 1 + rng.below(250) as u8;
                let len = 64 + rng.below(9000) as usize;
                let content = vec![tag; len];
                fs.write_file(&path, &content).ok();
                files.insert(path, content);
            }
            5 | 6 => {
                let Some(path) = nth_key(&files, rng.next_u64()) else { continue };
                let tag = 1 + rng.below(250) as u8;
                let content = vec![tag; 64 + rng.below(9000) as usize];
                fs.write_file(&path, &content).ok();
                files.insert(path, content);
            }
            7 => {
                let Some(path) = nth_key(&files, rng.next_u64()) else { continue };
                fs.unlink(&path).ok();
                files.remove(&path);
            }
            8 => {
                let Some(from) = nth_key(&files, rng.next_u64()) else { continue };
                let to = format!("/r{serial}");
                serial += 1;
                if fs.rename(&from, &to).is_ok() {
                    let c = files.remove(&from).expect("tracked");
                    files.insert(to, c);
                }
            }
            _ => {
                fs.sync().ok();
            }
        }
    }
    // The engine's own structural invariants must hold at the cut instant —
    // the device refused every post-cut mutation, and the host-side
    // structures must not have been corrupted by that.
    let pre_crash = fs.check_invariants();
    Box::new(BaselineOracle { pre_crash })
}

/// Oracle of a [`BaselineStress`] run: pre-crash engine invariants plus
/// post-restore device recovery checks.
struct BaselineOracle {
    pre_crash: Vec<Violation>,
}

impl Oracle for BaselineOracle {
    fn verify(&self, dev: &Arc<Mssd>) -> Vec<Violation> {
        let mut v = self.pre_crash.clone();
        // PageCache mode: recovery is a no-op scan, but flushing the
        // battery-backed cache pages to flash must leave the FTL coherent.
        dev.recover();
        dev.try_flush().expect("no media fault planned");
        for problem in dev.check_consistency() {
            v.push(Violation::new("mssd-ftl", problem));
        }
        v
    }
}

// ---------------------------------------------------------------------------
// Device-level media-fault stress
// ---------------------------------------------------------------------------

/// Mixed-op device workload under NAND media-fault injection: a seeded mix
/// of byte and block writes, read-back checks, TRIMs, flushes and seals
/// against a device whose [`mssd::MediaFaultPlan`] injects transient read
/// errors, permanent program failures and erase failures. Run to completion
/// (no power cut) it proves the RAS layer degrades gracefully — every media
/// casualty is absorbed by ECC/retry/remap or surfaced as a typed
/// [`mssd::FlashError`], never a panic or silent corruption. Under the regular
/// power-cut sweep it proves the durability contract and the persistent
/// bad-block table survive the overlap of both failure modes.
///
/// Because acknowledged data can legitimately be lost to a UECC, the oracle
/// tracks *allowed tag sets* per unit instead of exact expectations: an `Ok`
/// read must return an untorn unit carrying some tag that was actually
/// written there (or the initial zero), and an `Err` read must be the typed
/// transient kind.
#[derive(Debug, Clone)]
pub struct MediaStress {
    /// Number of ops in the stream.
    pub ops: usize,
    /// Media-fault rates installed on the device.
    pub media: MediaFaultConfig,
}

/// First logical page of the media stress's block region (512 KB into the
/// 1 MB device — well clear of the byte slots in the first pages).
const MEDIA_BLOCK_BASE: u64 = 128;

impl MediaStress {
    /// Rates tuned for the acceptance sweep on the shrunken geometry below:
    /// aggressive enough that the stream injects faults of all three kinds,
    /// gentle enough that the spare pool is not exhausted instantly —
    /// read-only degradation stays reachable, not guaranteed.
    pub fn quick() -> Self {
        Self {
            ops: 1500,
            media: MediaFaultConfig {
                seed: 0xBAD_B17,
                read_error_rate: 0.2,
                wear_factor: 0.2,
                hard_read_rate: 0.15,
                program_fail_rate: 0.005,
                erase_fail_rate: 0.15,
                ..MediaFaultConfig::default()
            },
        }
    }
}

impl Scenario for MediaStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        // A deliberately tiny device — 1 MB logical, 50% overprovision —
        // so the op stream actually cycles the block budget: GC erases
        // blocks (the only erase path, hence the only erase-failure prey)
        // and wear accumulates enough for the wear-scaled read-error rate
        // to matter. Byte slots live in the first pages, block pages at
        // [`MEDIA_BLOCK_BASE`]; the log region is kept tiny so seal +
        // drain migrations keep programming flash.
        cfg.capacity_bytes = 1 << 20;
        cfg.overprovision = 0.5;
        cfg.dram_region_bytes = 8 << 10;
        cfg.log_clean_threshold = 0.999;
        cfg.media = MediaFaultPlan::new(self.media.clone());
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        let mut rng = Rng::new(seed);
        let mut o = MediaOracle::default();
        let mut live = Vec::new();
        for _ in 0..self.ops {
            match rng.below(100) {
                // Byte write. A failed write may still have had partial
                // durable effect (read-only tripping mid-op), so the tag is
                // allowed whether the op succeeded or not; the old tags stay
                // allowed because the set never shrinks.
                0..=29 => {
                    let slot = rng.below(SLOTS);
                    let tag = 1 + rng.below(250) as u8;
                    let _ = dev.try_byte_write(slot * 64, &[tag; 64], None, Category::Data);
                    o.allow_line(slot, tag);
                }
                // Block write of 1-2 pages, torn per page.
                30..=54 => {
                    let start = rng.below(BLOCK_PAGES - 1);
                    let count = 1 + rng.below(2);
                    let tag = 1 + rng.below(250) as u8;
                    let _ = dev.try_block_write(
                        MEDIA_BLOCK_BASE + start,
                        &vec![tag; (count * 4096) as usize],
                        Category::Data,
                    );
                    for p in start..start + count {
                        o.allow_page(p, tag);
                    }
                }
                // Byte read-back check against the allowed set.
                55..=69 => {
                    let slot = rng.below(SLOTS);
                    o.check_line(dev, slot, "media-live", &mut live);
                }
                // Block read-back check.
                70..=79 => {
                    let p = rng.below(BLOCK_PAGES);
                    o.check_page(dev, p, "media-live", &mut live);
                }
                // TRIM one block page (it reads as zero afterwards; zero is
                // always allowed, so no oracle update is needed).
                80..=84 => dev.trim(MEDIA_BLOCK_BASE + rng.below(BLOCK_PAGES), 1),
                // NVMe FLUSH (fallible: read-only degradation surfaces here).
                85..=94 => {
                    let _ = dev.try_flush();
                }
                // Seal every shard's active log region.
                _ => dev.seal_log_regions(),
            }
            if dev.fault_tripped() {
                break;
            }
        }
        o.live = live;
        o.bad_blocks_at_cut = dev.bad_blocks();
        Box::new(o)
    }
}

/// Expected durable state of a [`MediaStress`] run: per-unit allowed tag
/// sets plus the bad-block table captured when the run ended.
#[derive(Debug, Default)]
struct MediaOracle {
    /// Cacheline slot → every tag ever written there. Zero (erased /
    /// never-written / trimmed) is always allowed.
    lines: BTreeMap<u64, BTreeSet<u8>>,
    /// Block-region page (relative to [`MEDIA_BLOCK_BASE`]) → tags ever written.
    pages: BTreeMap<u64, BTreeSet<u8>>,
    /// Violations observed while the workload was still running: a read
    /// that returned a never-written tag, a torn unit, or a non-transient
    /// error escaping the typed degradation contract.
    live: Vec<Violation>,
    /// Bad blocks known when the run ended; the table is persistent, so the
    /// restored device must still know every one of them.
    bad_blocks_at_cut: Vec<u64>,
}

impl MediaOracle {
    fn allow_line(&mut self, slot: u64, tag: u8) {
        self.lines.entry(slot).or_default().insert(tag);
    }

    fn allow_page(&mut self, page: u64, tag: u8) {
        self.pages.entry(page).or_default().insert(tag);
    }

    fn admits(set: Option<&BTreeSet<u8>>, tag: u8) -> bool {
        tag == 0 || set.is_some_and(|s| s.contains(&tag))
    }

    /// One byte-unit read check: an `Ok` read must be untorn and carry an
    /// allowed tag; an `Err` read must be the typed transient kind (UECC is
    /// acknowledged data loss reported through the error path — exactly the
    /// degradation contract under test).
    fn check_line(&self, dev: &Arc<Mssd>, slot: u64, domain: &str, v: &mut Vec<Violation>) {
        match dev.try_byte_read(slot * 64, 64, Category::Data) {
            Ok(got) => {
                let tag = got[0];
                if !got.iter().all(|b| *b == tag) {
                    v.push(Violation::new(
                        domain,
                        format!("slot {slot}: torn cacheline (mixes byte values)"),
                    ));
                } else if !Self::admits(self.lines.get(&slot), tag) {
                    v.push(Violation::new(
                        domain,
                        format!("slot {slot}: read tag {tag} was never written there"),
                    ));
                }
            }
            Err(e) if e.is_transient() => {}
            Err(e) => v.push(Violation::new(
                domain,
                format!("slot {slot}: non-transient read error: {e}"),
            )),
        }
    }

    /// One block-page read check; same classification as [`Self::check_line`].
    fn check_page(&self, dev: &Arc<Mssd>, page: u64, domain: &str, v: &mut Vec<Violation>) {
        match dev.try_block_read(MEDIA_BLOCK_BASE + page, 1, Category::Data) {
            Ok(got) => {
                let tag = got[0];
                if !got.iter().all(|b| *b == tag) {
                    v.push(Violation::new(
                        domain,
                        format!("block page {page}: torn page (mixes byte values)"),
                    ));
                } else if !Self::admits(self.pages.get(&page), tag) {
                    v.push(Violation::new(
                        domain,
                        format!("block page {page}: read tag {tag} was never written there"),
                    ));
                }
            }
            Err(e) if e.is_transient() => {}
            Err(e) => v.push(Violation::new(
                domain,
                format!("block page {page}: non-transient read error: {e}"),
            )),
        }
    }
}

impl Oracle for MediaOracle {
    fn verify(&self, dev: &Arc<Mssd>) -> Vec<Violation> {
        let mut v = self.live.clone();
        dev.recover();
        // The bad-block table is persistent state: every block retired
        // before the cut must still be known after the power cycle (more
        // may have been retired since by recovery-time program failures).
        let after: BTreeSet<u64> = dev.bad_blocks().into_iter().collect();
        for &b in &self.bad_blocks_at_cut {
            if !after.contains(&b) {
                v.push(Violation::new(
                    "media-badblock",
                    format!("block {b} retired before the cut is missing from the restored bad-block table"),
                ));
            }
        }
        for &slot in self.lines.keys() {
            self.check_line(dev, slot, "media-data", &mut v);
        }
        for &page in self.pages.keys() {
            self.check_page(dev, page, "media-data", &mut v);
        }
        for problem in dev.check_consistency() {
            v.push(Violation::new("mssd-ftl", problem));
        }
        v
    }
}

// ---------------------------------------------------------------------------
// Fail-slow (hang) stress: the host error-recovery layer under injected
// stalls, lost completions and lane wedges
// ---------------------------------------------------------------------------

/// Logical clients the hang stress spawns as futures.
const HANG_CLIENTS: usize = 6;
/// Reactor lanes the clients share — wedges must be able to strand more than
/// one client's traffic behind a stuck queue.
const HANG_LANES: usize = 2;
/// SQ depth per lane: shallow, so a wedged lane quickly backpressures into
/// parked submitters.
const HANG_DEPTH: usize = 4;
/// 64-byte cacheline slots per client (disjoint ranges in partition 0).
const HANG_SLOTS: u64 = 48;
/// Block pages per client (disjoint ranges in partition 1).
const HANG_PAGES: u64 = 6;

/// Fail-slow crash scenario: `HANG_CLIENTS` logical clients drive seeded
/// command streams through one [`mssd::Runtime`] (deterministic: the
/// calling thread drives it) against a device whose [`mssd::HangFaultPlan`]
/// injects bounded and unbounded stalls, lost completions and lane wedges at
/// the host queue. Every command rides [`mssd::Reactor::submit_with_retry`]: a
/// hang resolves through the deadline wheel (timeout → abort → typed
/// `Aborted` completion) and the shared [`mssd::RetryPolicy`] resubmits it
/// after a seeded backoff on the virtual clock, re-routing around
/// quarantined lanes.
///
/// Run to completion (no power cut) the scenario proves the recovery layer
/// is *exactly-once observable*: although retries are at-least-once at the
/// device (a lost completion's command did execute, and its retry executes
/// again), every command eventually resolves `Ok` with its final value
/// durable exactly as submitted — never duplicated into a torn or stale
/// state, never silently dropped. Under the power-cut sweep the cut lands
/// inside timeout/abort/retry windows too, and the oracle classifies each
/// command by what the host could know:
///
/// * resolved `Ok` with an `Ok` status — the last attempt executed:
///   durable under the normal rules;
/// * resolved `Ok` with a transient error status (retry budget exhausted) —
///   some attempt may or may not have executed: in doubt, old or new value
///   but never torn;
/// * [`mssd::SubmitError::CutConsumed`], or `CutUnsubmitted` *after* at
///   least one retry (an earlier attempt may have executed before being
///   aborted): in doubt;
/// * [`mssd::SubmitError::CutUnsubmitted`] with no prior attempt executed:
///   no durable effect.
///
/// Clients write disjoint cacheline and block-page ranges, so per-location
/// device order is each client's own submission order.
#[derive(Debug, Clone)]
pub struct HangStress {
    /// Number of command batches each client submits.
    pub rounds: usize,
    /// Hang-fault rates installed on the device.
    pub hang: HangFaultConfig,
}

impl HangStress {
    /// Rates tuned for the acceptance sweep: aggressive enough that a run
    /// injects dozens of hangs of all three kinds, bounded enough that the
    /// retry budget (8 attempts) is effectively never exhausted — every
    /// command resolves, which is exactly the recovery property under test.
    pub fn quick() -> Self {
        Self {
            rounds: 30,
            hang: HangFaultConfig {
                seed: 0x4A2E_6B1D,
                stall_rate: 0.10,
                stall_min_ns: 50_000,
                stall_max_ns: 2_000_000,
                unbounded_stall_rate: 0.25,
                loss_rate: 0.06,
                wedge_rate: 0.03,
                ..HangFaultConfig::default()
            },
        }
    }
}

/// What the host learned about one command after retries; drives the
/// oracle's expectation (see [`HangStress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HangOutcome {
    /// The final attempt completed `Ok`: effects exactly durable.
    Done,
    /// Some attempt may have executed, no attempt is known to have: old or
    /// new value, never torn.
    InDoubt,
    /// No attempt was ever consumed: no durable effect.
    Never,
}

/// Classifies one [`mssd::Reactor::submit_with_retry`] result.
fn classify_hang(out: &Result<mssd::Completion, mssd::SubmitError>, retries: u32) -> HangOutcome {
    match out {
        Ok(c) if c.status.is_ok() => HangOutcome::Done,
        // Retry budget exhausted on transient errors (or a non-transient
        // status): the aborted attempts were each executed-or-not.
        Ok(_) => HangOutcome::InDoubt,
        Err(mssd::SubmitError::CutConsumed) => HangOutcome::InDoubt,
        // The final attempt never reached the firmware, but an *earlier*
        // attempt that timed out and was aborted may have executed (a lost
        // completion's command did).
        Err(mssd::SubmitError::CutUnsubmitted) if retries > 0 => HangOutcome::InDoubt,
        Err(mssd::SubmitError::CutUnsubmitted) => HangOutcome::Never,
    }
}

/// Applies one classified command to the oracle. `Done` and `Never` reuse
/// the multi-queue bookkeeping; `InDoubt` differs from a plain power-cut
/// in-doubt only for TRIM, whose earlier aborted attempt may have executed
/// (a cut-consumed TRIM in [`apply_mq_cmd`] is known *not* to have run —
/// TRIM takes no durability step, so the cut preceded it).
fn apply_hang_cmd(
    o: &mut DeviceOracle,
    pending: &mut Vec<(u64, u8, u32)>,
    cmd: MqCmd,
    outcome: HangOutcome,
) {
    match outcome {
        HangOutcome::Done => apply_mq_cmd(o, pending, cmd, true),
        HangOutcome::Never => {}
        HangOutcome::InDoubt => match cmd {
            MqCmd::TrimPage { lba } => {
                let old = o.page_abs_tag(lba);
                o.pages_abs.insert(lba, Expect::Either(old, 0));
            }
            cmd => apply_mq_cmd(o, pending, cmd, false),
        },
    }
}

impl Scenario for HangStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        // Partition 0 holds the clients' byte slots, partition 1 their
        // block pages — the DeviceAsyncStress layout.
        cfg.capacity_bytes = 32 << 20;
        cfg.dram_region_bytes = 16 << 10;
        cfg.log_clean_threshold = 0.999;
        cfg.hang = HangFaultPlan::new(self.hang.clone());
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, seed: u64) -> Box<dyn Oracle> {
        let rt = mssd::Runtime::new(dev, HANG_LANES, HANG_DEPTH);
        let page_size = dev.page_size() as u64;
        let block_base = (16u64 << 20) / page_size; // partition 1
        let rounds = self.rounds;

        let handles: Vec<_> = (0..HANG_CLIENTS)
            .map(|c| {
                let reactor = Arc::clone(rt.reactor());
                let dev = Arc::clone(dev);
                rt.spawn(async move {
                    let mut rng = Rng::new(seed.wrapping_add((c as u64 + 1) << 8));
                    let mut tx = TxId(((c as u32) + 1) << 16);
                    // The current transaction is *poisoned* once any write
                    // under it (or any non-transactional overwrite of a slot
                    // it has pending) resolves in doubt: the client abandons
                    // it instead of committing, so the maybe-executed chunks
                    // stay uncommitted and recovery discards them — the only
                    // outcome the oracle can still bound.
                    let mut poisoned = false;
                    // Slots with a pending (uncommitted) write of `tx`.
                    let mut tx_slots: BTreeSet<u64> = BTreeSet::new();
                    let policy = mssd::RetryPolicy::default()
                        .with_seed(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let line_base = c as u64 * HANG_SLOTS;
                    let page_base = block_base + c as u64 * HANG_PAGES;
                    let mut log: Vec<(MqCmd, HangOutcome)> = Vec::new();
                    'rounds: for _ in 0..rounds {
                        let run_len = 1 + rng.below(3);
                        let base_slot = rng.below(HANG_SLOTS - run_len);
                        let tag = 1 + rng.below(250) as u8;
                        let transactional = rng.below(3) == 0;
                        let mut batch: Vec<(mssd::Command, MqCmd)> = Vec::new();
                        for i in 0..run_len {
                            let line = line_base + base_slot + i;
                            let t = tag.wrapping_add(i as u8);
                            batch.push((
                                mssd::Command::ByteWrite {
                                    addr: line * 64,
                                    data: vec![t; 64],
                                    txid: transactional.then_some(tx),
                                    cat: Category::Data,
                                },
                                MqCmd::Line { line, tag: t, txid: transactional.then_some(tx.0) },
                            ));
                        }
                        let mut commit_after = false;
                        match rng.below(8) {
                            0 if transactional => commit_after = true,
                            1 | 2 => {
                                let lba = page_base + rng.below(HANG_PAGES);
                                let ptag = 1 + rng.below(250) as u8;
                                batch.push((
                                    mssd::Command::BlockWrite {
                                        lba,
                                        data: vec![ptag; page_size as usize],
                                        cat: Category::Data,
                                    },
                                    MqCmd::Page { lba, tag: ptag },
                                ));
                            }
                            3 => {
                                let lba = page_base + rng.below(HANG_PAGES);
                                batch.push((
                                    mssd::Command::Trim { lba, count: 1 },
                                    MqCmd::TrimPage { lba },
                                ));
                            }
                            4 => {
                                batch.push((mssd::Command::Flush, MqCmd::Flush));
                            }
                            _ => {}
                        }
                        for (cmd, desc) in batch {
                            let (out, retries) = reactor.submit_with_retry(c, cmd, policy).await;
                            let outcome = classify_hang(&out, retries);
                            match &desc {
                                MqCmd::Line { line, txid: Some(_), .. } => match outcome {
                                    HangOutcome::Done => {
                                        tx_slots.insert(*line);
                                        log.push((desc, outcome));
                                    }
                                    // A maybe-executed transactional chunk:
                                    // abandon the transaction (below) so it
                                    // is never committed — then it has no
                                    // durable effect either way.
                                    HangOutcome::InDoubt => {
                                        poisoned = true;
                                        log.push((desc, HangOutcome::Never));
                                    }
                                    HangOutcome::Never => log.push((desc, outcome)),
                                },
                                MqCmd::Line { line, txid: None, .. } => {
                                    // An in-doubt overwrite of a slot with a
                                    // pending chunk makes the slot's fate
                                    // three-valued (old / chunk / new) if the
                                    // transaction still commits; abandoning
                                    // it keeps the outcome two-valued.
                                    if outcome == HangOutcome::InDoubt && tx_slots.contains(line) {
                                        poisoned = true;
                                    }
                                    if outcome == HangOutcome::Done {
                                        tx_slots.remove(line);
                                    }
                                    log.push((desc, outcome));
                                }
                                _ => log.push((desc, outcome)),
                            }
                            if dev.fault_tripped() {
                                break 'rounds;
                            }
                        }
                        if commit_after {
                            if poisoned {
                                // Abandoned: the maybe-executed writes stay
                                // uncommitted forever; no commit is logged,
                                // so the replay drops their pending entries.
                                tx = TxId(tx.0 + 1);
                                poisoned = false;
                                tx_slots.clear();
                            } else {
                                let (out, retries) = reactor
                                    .submit_with_retry(
                                        c,
                                        mssd::Command::Commit { txid: tx },
                                        policy,
                                    )
                                    .await;
                                log.push((
                                    MqCmd::Commit { txid: tx.0 },
                                    classify_hang(&out, retries),
                                ));
                                tx = TxId(tx.0 + 1);
                                tx_slots.clear();
                                if dev.fault_tripped() {
                                    break 'rounds;
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        let logs = rt.block_on(async move {
            let mut v = Vec::with_capacity(handles.len());
            for h in handles {
                v.push(h.await);
            }
            v
        });

        // Locations are disjoint per client, so replaying each client's log
        // in its own submission order reconstructs per-location device
        // order (at-least-once duplicates re-append the same bytes, which
        // per-slot merge collapses to the same value).
        let mut o = DeviceOracle::default();
        for log in logs {
            let mut pending: Vec<(u64, u8, u32)> = Vec::new();
            for (cmd, outcome) in log {
                apply_hang_cmd(&mut o, &mut pending, cmd, outcome);
            }
        }
        Box::new(o)
    }
}

// ---------------------------------------------------------------------------
// Recorded-trace replay stress
// ---------------------------------------------------------------------------

/// Crash scenario that re-drives a recorded [`workloads::OpTrace`] against
/// ByteFS with power cut at an enumerated step — "what if the machine died
/// at step N of this captured production trace?".
///
/// Unlike the seeded stresses, the op stream is fixed by the trace: the
/// sweep's seed only varies *where* the cuts land, not *what* runs. The
/// oracle tracks a conservative shadow of durable state — a file's content
/// is only checked when its last completed op left it clean (no writes
/// since an `fsync`/`fdatasync`/`sync`); dirty files, and any path the
/// in-doubt op may have touched, are skipped, and absence is never checked
/// (matching [`FsStress`]'s contract).
#[derive(Debug, Clone)]
pub struct ReplayStress {
    /// The recorded op trace the scenario re-drives (timing is ignored;
    /// records are applied sequentially in `seq` order).
    pub trace: OpTrace,
}

impl ReplayStress {
    /// Wraps an externally recorded trace.
    pub fn new(trace: OpTrace) -> Self {
        Self { trace }
    }

    /// Default sweep trace: the CI-runner-churn replay-corpus scenario
    /// (checkout → build → clean rounds) recorded on ByteFS at a scale
    /// yielding a few hundred file-system calls.
    pub fn quick() -> Self {
        let mut cfg = MssdConfig::small_test();
        cfg.capacity_bytes = 64 << 20;
        let recorded =
            record_corpus(CorpusKind::CiChurn, FsKind::ByteFs, cfg, Scale::new(0.25), 11)
                .expect("recording the CI-churn corpus trace");
        Self { trace: recorded.trace }
    }
}

/// Per-file shadow state of a [`ReplayStress`] run.
#[derive(Debug, Clone, Default)]
struct ShadowFile {
    /// Logical content after every completed op (durable or not).
    current: Vec<u8>,
    /// Content at the last completed sync point, if any.
    synced: Option<Vec<u8>>,
    /// `true` when `current` has diverged from `synced` (writes since the
    /// last sync) — the oracle then skips the file entirely.
    dirty: bool,
}

impl ShadowFile {
    fn flush(&mut self) {
        self.synced = Some(self.current.clone());
        self.dirty = false;
    }
}

/// Expected durable state of a [`ReplayStress`] run.
struct ReplayOracle {
    files: BTreeMap<String, ShadowFile>,
    dirs: BTreeSet<String>,
    /// Paths the op straddled by the cut may have altered.
    in_doubt: BTreeSet<String>,
    formatted: bool,
}

impl Scenario for ReplayStress {
    fn device_config(&self) -> MssdConfig {
        let mut cfg = MssdConfig::small_test();
        cfg.capacity_bytes = 64 << 20;
        if self.trace.meta.capacity_bytes != 0 {
            cfg.capacity_bytes = self.trace.meta.capacity_bytes;
        }
        if self.trace.meta.page_size != 0 {
            cfg.page_size = self.trace.meta.page_size as usize;
        }
        cfg
    }

    fn run(&self, dev: &Arc<Mssd>, _seed: u64) -> Box<dyn Oracle> {
        let mut o = ReplayOracle {
            files: BTreeMap::new(),
            dirs: BTreeSet::new(),
            in_doubt: BTreeSet::new(),
            formatted: false,
        };
        let fs = match ByteFs::format(Arc::clone(dev), ByteFsConfig::full()) {
            Ok(fs) => fs,
            Err(_) => return Box::new(o),
        };
        if dev.fault_tripped() {
            return Box::new(o);
        }
        o.formatted = true;

        // Recorded fd -> live handle / path. The trace is applied strictly
        // in `seq` order (single stream), so recorded fds are unique enough
        // without the tenant qualifier the timed replayer uses.
        let mut fds: HashMap<u64, Fd> = HashMap::new();
        let mut fd_paths: HashMap<u64, String> = HashMap::new();

        for rec in &self.trace.records {
            let touched = apply_replay_record(&*fs, rec, &mut fds, &mut fd_paths, dev, &mut o);
            if dev.fault_tripped() {
                o.in_doubt.extend(touched);
                break;
            }
        }
        Box::new(o)
    }
}

/// Applies one trace record to the live fs; when the call completes without
/// tripping the fault, folds its durability effect into the oracle's
/// shadow. Returns the paths whose durable state the op may alter (they
/// become in-doubt if the cut lands inside the op).
fn apply_replay_record(
    fs: &dyn FileSystem,
    rec: &workloads::OpRecord,
    fds: &mut HashMap<u64, Fd>,
    fd_paths: &mut HashMap<u64, String>,
    dev: &Arc<Mssd>,
    o: &mut ReplayOracle,
) -> Vec<String> {
    use workloads::replay::{open_flags, NO_FD};
    use workloads::OpKind;

    let path_of = |fd_paths: &HashMap<u64, String>, fd: &u64| fd_paths.get(fd).cloned();
    match &rec.op {
        OpKind::Create { path, fd } => {
            let live = fs.create(path).ok();
            if let Some(h) = live {
                if *fd == NO_FD {
                    fs.close(h).ok();
                } else {
                    fds.insert(*fd, h);
                    fd_paths.insert(*fd, path.clone());
                }
            }
            if !dev.fault_tripped() && live.is_some() {
                // create truncates an existing file, so the old synced
                // content no longer binds: mark dirty until the next sync.
                let f = o.files.entry(path.clone()).or_default();
                f.current.clear();
                f.dirty = true;
            }
            vec![path.clone()]
        }
        OpKind::Open { path, flags, fd } => {
            let fl = open_flags(*flags);
            let live = fs.open(path, fl).ok();
            if let Some(h) = live {
                if *fd == NO_FD {
                    fs.close(h).ok();
                } else {
                    fds.insert(*fd, h);
                    fd_paths.insert(*fd, path.clone());
                }
            }
            if !dev.fault_tripped() && live.is_some() && (fl.truncate || fl.create) {
                let f = o.files.entry(path.clone()).or_default();
                if fl.truncate {
                    f.current.clear();
                    f.dirty = true;
                }
            }
            if fl.truncate {
                vec![path.clone()]
            } else {
                Vec::new()
            }
        }
        OpKind::Close { fd } => {
            if let Some(h) = fds.remove(fd) {
                fs.close(h).ok();
            }
            fd_paths.remove(fd);
            Vec::new()
        }
        OpKind::Read { fd, offset, len } => {
            if let Some(h) = fds.get(fd) {
                fs.read(*h, *offset, *len as usize).ok();
            }
            Vec::new()
        }
        OpKind::Write { fd, offset, data } => {
            let buf = data.to_vec();
            if let Some(h) = fds.get(fd) {
                fs.write(*h, *offset, &buf).ok();
            }
            let path = path_of(fd_paths, fd);
            if !dev.fault_tripped() {
                if let Some(f) = path.as_ref().and_then(|p| o.files.get_mut(p)) {
                    let end = *offset as usize + buf.len();
                    if f.current.len() < end {
                        f.current.resize(end, 0);
                    }
                    f.current[*offset as usize..end].copy_from_slice(&buf);
                    f.dirty = true;
                }
            }
            path.into_iter().collect()
        }
        OpKind::Append { fd, data } => {
            let buf = data.to_vec();
            if let Some(h) = fds.get(fd) {
                fs.append(*h, &buf).ok();
            }
            let path = path_of(fd_paths, fd);
            if !dev.fault_tripped() {
                if let Some(f) = path.as_ref().and_then(|p| o.files.get_mut(p)) {
                    f.current.extend_from_slice(&buf);
                    f.dirty = true;
                }
            }
            path.into_iter().collect()
        }
        OpKind::Truncate { fd, size } => {
            if let Some(h) = fds.get(fd) {
                fs.truncate(*h, *size).ok();
            }
            let path = path_of(fd_paths, fd);
            if !dev.fault_tripped() {
                if let Some(f) = path.as_ref().and_then(|p| o.files.get_mut(p)) {
                    f.current.resize(*size as usize, 0);
                    f.dirty = true;
                }
            }
            path.into_iter().collect()
        }
        OpKind::Fsync { fd } | OpKind::Fdatasync { fd } => {
            if let Some(h) = fds.get(fd) {
                match &rec.op {
                    OpKind::Fdatasync { .. } => fs.fdatasync(*h).ok(),
                    _ => fs.fsync(*h).ok(),
                };
            }
            let path = path_of(fd_paths, fd);
            if !dev.fault_tripped() {
                if let Some(f) = path.as_ref().and_then(|p| o.files.get_mut(p)) {
                    f.flush();
                }
            }
            path.into_iter().collect()
        }
        OpKind::Fstat { fd } => {
            if let Some(h) = fds.get(fd) {
                fs.fstat(*h).ok();
            }
            Vec::new()
        }
        OpKind::Stat { path } => {
            fs.stat(path).ok();
            Vec::new()
        }
        OpKind::Mkdir { path } => {
            fs.mkdir(path).ok();
            if !dev.fault_tripped() {
                o.dirs.insert(path.clone());
            }
            vec![path.clone()]
        }
        OpKind::Rmdir { path } => {
            fs.rmdir(path).ok();
            if !dev.fault_tripped() {
                o.dirs.remove(path);
            }
            vec![path.clone()]
        }
        OpKind::Unlink { path } => {
            fs.unlink(path).ok();
            if !dev.fault_tripped() {
                o.files.remove(path);
            }
            vec![path.clone()]
        }
        OpKind::Rename { from, to } => {
            fs.rename(from, to).ok();
            if !dev.fault_tripped() {
                if let Some(f) = o.files.remove(from) {
                    o.files.insert(to.clone(), f);
                }
                if o.dirs.remove(from) {
                    o.dirs.insert(to.clone());
                }
            }
            vec![from.clone(), to.clone()]
        }
        OpKind::Readdir { path } => {
            fs.readdir(path).ok();
            Vec::new()
        }
        // A completed whole-fs sync flushes every file; an in-doubt one may
        // have flushed any subset, but that only *adds* durability: clean
        // files are unchanged by it and dirty files are skipped anyway, so
        // nothing becomes in-doubt.
        OpKind::Sync | OpKind::Unmount => {
            match &rec.op {
                OpKind::Sync => fs.sync().ok(),
                _ => fs.unmount().ok(),
            };
            if !dev.fault_tripped() {
                for f in o.files.values_mut() {
                    f.flush();
                }
            }
            Vec::new()
        }
        OpKind::DropCaches => {
            fs.drop_caches();
            Vec::new()
        }
    }
}

impl Oracle for ReplayOracle {
    fn verify(&self, dev: &Arc<Mssd>) -> Vec<Violation> {
        let mut v = Vec::new();
        dev.recover();
        if !self.formatted {
            for problem in dev.check_consistency() {
                v.push(Violation::new("mssd-ftl", problem));
            }
            return v;
        }
        let fs = match ByteFs::mount(Arc::clone(dev), ByteFsConfig::full()) {
            Ok(fs) => fs,
            Err(e) => {
                v.push(Violation::new("fs-mount", format!("remount failed: {e}")));
                return v;
            }
        };
        for dir in &self.dirs {
            if self.in_doubt.contains(dir) {
                continue;
            }
            if !fs.exists(dir) {
                v.push(Violation::new("replay-namespace", format!("{dir}: committed mkdir lost")));
            }
        }
        for (path, shadow) in &self.files {
            if shadow.dirty || self.in_doubt.contains(path) {
                continue;
            }
            let Some(synced) = &shadow.synced else { continue };
            match fs.read_file(path) {
                Ok(got) if &got == synced => {}
                Ok(got) => v.push(Violation::new(
                    "replay-data",
                    format!(
                        "{path}: {} bytes read, {} expected (synced content diverged)",
                        got.len(),
                        synced.len()
                    ),
                )),
                Err(e) => v.push(Violation::new(
                    "replay-data",
                    format!("{path}: fsynced file lost ({e})"),
                )),
            }
        }
        v
    }
}
