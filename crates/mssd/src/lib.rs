//! # mssd — a memory-semantic SSD (M-SSD) device model
//!
//! This crate models the storage device that the ByteFS paper (ASPLOS'25)
//! targets: a flash SSD that exposes **two** host interfaces at once,
//!
//! * a **byte interface**: PCIe/CXL memory-mapped loads and stores that land in
//!   battery-backed device DRAM, and
//! * a **block interface**: conventional NVMe 4 KB reads and writes.
//!
//! The model is a discrete-event style simulation on a virtual clock. Every
//! host-visible operation charges latency derived from the paper's Table 1 and
//! Table 4 and records traffic statistics (host↔SSD bytes by file-system data
//! structure category, and internal flash page reads/writes/erases).
//!
//! The firmware side implements the paper's §4.3 design: the device DRAM can be
//! managed either as a conventional page-granular cache (used by the baseline
//! file systems) or as a **log-structured write log** behind a three-layer
//! index (partition table → ordered page map → chunk list; see [`log`]), with
//! log cleaning inside the byte write that crosses the threshold,
//! per-transaction commit records (TxLog), and a `RECOVER()` path that
//! replays committed entries after a crash.
//!
//! The device executes concurrently along the hardware's own seams, with the
//! lock order **log shard → txlog → flash channel → L2P stripe** (and
//! **cache shard → flash channel → L2P stripe** in baseline mode; see
//! [`device`] for the full discipline):
//!
//! * the write-log index is sharded by the paper's 16 MB partition key and
//!   **double-buffered**: the byte write that crosses the cleaning threshold
//!   seals each shard's active region and drains the sealed region page by
//!   page, off the virtual clock, so cleaning stays off the host's critical
//!   path ([`log::ShardedWriteLog`]);
//! * the flash path is **channel-parallel**: a lock-striped L2P table over
//!   per-channel flash units — active block, free list, page store, write
//!   buffer slice, greedy GC — each behind its own lock
//!   ([`ftl::ShardedFtl`] over [`flash::ChannelFlash`]);
//! * the baseline device cache is lock-striped by LPA
//!   ([`dram_cache::ShardedDramCache`]), each shard an evict-any-page LRU
//!   policy over [`pages::PageStore`], the one page store that fskit's host
//!   page cache (evicting clean pages only) sits on too.
//!
//! The property tests in `tests/channel_parallel_equiv.rs` and
//! `tests/sharded_log_equiv.rs` hold the FTL and the write log to small
//! executable specs: a map from page to bytes, and per-page chunk lists with
//! a flash page map.
//!
//! # Durability contract
//!
//! [`spec::DurabilitySpec`] states what the device promises across a power
//! failure, and `crashkit` enumerates crash points to hold it to the promise.
//! The write log, the TxLog, the FTL write buffer and (in baseline mode) the
//! device page cache are battery-backed: [`device::CrashImage`] captures
//! precisely this set plus NAND contents. NVMe FLUSH therefore adds nothing
//! to durability, and sealing, drains, GC and erasure move data between
//! durable homes without weakening the contract at any step.
//!
//! Every durability-relevant step passes through the [`fault::FaultPlan`]
//! installed in [`MssdConfig::fault`], which can count the steps and cut
//! power at any chosen one; see [`fault`] and `crates/crashkit/DESIGN.md`.
//!
//! Every data command is one fallible call (`try_*`) returning the device's
//! typed media error, [`FlashError`]; there is no panicking form.
//!
//! ```
//! use mssd::{Mssd, MssdConfig, DramMode, Category};
//!
//! # fn main() -> Result<(), mssd::FlashError> {
//! let cfg = MssdConfig::small_test();
//! let dev = Mssd::new(cfg, DramMode::WriteLog);
//! // Byte-granular persistent write of one cacheline at device address 4096.
//! dev.try_byte_write(4096, &[7u8; 64], None, Category::Inode)?;
//! let back = dev.try_byte_read(4096, 64, Category::Inode)?;
//! assert_eq!(back, vec![7u8; 64]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod config;
pub mod device;
pub mod dram_cache;
pub mod ecc;
pub mod fault;
pub mod flash;
pub mod ftl;
pub mod log;
pub mod pages;
pub mod queue;
pub mod reactor;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod txn;

pub use clock::Clock;
pub use config::{MssdConfig, TimingProfile};
pub use device::{CrashImage, DramMode, InFlight, Mssd};
pub use dram_cache::{DramPageCache, ShardedDramCache, CACHE_SHARDS};
pub use ecc::{EccOutcome, PageParity, ECC_DETECT, ECC_T};
pub use fault::{
    FaultKind, FaultPlan, HangFault, HangFaultConfig, HangFaultPlan, HangOpKind, MediaFaultConfig,
    MediaFaultPlan, MediaOpKind,
};
pub use flash::{ChannelFlash, FlashError};
pub use ftl::{ShardedFtl, L2P_STRIPES};
pub use log::{ShardedWriteLog, LOG_SHARDS};
pub use pages::PageRef;
pub use queue::{
    AbortOutcome, Command, CommandId, Completion, HostQueue, QueueFull, ResetMode, ResetReport,
    WaitError,
};
pub use reactor::{
    Executor, JoinHandle, Reactor, RetryPolicy, Runtime, SubmitError, DEFAULT_COMMAND_TIMEOUT_NS,
};
pub use stats::{
    AtomicTraffic, Category, Interface, QueueLat, StatsSnapshot, TrafficCounter, QUEUE_SLOTS,
};
pub use trace::{
    chrome_trace_json, CtxScope, TraceCtx, TraceDump, TraceEvent, TraceKind, TraceSink,
};
pub use txn::TxId;

/// Size of one cacheline, the unit of byte-interface transfers and of write-log
/// entries (§4.3: "The written data is appended at the log tail as a
/// 64B-aligned data entry").
pub const CACHELINE: usize = 64;

/// Size of one flash page / logical block exposed by the block interface.
pub const PAGE_SIZE: usize = 4096;

/// Number of cachelines in a flash page.
pub const LINES_PER_PAGE: usize = PAGE_SIZE / CACHELINE;
