//! # bytefs — the ByteFS file system (ASPLOS'25) in Rust
//!
//! ByteFS is a file system for memory-semantic SSDs (M-SSDs) that exposes both
//! a byte interface (PCIe/CXL MMIO) and a block interface (NVMe). This crate
//! is the host-side half of the paper's co-design; the firmware half (the
//! log-structured device DRAM, TxLog, `COMMIT`/`RECOVER` commands) lives in
//! the [`mssd`] crate.
//!
//! The headline ideas, and where they live here:
//!
//! * **Dual-interface metadata** (§4.5) — inodes, bitmaps, directory entries
//!   and extent nodes are *read* in whole blocks (to exploit locality and the
//!   host metadata cache) but *persisted* as 64–320 byte byte-interface writes:
//!   [`inode`], [`alloc`], [`dentry`], [`extent`].
//! * **Interface selection for data** (§4.6) — direct I/O picks the interface
//!   by request size (≤ 512 B → byte), buffered writeback picks it by the
//!   XOR-derived modified ratio (R < 1/8 → byte): [`policy`] plus the CoW page
//!   cache in [`fskit::pagecache`].
//! * **Transactions over the firmware write log** (§4.3, §4.7) — every
//!   metadata update is a TxID-tagged byte write; commit is one `COMMIT(TxID)`
//!   command; recovery replays the committed prefix: [`txn`] and
//!   [`ByteFs::recover_after_crash`].
//!
//! # Concurrency model
//!
//! `ByteFs` has no global lock: many threads may operate on one
//! `Arc<ByteFs>` concurrently. Synchronization is fine-grained —
//!
//! * a **namespace `RwLock`** serializes metadata mutations (create, unlink,
//!   mkdir, rmdir, rename) against each other while path resolution and
//!   `readdir` share it for read;
//! * the **inode table is lock-striped** and each inode carries its own
//!   `RwLock`, so reads/writes/fsyncs of different files run in parallel;
//! * the **page cache is lock-striped** by `(inode, page index)`
//!   ([`fskit::pagecache::ShardedPageCache`]), with a lock-free dirty-page
//!   count;
//! * the **allocators** ([`alloc::SharedBitmap`]) admit or reject
//!   allocations on an atomic free-space counter without a lock;
//! * **TxIDs** come from an atomic counter ([`txn::SharedTxTable`]).
//!
//! The lock order is `namespace → inode shard → inode → page-cache shard →
//! allocator → journal/txtable → device`; see [`fs`] for the full rules and
//! why they are deadlock-free.
//!
//! # Durability contract
//!
//! What ByteFS promises across a power failure, building on the device
//! contract in [`mssd`] (battery-backed write log + TxLog, `COMMIT` =
//! durable, `RECOVER` discards uncommitted entries):
//!
//! * **Completed metadata operations are durable.** Every `create`/`mkdir`/
//!   `unlink`/`rmdir`/`rename` persists all of its metadata inside one
//!   firmware transaction and commits before returning; once the call
//!   returns, the operation survives any crash point.
//! * **`fsync`/`fdatasync` returning means the data is durable.** Dirty
//!   pages are written (byte or block interface per the §4.6 policy) and the
//!   inode update committed before the call returns.
//! * **Data complete → `COMMIT`: the one ordering point of an fsync, kept
//!   by the device.** The block-interface data runs are *submitted*
//!   ([`mssd::Mssd::submit_block_write_pages`]) and cross the link while the
//!   TxID-tagged metadata stores go out over the byte interface — both
//!   interfaces of the device serve the one operation at once.
//!   [`txn::Txn::commit`] then submits `COMMIT(TxID)` behind the data
//!   ([`mssd::Mssd::submit_commit`]) and waits once: the firmware never
//!   applies the commit record before the data it makes reachable is
//!   complete, the call returns only once the record is, and nothing else is
//!   ordered (`tests/fsync_ordering.rs` reads this off the device trace). The
//!   same holds for `sync` and for `O_DIRECT` writes.
//! * **Stores → `COMMIT`, whose completion is the persistence barrier.** The
//!   record's doorbell cannot pass the metadata stores posted before it, so
//!   its completion also says they are in device DRAM, and no write-verify
//!   read precedes it — except where the interconnect does not order stores
//!   with commands ([`mssd::MssdConfig::stores_ordered_with_commands`]: the
//!   CXL profile). Without firmware transactions (ByteFS-Dual) no record
//!   follows the stores and the read stays.
//! * **A failed `fsync` launders nothing.** Blocks are allocated at
//!   writeback, so `fsync` can fail with `NoSpace`; every page it took is
//!   then dirty again, with its CoW original, and so is the inode — the next
//!   `fsync` fails too or persists every byte (`tests/failed_fsync.rs`).
//! * **Unsynced writes may vanish, or reach the device early, as a
//!   page-aligned prefix, but never corrupt.** Buffered data that was never
//!   fsynced lives in the host page cache until a write pushes the dirty
//!   pages past [`ByteFs::dirty_limit`]; the writeback pass that follows
//!   commits whole pages and holds back each file's unallocated partial EOF
//!   page, so a crash recovers a page-aligned prefix of the written bytes
//!   (never shorter than the last fsync, never a zero-filled tail;
//!   `tests/dirty_limit.rs`). A crash loses the rest without affecting any
//!   committed state — after recovery the volume
//!   passes [`ByteFs::fsck`] (the [`fskit::check::CrashConsistent`]
//!   implementation in [`check`]) at every enumerated crash point, which the
//!   `crashkit` crate verifies exhaustively.
//!
//! ```
//! use bytefs::{ByteFs, ByteFsConfig};
//! use fskit::{FileSystem, FileSystemExt};
//! use mssd::{Mssd, MssdConfig, DramMode};
//!
//! # fn main() -> fskit::FsResult<()> {
//! let device = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
//! let fs = ByteFs::format(device, ByteFsConfig::default())?;
//! fs.mkdir("/mail")?;
//! fs.write_file("/mail/msg1", b"hello m-ssd")?;
//! assert_eq!(fs.read_file("/mail/msg1")?, b"hello m-ssd");
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod check;
pub mod dentry;
pub mod extent;
pub mod fs;
pub mod inode;
pub mod layout;
pub mod policy;
pub mod superblock;
pub mod txn;

pub use fs::ByteFs;
pub use policy::{ByteFsConfig, InterfaceChoice};
