//! # fskit — shared file-system substrate for the ByteFS reproduction
//!
//! This crate holds everything the ByteFS file system and the baseline file
//! systems (Ext4-like, F2FS-like, NOVA-like, PMFS-like) have in common:
//!
//! * the [`FileSystem`] trait — a POSIX-flavoured API (create/open/read/write/
//!   fsync/mkdir/rename/...) that every file system in this workspace
//!   implements, so workloads and the benchmark harness are file-system
//!   agnostic;
//! * [`error`] — the shared error type;
//! * [`path`] — path normalization and traversal helpers;
//! * [`pagecache`] — the host page cache, including the copy-on-write
//!   duplicate pages and XOR-based dirty-chunk detection that ByteFS uses to
//!   choose between the byte and block interface on writeback (§4.6);
//! * [`journal`] — a JBD2-style block journal used by the Ext4-like
//!   baseline;
//! * [`blockrun`] — block writeback by the run: pages bound for consecutive
//!   LBAs leave as one scatter-gather command.
//!
//! ```
//! use fskit::{FileSystem, OpenFlags};
//! # fn demo(fs: &dyn FileSystem) -> fskit::FsResult<()> {
//! let fd = fs.create("/hello.txt")?;
//! fs.write(fd, 0, b"hi there")?;
//! fs.fsync(fd)?;
//! assert_eq!(fs.read(fd, 0, 2)?, b"hi");
//! fs.close(fd)?;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blockrun;
pub mod check;
pub mod error;
pub mod fs;
pub mod journal;
pub mod pagecache;
pub mod path;
pub mod types;

pub use check::{CrashConsistent, Violation};
pub use error::{FsError, FsResult};
pub use fs::{FileSystem, FileSystemExt};
pub use types::{DirEntry, Fd, FileType, Metadata, OpenFlags};
