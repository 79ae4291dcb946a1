//! The [`FileSystem`] trait: the POSIX-flavoured API every file system in this
//! workspace implements.
//!
//! Workloads, the KV store and the benchmark harness only ever talk to
//! `dyn FileSystem`, so the same workload code measures ByteFS and all four
//! baselines.

use std::sync::Arc;

use mssd::{Clock, HostQueue, Mssd};

use crate::error::FsResult;
use crate::types::{DirEntry, Fd, Metadata, OpenFlags};

/// A mounted file system on top of an [`Mssd`] device.
///
/// All methods take `&self`; implementations use interior mutability and are
/// safe to share across threads (`Send + Sync`), mirroring how a kernel file
/// system serves many processes at once. Multi-threaded drivers rely on this
/// being real concurrency safety, not just compile-time markers: any
/// interleaving of calls from different threads must leave the volume
/// coherent (each call atomic with respect to the others), though how much
/// actually runs in *parallel* is the implementation's business — from one
/// global lock (the baselines) to fully sharded locking (ByteFS).
pub trait FileSystem: Send + Sync {
    /// A short, stable name such as `"bytefs"`, `"ext4"`, `"nova"` — used as
    /// the key in benchmark reports.
    fn name(&self) -> &'static str;

    /// The device this file system is mounted on.
    fn device(&self) -> &Arc<Mssd>;

    /// The shared virtual clock (convenience accessor; equivalent to
    /// `self.device().clock()`).
    fn clock(&self) -> Arc<Clock> {
        self.device().clock()
    }

    /// Opens a queued device handle: an NVMe-style submission/completion
    /// queue pair of the given depth on this file system's device (see
    /// [`mssd::queue`]). Each queue belongs to one submitting client, so
    /// device traffic and latency are attributed per queue.
    fn open_queue(&self, depth: usize) -> HostQueue {
        self.device().open_queue(depth)
    }

    /// Creates a regular file (failing if it already exists) and opens it
    /// read-write.
    fn create(&self, path: &str) -> FsResult<Fd>;

    /// Opens an existing file, or creates it when `flags.create` is set.
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd>;

    /// Closes an open file handle.
    fn close(&self, fd: Fd) -> FsResult<()>;

    /// Reads up to `len` bytes at byte offset `offset`. Returns fewer bytes at
    /// end of file, and an empty vector at or beyond EOF.
    fn read(&self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>>;

    /// Writes `data` at byte offset `offset`, extending the file if needed.
    /// Returns the number of bytes written.
    fn write(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize>;

    /// Appends `data` at the end of the file.
    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let size = self.fstat(fd)?.size;
        self.write(fd, size, data)
    }

    /// Makes the file's data and metadata durable.
    fn fsync(&self, fd: Fd) -> FsResult<()>;

    /// Makes the file's data durable; metadata that is not needed to read the
    /// data back (e.g. timestamps) may be deferred. Defaults to [`fsync`].
    ///
    /// [`fsync`]: FileSystem::fsync
    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        self.fsync(fd)
    }

    /// Truncates (or extends with zeros) the file to `size` bytes.
    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()>;

    /// Metadata of an open file.
    fn fstat(&self, fd: Fd) -> FsResult<Metadata>;

    /// Metadata of the object at `path`.
    fn stat(&self, path: &str) -> FsResult<Metadata>;

    /// `true` if `path` exists.
    fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    /// Creates a directory (parents must already exist).
    fn mkdir(&self, path: &str) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&self, path: &str) -> FsResult<()>;

    /// Removes a regular file.
    fn unlink(&self, path: &str) -> FsResult<()>;

    /// Renames a file or directory. The destination must not exist.
    fn rename(&self, from: &str, to: &str) -> FsResult<()>;

    /// Lists the entries of a directory (excluding `.` and `..`).
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>>;

    /// Flushes all dirty state of the whole file system (like `sync(2)`).
    fn sync(&self) -> FsResult<()>;

    /// Drops clean host-side caches (page cache, metadata caches), like
    /// `echo 3 > /proc/sys/vm/drop_caches`. Dirty state is not lost. The
    /// measurement harness calls this between the setup and measured phases.
    fn drop_caches(&self) {}

    /// Unmounts: flush everything and release in-memory state. The default
    /// implementation just calls [`sync`].
    ///
    /// [`sync`]: FileSystem::sync
    fn unmount(&self) -> FsResult<()> {
        self.sync()
    }
}

/// Convenience helpers layered on top of [`FileSystem`]; blanket-implemented
/// for every file system.
pub trait FileSystemExt: FileSystem {
    /// Writes a whole file in one call: create (truncating), write, fsync,
    /// close.
    fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        let fd = self.open(path, OpenFlags::create_truncate())?;
        self.write(fd, 0, data)?;
        self.fsync(fd)?;
        self.close(fd)
    }

    /// Reads a whole file into memory.
    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::read_only())?;
        let size = self.fstat(fd)?.size as usize;
        let data = self.read(fd, 0, size)?;
        self.close(fd)?;
        Ok(data)
    }

    /// Creates every directory along `path` that does not exist yet
    /// (`mkdir -p`).
    fn mkdir_all(&self, path: &str) -> FsResult<()> {
        let comps = crate::path::components(path)?;
        let mut cur = String::from("/");
        for c in comps {
            cur = crate::path::join(&cur, c);
            if !self.exists(&cur) {
                self.mkdir(&cur)?;
            }
        }
        Ok(())
    }
}

impl<T: FileSystem + ?Sized> FileSystemExt for T {}

#[cfg(test)]
mod tests {
    // The trait itself is exercised end-to-end by the `bytefs` and `baselines`
    // crates and by the workspace integration tests; here we only check that
    // it stays object-safe, which the workloads rely on.
    use super::*;

    #[test]
    fn filesystem_trait_is_object_safe() {
        fn _takes_dyn(_fs: &dyn FileSystem) {}
        fn _takes_arc(_fs: Arc<dyn FileSystem>) {}
    }
}
