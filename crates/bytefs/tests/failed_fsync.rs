//! A failed `fsync` must not launder dirty pages.
//!
//! ByteFS allocates blocks at writeback, so a full device shows up as
//! `NoSpace` inside `fsync`, after the page cache has handed the dirty pages
//! over. They used to stay cached but *clean*: the next `fsync` found nothing
//! to write, returned `Ok`, and the bytes were gone with the next eviction.
//! The contract: after a failed writeback every page is dirty again (with its
//! CoW original) and so is the inode, so the next `fsync` fails too or
//! persists every byte. The same for `sync`.

use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{CrashConsistent, FileSystem, FsError, OpenFlags};
use mssd::stats::Direction;
use mssd::{DramMode, Interface, Mssd, MssdConfig};

const PAGE: usize = 4096;

fn payload(pages: usize) -> Vec<u8> {
    (0..pages * PAGE).map(|i| (i % 251) as u8 ^ (i / PAGE) as u8 | 1).collect()
}

/// Fills the data area to its last block with `/ballast`: 4 KB appends, each
/// fsynced, until one finds no block left; that one is truncated away again.
fn fill(fs: &ByteFs) {
    let ballast = fs.open("/ballast", OpenFlags::create_rw().with_append()).unwrap();
    let mut size = 0u64;
    loop {
        fs.write(ballast, 0, &[0xBAu8; PAGE]).unwrap();
        match fs.fsync(ballast) {
            Ok(()) => size += PAGE as u64,
            Err(FsError::NoSpace) => break,
            Err(e) => panic!("filling the device: {e}"),
        }
    }
    assert!(size > 0);
    fs.truncate(ballast, size).unwrap();
    fs.fsync(ballast).unwrap();
    fs.close(ballast).unwrap();
}

fn new_fs() -> Arc<ByteFs> {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    ByteFs::format(dev, ByteFsConfig::full()).unwrap()
}

#[test]
fn a_failed_fsync_leaves_every_page_dirty_for_the_next_one() {
    let fs = new_fs();
    fill(&fs);
    let data = payload(8);
    let victim = fs.open("/victim", OpenFlags::create_rw()).unwrap();
    fs.write(victim, 0, &data).unwrap();
    assert!(matches!(fs.fsync(victim), Err(FsError::NoSpace)));
    // Still no room: the retry must fail again, not report success.
    assert!(matches!(fs.fsync(victim), Err(FsError::NoSpace)));
    fs.unlink("/ballast").unwrap();
    fs.fsync(victim).unwrap();
    fs.drop_caches();
    assert!(fs.read(victim, 0, data.len()).unwrap() == data, "bytes lost by the failed fsync");
    assert_eq!(fs.check_invariants(), vec![]);
}

#[test]
fn a_failed_sync_leaves_every_page_dirty_for_the_next_one() {
    let fs = new_fs();
    fill(&fs);
    let (a, b) = (payload(4), payload(6));
    let fa = fs.open("/a", OpenFlags::create_rw()).unwrap();
    let fb = fs.open("/b", OpenFlags::create_rw()).unwrap();
    fs.write(fa, 0, &a).unwrap();
    fs.write(fb, 0, &b).unwrap();
    assert!(matches!(fs.sync(), Err(FsError::NoSpace)));
    fs.unlink("/ballast").unwrap();
    fs.sync().unwrap();
    fs.drop_caches();
    assert!(fs.read(fa, 0, a.len()).unwrap() == a, "/a lost bytes to the failed sync");
    assert!(fs.read(fb, 0, b.len()).unwrap() == b, "/b lost bytes to the failed sync");
}

#[test]
fn a_partial_overwrite_keeps_its_cow_original_across_a_failed_fsync() {
    // One cacheline of a persisted page is rewritten, the fsync fails on a
    // *new* page of the same file, and the retry must still send the
    // cacheline over the byte interface — which needs the original back.
    let fs = new_fs();
    let base = payload(2);
    let fd = fs.open("/f", OpenFlags::create_rw()).unwrap();
    fs.write(fd, 0, &base).unwrap();
    fs.fsync(fd).unwrap();
    fill(&fs);
    fs.write(fd, 128, &[0xEEu8; 64]).unwrap();
    fs.write(fd, 2 * PAGE as u64, &payload(1)).unwrap();
    assert!(matches!(fs.fsync(fd), Err(FsError::NoSpace)));
    fs.unlink("/ballast").unwrap();
    let before = fs.device().traffic();
    fs.fsync(fd).unwrap();
    let did = fs.device().traffic().delta_since(&before);
    let block = did.host_bytes_by_interface(Direction::Write, Interface::Block);
    assert_eq!(block, PAGE as u64, "only the new page is a block write; page 0 went as bytes");
    fs.drop_caches();
    let mut want = base.clone();
    want[128..192].fill(0xEE);
    want.extend_from_slice(&payload(1));
    assert!(fs.read(fd, 0, want.len()).unwrap() == want, "bytes lost by the failed fsync");
}
