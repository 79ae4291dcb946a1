//! The dirty limit: a buffered `write` that leaves more than
//! `ByteFs::dirty_limit()` pages dirty writes every dirty inode back before
//! it returns, so unsynced data cannot pin the host page cache.
//!
//! The pass writes whole pages only: a file's partial EOF page that has no
//! block yet stays dirty, and the inode is committed with its size cut back
//! to that page. So an append stream writes each page once, when it is full;
//! a crash after a pass recovers a page-aligned prefix of the appended bytes;
//! and a pass that fails on a full device fails nothing but the files' own
//! `fsync`.

use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{Fd, FileSystem, FileSystemExt, FsError, OpenFlags};
use mssd::stats::Direction;
use mssd::{DramMode, Interface, Mssd, MssdConfig};

const PAGE: usize = 4096;
const LINE: usize = 1024;

fn config() -> ByteFsConfig {
    ByteFsConfig::full().with_page_cache_pages(256)
}

fn new_fs() -> (Arc<Mssd>, Arc<ByteFs>) {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&dev), config()).unwrap();
    (dev, fs)
}

/// Appends one more 1 KB line (no zero byte) to `fd` and to `shadow`.
fn append(fs: &ByteFs, fd: Fd, shadow: &mut Vec<u8>) {
    let line: Vec<u8> =
        (0..LINE).map(|b| ((shadow.len() / LINE * 7 + b) % 251) as u8 | 1).collect();
    assert_eq!(fs.write(fd, shadow.len() as u64, &line).unwrap(), LINE, "a write never fails");
    shadow.extend_from_slice(&line);
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
    fs.truncate(ballast, size).unwrap();
    fs.fsync(ballast).unwrap();
    fs.close(ballast).unwrap();
}

#[test]
fn unsynced_appends_write_each_full_page_once_and_never_the_eof_page() {
    let (dev, fs) = new_fs();
    let limit = fs.dirty_limit();
    assert_eq!(limit, 16, "256 / 64 = 4 pages is below one 16-page block command");
    let fd = fs.create("/log").unwrap();
    let mut data = Vec::new();
    let before = dev.traffic();
    for _ in 0..203 {
        append(&fs, fd, &mut data);
        assert!(fs.dirty_pages() <= limit, "{} dirty pages after a write", fs.dirty_pages());
    }
    assert!(fs.writeback_passes() >= 3, "{} passes", fs.writeback_passes());
    let moved = dev.traffic().delta_since(&before);
    let block = moved.host_bytes_by_interface(Direction::Write, Interface::Block);
    let with_block = fs.fstat(fd).unwrap().blocks;
    // Blocks are allocated at writeback, one per page written: as many
    // block bytes as blocks means no page went twice, and no data byte went
    // over the byte interface, where a partial page would.
    assert_eq!(block, with_block * PAGE as u64, "a page written twice");
    assert_eq!(moved.host_data_bytes(Direction::Write), block, "data over the byte interface");
    assert!(with_block * (PAGE as u64) < data.len() as u64, "the partial EOF page got a block");
    assert!(data.len() as u64 - with_block * (PAGE as u64) <= (limit * PAGE) as u64);

    // The fsync writes what is left, the EOF page included — once.
    fs.fsync(fd).unwrap();
    let moved = dev.traffic().delta_since(&before);
    let pages = data.len().div_ceil(PAGE) as u64;
    assert_eq!(moved.host_bytes_by_interface(Direction::Write, Interface::Block), pages * 4096);
    assert_eq!(fs.fstat(fd).unwrap().blocks, pages);
    fs.drop_caches();
    assert!(fs.read(fd, 0, data.len()).unwrap() == data);
}

#[test]
fn a_crash_after_a_pass_recovers_a_page_aligned_prefix() {
    let (dev, fs) = new_fs();
    let fd = fs.create("/log").unwrap();
    let mut data = Vec::new();
    for _ in 0..3 {
        append(&fs, fd, &mut data);
    }
    fs.fsync(fd).unwrap();
    let synced = data.len();
    while fs.writeback_passes() == 0 {
        append(&fs, fd, &mut data);
    }
    for _ in 0..5 {
        append(&fs, fd, &mut data);
    }
    assert!(data.len() % PAGE != 0, "the file ends inside a page");
    drop(fs);
    dev.crash();

    let fs = ByteFs::mount(Arc::clone(&dev), config()).unwrap();
    assert_eq!(fs.fsck(), vec![]);
    let got = fs.read_file("/log").unwrap();
    assert!(got.len() > synced, "the pass made no appended byte durable");
    assert!(got.len().is_multiple_of(PAGE), "{} bytes: not page-aligned", got.len());
    assert!(
        got[..] == data[..got.len()],
        "not a prefix of the appended bytes (a zero-filled tail?)"
    );
}

#[test]
fn a_pass_on_a_full_device_fails_the_fsync_only_and_is_not_rerun_on_every_write() {
    let (_dev, fs) = new_fs();
    fill(&fs);
    let limit = fs.dirty_limit();
    let fd = fs.create("/victim").unwrap();
    let mut data = Vec::new();
    while fs.writeback_passes() == 0 {
        append(&fs, fd, &mut data);
    }
    assert!(fs.dirty_pages() > limit, "the failed pass left its pages dirty");
    // Another limit's worth of pages, less one, runs no second pass.
    for _ in 0..(limit - 1) * PAGE / LINE {
        append(&fs, fd, &mut data);
    }
    assert_eq!(fs.writeback_passes(), 1, "a failing pass ran again before the limit was refilled");
    let mut more = 0;
    while fs.writeback_passes() == 1 {
        append(&fs, fd, &mut data);
        more += 1;
    }
    assert!(more <= 2 * PAGE / LINE, "the second pass came {more} appends late");

    assert!(matches!(fs.fsync(fd), Err(FsError::NoSpace)));
    fs.unlink("/ballast").unwrap();
    fs.fsync(fd).unwrap();
    assert_eq!(fs.dirty_pages(), 0);
    fs.drop_caches();
    assert!(fs.read(fd, 0, data.len()).unwrap() == data, "bytes lost by the failed passes");
    assert_eq!(fs.fsck(), vec![]);
}
