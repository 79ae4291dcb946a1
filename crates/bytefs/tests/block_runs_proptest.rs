//! Block I/O by the extent run must change *how many* commands carry a
//! file's pages, never *which bytes* move.
//!
//! Random write / read / fsync / truncate / sync / `drop_caches` sequences run
//! on a ByteFS whose host page cache holds 8 pages, so runs are cut by
//! evictions, resident pages, holes and fragmented extents all the time. Three
//! things are held against it after every op:
//!
//! * a `BTreeMap` byte model of every file — reads return exactly its bytes;
//! * a per-page reference: the same ops on a second ByteFS (own device) whose
//!   reads the model cuts at page boundaries, so no read there ever spans two
//!   pages and every miss is its own command. Host bytes by interface and
//!   direction must be identical on both devices after every op;
//! * bounds from the model alone: a read moves at most one page of `Data` per
//!   page it spans, an fsync writes at most one block-interface page per page
//!   written since the last one, always whole pages.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use fskit::{Fd, FileSystem, OpenFlags};
use mssd::stats::Direction;
use mssd::{Category, DramMode, Interface, Mssd, MssdConfig, TrafficCounter};
use proptest::prelude::*;

const PAGE: u64 = 4096;
const FILES: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Write { file: usize, offset: u64, len: usize, tag: u8 },
    Read { file: usize, offset: u64, len: usize },
    Fsync { file: usize },
    Truncate { file: usize, size: u64 },
    Sync,
    DropCaches,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let write = |max_len: usize| {
        (0..FILES, 0..20 * PAGE, 1..max_len, any::<u8>())
            .prop_map(|(file, offset, len, tag)| Op::Write { file, offset, len, tag })
    };
    prop_oneof![
        write(300),               // a few cachelines: byte-interface writeback
        write(5 * PAGE as usize), // whole pages: block-interface runs
        write(5 * PAGE as usize),
        (0..FILES, 0..24 * PAGE, 0..8 * PAGE as usize).prop_map(|(file, offset, len)| Op::Read {
            file,
            offset,
            len
        }),
        (0..FILES, 0..24 * PAGE, 0..8 * PAGE as usize).prop_map(|(file, offset, len)| Op::Read {
            file,
            offset,
            len
        }),
        (0..FILES).prop_map(|file| Op::Fsync { file }),
        (0..FILES).prop_map(|file| Op::Fsync { file }),
        (0..FILES, 0..22 * PAGE).prop_map(|(file, size)| Op::Truncate { file, size }),
        Just(Op::Sync),
        Just(Op::DropCaches),
    ]
}

/// Payload of a write: varies within and across cachelines, never zero.
fn payload(len: usize, tag: u8) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add((i % 253) as u8).wrapping_mul(7) | 1).collect()
}

struct Stack {
    dev: Arc<Mssd>,
    fs: Arc<ByteFs>,
    fds: Vec<Fd>,
}

impl Stack {
    fn new() -> Self {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full().with_page_cache_pages(8))
            .unwrap();
        let fds = (0..FILES)
            .map(|i| fs.open(&format!("/f{i}"), OpenFlags::create_rw()).unwrap())
            .collect();
        Self { dev, fs, fds }
    }

    /// Host bytes by (direction, interface), the quantity that must not move.
    fn host_bytes(&self) -> [u64; 4] {
        let t = self.dev.traffic();
        [
            t.host_bytes_by_interface(Direction::Read, Interface::Byte),
            t.host_bytes_by_interface(Direction::Read, Interface::Block),
            t.host_bytes_by_interface(Direction::Write, Interface::Byte),
            t.host_bytes_by_interface(Direction::Write, Interface::Block),
        ]
    }
}

/// What the test knows without asking a file system.
#[derive(Default)]
struct Model {
    /// File contents.
    bytes: BTreeMap<usize, Vec<u8>>,
    /// Pages written (or zero-tailed by a truncate) since the file's last
    /// writeback.
    dirty: BTreeMap<usize, BTreeSet<u64>>,
}

impl Model {
    fn write(&mut self, file: usize, offset: u64, data: &[u8]) {
        let bytes = self.bytes.entry(file).or_default();
        let end = offset as usize + data.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[offset as usize..end].copy_from_slice(data);
        self.dirty.entry(file).or_default().extend(offset / PAGE..=(end as u64 - 1) / PAGE);
    }

    fn truncate(&mut self, file: usize, size: u64) {
        self.bytes.entry(file).or_default().resize(size as usize, 0);
        let dirty = self.dirty.entry(file).or_default();
        dirty.retain(|page| *page < size.div_ceil(PAGE));
        if !size.is_multiple_of(PAGE) {
            dirty.insert(size / PAGE);
        }
    }

    fn read(&self, file: usize, offset: u64, len: usize) -> &[u8] {
        let bytes = self.bytes.get(&file).map_or(&[][..], Vec::as_slice);
        let start = (offset as usize).min(bytes.len());
        &bytes[start..(start + len).min(bytes.len())]
    }
}

fn block_written(after: &TrafficCounter, before: &TrafficCounter) -> u64 {
    after.delta_since(before).host_bytes_by_interface(Direction::Write, Interface::Block)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn extent_runs_move_the_same_bytes_as_page_at_a_time(
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let merged = Stack::new();
        let per_page = Stack::new();
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            let before = merged.dev.traffic();
            match *op {
                Op::Write { file, offset, len, tag } => {
                    let data = payload(len, tag);
                    for s in [&merged, &per_page] {
                        prop_assert_eq!(s.fs.write(s.fds[file], offset, &data).unwrap(), len);
                    }
                    model.write(file, offset, &data);
                }
                Op::Read { file, offset, len } => {
                    let want = model.read(file, offset, len);
                    let got = merged.fs.read(merged.fds[file], offset, len).unwrap();
                    prop_assert_eq!(&got[..], want, "step {} {:?}", step, op);
                    // The reference never asks for more than one page at once.
                    let mut pos = offset;
                    let mut reference = Vec::new();
                    while pos < offset + want.len() as u64 {
                        let span = (PAGE - pos % PAGE).min(offset + want.len() as u64 - pos);
                        let part = per_page.fs.read(per_page.fds[file], pos, span as usize);
                        reference.extend(part.unwrap());
                        pos += span;
                    }
                    prop_assert_eq!(&reference[..], want, "step {} {:?} (reference)", step, op);
                    let moved = merged.dev.traffic().delta_since(&before);
                    let spanned = (offset + len as u64).div_ceil(PAGE) - offset / PAGE;
                    prop_assert!(
                        moved.host_bytes_by_category(Direction::Read, Category::Data)
                            <= spanned * PAGE,
                        "step {} {:?}: read more than it spans", step, op
                    );
                }
                Op::Fsync { file } => {
                    for s in [&merged, &per_page] {
                        s.fs.fsync(s.fds[file]).unwrap();
                    }
                    let dirty = model.dirty.remove(&file).unwrap_or_default();
                    let written = block_written(&merged.dev.traffic(), &before);
                    prop_assert!(
                        written.is_multiple_of(PAGE) && written <= dirty.len() as u64 * PAGE,
                        "step {} {:?}: {} block bytes for {} dirty pages",
                        step, op, written, dirty.len()
                    );
                }
                Op::Truncate { file, size } => {
                    for s in [&merged, &per_page] {
                        s.fs.truncate(s.fds[file], size).unwrap();
                    }
                    model.truncate(file, size);
                }
                Op::Sync => {
                    for s in [&merged, &per_page] {
                        s.fs.sync().unwrap();
                    }
                    let dirty: usize = std::mem::take(&mut model.dirty).values().map(BTreeSet::len).sum();
                    let written = block_written(&merged.dev.traffic(), &before);
                    prop_assert!(written.is_multiple_of(PAGE) && written <= dirty as u64 * PAGE);
                }
                Op::DropCaches => {
                    for s in [&merged, &per_page] {
                        s.fs.drop_caches();
                    }
                }
            }
            prop_assert_eq!(
                merged.host_bytes(),
                per_page.host_bytes(),
                "step {} {:?}: [read byte, read block, write byte, write block]", step, op
            );
        }
        // Everything written is durable and cold-readable, and the volume is
        // structurally sound.
        merged.fs.sync().unwrap();
        merged.fs.drop_caches();
        for file in 0..FILES {
            let want = model.read(file, 0, usize::MAX / 2);
            let got = merged.fs.read(merged.fds[file], 0, want.len() + 1).unwrap();
            prop_assert_eq!(&got[..], want, "file {} after sync + drop_caches", file);
        }
        prop_assert_eq!(merged.fs.fsck(), Vec::new());
        prop_assert_eq!(merged.dev.check_consistency(), Vec::<String>::new());
    }
}
