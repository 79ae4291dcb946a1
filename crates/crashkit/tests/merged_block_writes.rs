//! One NVMe command per extent run must not coarsen what a power cut can
//! tear: a merged multi-page block write still counts one fault step per
//! page, so a cut lands *between* its pages, and every enumerated step space
//! stays exactly what it was one command a page.

use std::sync::Arc;

use bytefs::{ByteFs, ByteFsConfig};
use crashkit::{power_cycle, Enumerator, FsStress, KvStress};
use fskit::{FileSystem, FileSystemExt, OpenFlags};
use mssd::{DramMode, FaultKind, FaultPlan, Mssd, MssdConfig};

const PAGE: usize = 4096;

fn cfg(fault: FaultPlan) -> MssdConfig {
    MssdConfig { background_cleaning: false, fault, ..MssdConfig::small_test() }
}

fn pages(tag: u8) -> Vec<u8> {
    (0..4 * PAGE).map(|i| tag ^ (i / PAGE) as u8 ^ (i % 251) as u8 | 1).collect()
}

/// Writes a four-page file, then rewrites all four pages and fsyncs — one
/// merged block write. Returns the device and the number of fault steps
/// counted before that fsync.
fn rewrite_four_pages(fault: FaultPlan) -> (Arc<Mssd>, u64) {
    let dev = Mssd::new(cfg(fault), DramMode::WriteLog);
    let fs = ByteFs::format(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
    fs.write_file("/f", &pages(0x10)).unwrap();
    let fd = fs.open("/f", OpenFlags::read_write()).unwrap();
    fs.write(fd, 0, &pages(0xA0)).unwrap();
    let steps_before = dev.fault_plan().total_steps();
    let requests_before = dev.traffic().block_requests;
    let _ = fs.fsync(fd); // with power off the outcome is in doubt
    if !dev.fault_tripped() {
        assert_eq!(dev.traffic().block_requests - requests_before, 1, "the rewrite is one command");
    }
    (dev, steps_before)
}

#[test]
fn a_cut_tears_a_merged_write_between_its_pages() {
    let (dev, first) = rewrite_four_pages(FaultPlan::count_only());
    assert!(dev.fault_plan().steps_of(FaultKind::BufferWrite) >= 4);
    // The four pages are the first four steps of the fsync: data goes out
    // before the metadata transaction.
    for accepted in 0..4 {
        let (dev, _) = rewrite_four_pages(FaultPlan::cut_at(first + accepted as u64 + 1));
        assert_eq!(dev.fault_plan().cut_kind(), Some(FaultKind::BufferWrite));
        let dev = power_cycle(&dev, cfg(FaultPlan::disabled()));
        dev.recover();
        let fs = ByteFs::mount(Arc::clone(&dev), ByteFsConfig::full()).unwrap();
        let (old, new, got) = (pages(0x10), pages(0xA0), fs.read_file("/f").unwrap());
        for page in 0..4 {
            let range = page * PAGE..(page + 1) * PAGE;
            let want = if page < accepted { &new[range.clone()] } else { &old[range.clone()] };
            assert!(
                got[range] == *want,
                "cut after {accepted} pages: page {page} should be {}",
                if page < accepted { "new" } else { "old" }
            );
        }
        assert_eq!(fs.fsck(), Vec::new(), "cut after {accepted} pages");
        assert_eq!(dev.check_consistency(), Vec::<String>::new(), "cut after {accepted} pages");
    }
}

#[test]
fn enumerated_step_spaces_did_not_move() {
    // Counted at the parent of the change that merged block commands; a
    // multi-page command that counted one step would shrink them.
    assert_eq!(Enumerator::new(FsStress::quick()).count_steps(0xF5), 485);
    assert_eq!(Enumerator::new(FsStress::quick()).count_steps(0xF6), 549);
    assert_eq!(Enumerator::new(KvStress::quick()).count_steps(0xDB), 139);
}
