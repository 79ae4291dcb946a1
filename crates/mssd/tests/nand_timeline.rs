//! The NAND array's timeline (`DESIGN-time.md`), checked against what the
//! hardware it stands for could do: nothing finishes before the link has
//! moved its bytes or before the array has programmed its pages, and the
//! host waits for the array only through a full write buffer or a FLUSH.
//!
//! Every test drives a fresh `small_test()` device in write-log mode through
//! the block interface only, so the background cleaner never runs and every
//! drain is on the clock: 4 channels × 4-page slices (a 16-page buffer), a
//! page program of 60 µs — 15 µs of the array's time.

use std::sync::Arc;

use proptest::prelude::*;

use mssd::{Category, DramMode, Mssd, MssdConfig, PAGE_SIZE};

const CHANNELS: u64 = 4;
const BUFFER_PAGES: u64 = 16;

fn device(cfg: &MssdConfig) -> Arc<Mssd> {
    assert_eq!(cfg.channels as u64, CHANNELS);
    assert_eq!((cfg.write_buffer_bytes / cfg.page_size) as u64, BUFFER_PAGES);
    Mssd::new(cfg.clone(), DramMode::WriteLog)
}

/// What the link charges one block-write command of `pages` pages.
fn link_ns(cfg: &MssdConfig, pages: usize) -> u64 {
    cfg.nvme_overhead_ns + cfg.transfer_ns(pages * PAGE_SIZE, false)
}

/// Writes `pages` pages at `lba` as one command.
fn write(dev: &Mssd, lba: u64, pages: usize) {
    dev.try_block_write(lba, &vec![lba as u8; pages * PAGE_SIZE], Category::Data).unwrap();
}

/// Twenty one-page commands on a fresh device. The first sixteen fill the
/// buffer; the 17th to 20th each find their slice full and hand it to the
/// array, which is busy from the 17th command's arrival (`17 × link`) for
/// 16 programs' worth of its time; four pages stay in the slices.
fn burst_of_twenty(dev: &Mssd) {
    for lba in 0..20 {
        write(dev, lba, 1);
    }
    assert_eq!(dev.traffic().flash_write_pages, 16);
}

#[test]
fn a_burst_no_larger_than_the_buffer_costs_link_time_only() {
    let cfg = MssdConfig::small_test();
    for per_command in [1usize, 2, 4, 16] {
        let dev = device(&cfg);
        for lba in (0..BUFFER_PAGES).step_by(per_command) {
            write(&dev, lba, per_command);
        }
        let commands = BUFFER_PAGES / per_command as u64;
        assert_eq!(dev.clock().now_ns(), commands * link_ns(&cfg, per_command));
        assert_eq!(dev.traffic().nand_stall_ns, 0);
        // The next burst costs the same once a FLUSH has waited the array out.
        dev.try_flush().unwrap();
        let before = dev.clock().now_ns();
        write(&dev, 100, BUFFER_PAGES as usize);
        assert_eq!(dev.clock().now_ns() - before, link_ns(&cfg, BUFFER_PAGES as usize));
        assert_eq!(dev.traffic().nand_stall_ns, 0);
    }
}

#[test]
fn flush_after_a_burst_costs_exactly_the_remaining_backlog() {
    let cfg = MssdConfig::small_test();
    let dev = device(&cfg);
    burst_of_twenty(&dev);
    let link = link_ns(&cfg, 1);
    let array_page_ns = cfg.flash_write_ns / CHANNELS;
    let array_done = 17 * link + 16 * array_page_ns;
    let before_flush = dev.clock().now_ns();
    // Whatever the burst did not pay to the link it waited for a slot; the
    // 17th page waits one page's program for its slot, and later pages less.
    assert_eq!(before_flush, 20 * link + dev.traffic().nand_stall_ns);
    assert!(dev.traffic().nand_stall_ns >= array_page_ns);
    assert!(before_flush < array_done, "the array is still programming");
    // FLUSH hands over the last four pages (one round of programs) and
    // returns when the array is done with everything.
    dev.try_flush().unwrap();
    assert_eq!(dev.traffic().flash_write_pages, 20);
    assert_eq!(dev.clock().now_ns(), array_done + cfg.flash_write_ns + cfg.nvme_overhead_ns);
    // Nothing left: the next FLUSH is the bare command.
    let before = dev.clock().now_ns();
    dev.try_flush().unwrap();
    assert_eq!(dev.clock().now_ns() - before, cfg.nvme_overhead_ns);
}

#[test]
fn sustained_sequential_writes_converge_to_the_slower_of_link_and_nand() {
    // Within 5 %, not exactly: a full slice is handed over when the next page
    // finds it full, so each time the whole buffer is full and programmed the
    // array idles until that page has crossed the link — one command's link
    // time per 16 pages here (4 % of their programs), per 4 096 pages on the
    // default 16 MB buffer.
    let nand_bound = MssdConfig::small_test();
    let mut link_bound = MssdConfig::small_test();
    link_bound.flash_write_ns = 20_000;
    for cfg in [nand_bound, link_bound] {
        let dev = device(&cfg);
        let pages = 1024u64; // half the device: no GC
        let mut buffer_filled_at = 0;
        for lba in 0..pages {
            write(&dev, lba, 1);
            if lba + 1 == BUFFER_PAGES {
                buffer_filled_at = dev.clock().now_ns();
            }
        }
        let bound = link_ns(&cfg, 1).max(cfg.flash_write_ns / CHANNELS) as f64;
        let sustained = dev.clock().now_ns() - buffer_filled_at;
        let per_page = sustained as f64 / (pages - BUFFER_PAGES) as f64;
        assert!(per_page <= bound * 1.05, "{per_page} ns a page against a bound of {bound}");
        dev.try_flush().unwrap();
        assert_eq!(dev.traffic().flash_erase_blocks, 0);
        let per_page = dev.clock().now_ns() as f64 / pages as f64;
        assert!(per_page >= bound, "{per_page} ns a page beats the bound of {bound}");
    }
}

#[test]
fn a_flush_costs_the_same_however_its_pages_are_spread_over_the_slices() {
    // Ten buffered pages as (4,2,2,2) and as (3,3,2,2): LBA mod 4 names the
    // slice on a fresh device, and a trim takes a page back out. Waiting for
    // the fullest slice would charge the first FLUSH four programs and the
    // second three; the timeline sees ten pages on four channels.
    let cfg = MssdConfig::small_test();
    let flush_ns = |trimmed: [u64; 6]| {
        let dev = device(&cfg);
        write(&dev, 0, BUFFER_PAGES as usize);
        for lba in trimmed {
            dev.trim(lba, 1);
        }
        let before = dev.clock().now_ns();
        dev.try_flush().unwrap();
        assert_eq!(dev.traffic().flash_write_pages, 10);
        dev.clock().now_ns() - before
    };
    let rounds = 10u64.div_ceil(CHANNELS);
    assert_eq!(flush_ns([1, 5, 2, 6, 3, 7]), rounds * cfg.flash_write_ns + cfg.nvme_overhead_ns);
    assert_eq!(flush_ns([0, 1, 5, 2, 6, 3]), rounds * cfg.flash_write_ns + cfg.nvme_overhead_ns);
}

#[test]
fn a_flash_read_does_not_wait_but_delays_the_backlog() {
    let cfg = MssdConfig::small_test();
    let dev = device(&cfg);
    burst_of_twenty(&dev);
    let before = dev.clock().now_ns();
    dev.try_block_read(0, 1, Category::Data).unwrap(); // programmed by the first drain
    assert_eq!(dev.traffic().flash_read_pages, 1);
    let read_ns = cfg.nvme_overhead_ns + cfg.transfer_ns(PAGE_SIZE, true) + cfg.flash_read_ns;
    assert_eq!(dev.clock().now_ns() - before, read_ns, "the read waits for no program");
    dev.try_flush().unwrap();
    let programs = 17 * link_ns(&cfg, 1) + 16 * cfg.flash_write_ns / CHANNELS + cfg.flash_write_ns;
    assert_eq!(
        dev.clock().now_ns(),
        programs + cfg.flash_read_ns / CHANNELS + cfg.nvme_overhead_ns,
        "the read took its channel from the queued programs"
    );
    // An idle array has no backlog to delay.
    dev.try_block_read(0, 1, Category::Data).unwrap();
    let before = dev.clock().now_ns();
    dev.try_flush().unwrap();
    assert_eq!(dev.clock().now_ns() - before, cfg.nvme_overhead_ns);
}

#[test]
fn a_power_cut_empties_the_timeline() {
    let cfg = MssdConfig::small_test();
    let dev = device(&cfg);
    burst_of_twenty(&dev);
    dev.crash(); // capacitors finish the programs while the host is down
    assert_eq!(dev.traffic().flash_write_pages, 20);
    let before = dev.clock().now_ns();
    dev.try_flush().unwrap();
    write(&dev, 100, BUFFER_PAGES as usize);
    assert_eq!(
        dev.clock().now_ns() - before,
        cfg.nvme_overhead_ns + link_ns(&cfg, BUFFER_PAGES as usize),
        "the burst's backlog did not survive the power cycle"
    );
}

#[test]
fn a_flush_that_collects_garbage_on_two_channels_overlaps_the_erases() {
    // Fill the device, then overwrite it in buffer-sized commands with a
    // FLUSH after each, so that all GC happens inside a FLUSH. Sequential
    // overwrites leave fully invalid blocks behind: a collection is one
    // erase, and the four channels run out of erased blocks together.
    let cfg = MssdConfig::small_test();
    let dev = device(&cfg);
    let pages = dev.logical_pages();
    let mut overlapped = 0;
    for pass in 0..2 {
        for lba in (0..pages).step_by(BUFFER_PAGES as usize) {
            write(&dev, lba, BUFFER_PAGES as usize);
            let before = (dev.clock().now_ns(), dev.traffic());
            dev.try_flush().unwrap();
            let flush_ns = dev.clock().now_ns() - before.0;
            let did = dev.traffic().delta_since(&before.1);
            assert_eq!(did.flash_write_pages, BUFFER_PAGES, "pass {pass} lba {lba}");
            if did.flash_erase_blocks >= 2 && did.flash_internal_write_pages == 0 {
                overlapped += 1;
                assert_eq!(
                    flush_ns,
                    did.flash_erase_blocks * cfg.flash_erase_ns / CHANNELS
                        + BUFFER_PAGES / CHANNELS * cfg.flash_write_ns
                        + cfg.nvme_overhead_ns,
                    "{} erases on distinct channels are array work, not a queue",
                    did.flash_erase_blocks
                );
            }
        }
    }
    assert!(overlapped > 0, "no FLUSH collected garbage on two channels");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Whatever the commands: the run cannot end before the link has moved
    /// every byte, nor before the array has programmed every page, and up to
    /// the final FLUSH the host's time is the link's plus its slot waits.
    #[test]
    fn no_run_beats_the_link_or_the_array(
        commands in proptest::collection::vec((0u64..256, 1usize..17, 0u8..8), 1..120)
    ) {
        let cfg = MssdConfig::small_test();
        let dev = device(&cfg);
        let (mut link, mut flush_wait, mut bytes) = (0, 0, 0usize);
        for (lba, pages, flush) in commands {
            write(&dev, lba, pages);
            link += link_ns(&cfg, pages);
            bytes += pages * PAGE_SIZE;
            if flush == 0 {
                let before = dev.clock().now_ns();
                dev.try_flush().unwrap();
                flush_wait += dev.clock().now_ns() - before;
            }
        }
        let stalled = dev.traffic().nand_stall_ns;
        prop_assert_eq!(dev.clock().now_ns(), link + stalled + flush_wait);
        dev.try_flush().unwrap();
        let elapsed = dev.clock().now_ns();
        let t = dev.traffic();
        let programs = t.flash_write_pages + t.flash_internal_write_pages;
        prop_assert!(t.flash_write_pages > 0);
        prop_assert!(elapsed >= programs * cfg.flash_write_ns / CHANNELS);
        prop_assert!(elapsed as f64 >= bytes as f64 / cfg.block_write_bw * 1e9);
    }

    /// How the buffered pages are spread over the slices moves a NAND-bound
    /// run's total by at most one command's link time — the array idling
    /// between the instant the whole buffer is full and programmed and the
    /// arrival of the page that drains the next slice — never by a slice
    /// drain, which is what per-channel timelines pay for a stray page.
    /// Twelve pages are buffered behind a backlog, `trimmed` of them dropped
    /// again from whichever slices `pick` says, then come sixteen more pages
    /// and a FLUSH.
    #[test]
    fn slice_fill_levels_move_a_run_by_less_than_one_command(
        trimmed in 0usize..4,
        pick in any::<u64>(),
    ) {
        let mut cfg = MssdConfig::small_test();
        cfg.flash_write_ns = 240_000; // the host is never ahead of the array
        let dev = device(&cfg);
        burst_of_twenty(&dev);
        for lba in 20..28 {
            write(&dev, lba, 1);
        }
        // LBAs 16..28 sit in the slices, three in each (LBA mod 4).
        let mut buffered: Vec<u64> = (16..28).collect();
        let mut pick = pick;
        for _ in 0..trimmed {
            let victim = buffered.swap_remove((pick % buffered.len() as u64) as usize);
            pick /= 12;
            dev.trim(victim, 1);
        }
        for lba in 100..116 {
            write(&dev, lba, 1);
        }
        dev.try_flush().unwrap();
        let programmed = 44 - trimmed as u64;
        prop_assert_eq!(dev.traffic().flash_write_pages, programmed);
        // Busy since the 17th page arrived; a slice drain is one round of
        // programs on this geometry, and the FLUSH rounds up.
        let array_bound = 17 * link_ns(&cfg, 1)
            + programmed.div_ceil(CHANNELS) * cfg.flash_write_ns
            + cfg.nvme_overhead_ns;
        let elapsed = dev.clock().now_ns();
        prop_assert!(
            (array_bound..=array_bound + link_ns(&cfg, 1)).contains(&elapsed),
            "{elapsed} ns against an array bound of {array_bound}"
        );
    }
}
