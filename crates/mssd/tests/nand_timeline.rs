//! The NAND array's timeline (`DESIGN-time.md`), checked against what the
//! hardware it stands for could do: nothing finishes before the link has
//! moved its bytes or before the array has programmed its pages, the host
//! waits for the array only through a full write buffer or a FLUSH, and the
//! array never idles in front of a full slice.
//!
//! Every test drives a fresh device in write-log mode through the block
//! interface only, so no cleaning pass ever runs and every drain is on
//! the clock. Unless it says otherwise the device is `small_test()`:
//! 4 channels × 4-page slices (a 16-page buffer), a page program of 60 µs —
//! 15 µs of the array's time — and 9.6 µs of link for a one-page command.

use std::sync::Arc;

use proptest::prelude::*;

use mssd::stats::AtomicTraffic;
use mssd::{Category, DramMode, Mssd, MssdConfig, ShardedFtl, PAGE_SIZE};

const CHANNELS: u64 = 4;
const BUFFER_PAGES: u64 = 16;

fn small() -> MssdConfig {
    let cfg = MssdConfig::small_test();
    assert_eq!(channels(&cfg), CHANNELS);
    assert_eq!(slots(&cfg), BUFFER_PAGES);
    cfg
}

/// `benchmark/`'s ÷128 device: 8 channels × 4-page slices (32 slots), a page
/// program of 7.5 µs of the array's time.
fn div128() -> MssdConfig {
    let mut cfg = MssdConfig::default().with_capacity(256 << 20).with_dram_region(2 << 20);
    cfg.write_buffer_bytes = 128 << 10;
    assert_eq!((channels(&cfg), slots(&cfg)), (8, 32));
    cfg
}

fn channels(cfg: &MssdConfig) -> u64 {
    cfg.channels as u64
}

fn slots(cfg: &MssdConfig) -> u64 {
    (cfg.write_buffer_bytes / cfg.page_size) as u64
}

fn device(cfg: &MssdConfig) -> Arc<Mssd> {
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

/// Twenty one-page commands on a fresh device. The 13th to 16th page each
/// fill a slice, which goes to the array there and then: it is busy from the
/// 13th page's arrival (`13 × link`) for 16 programs' worth of its time. The
/// 17th to 20th each find their slice full and drain it — the data model's
/// moment, which did not move — and four pages stay in the slices. With
/// `small_test()`'s 60 µs program nobody waits: page 16 + k needs the
/// backlog, `16 programs − (3 + k) × link`, down to the `16 − k` slots the
/// slices do not hold, i.e. `k × 15 µs ≤ (3 + k) × 9.6 µs`, true for k = 1..4.
fn burst_of_twenty(dev: &Mssd) {
    for lba in 0..20 {
        write(dev, lba, 1);
    }
    assert_eq!(dev.traffic().flash_write_pages, 16);
}

#[test]
fn a_burst_no_larger_than_the_buffer_costs_link_time_only() {
    let cfg = small();
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
fn a_slice_goes_to_the_array_when_it_fills() {
    // Sixteen one-page commands: page 13 is the fourth of channel 0 and
    // starts that slice's programs at its own arrival, pages 14 to 16 queue
    // theirs behind — four rounds of programs from `13 × link`. A FLUSH right
    // after finds nothing the array does not have and waits for what is left
    // of them, not for four rounds from the FLUSH.
    let cfg = small();
    let dev = device(&cfg);
    for lba in 0..BUFFER_PAGES {
        write(&dev, lba, 1);
    }
    let link = link_ns(&cfg, 1);
    assert_eq!(dev.clock().now_ns(), 16 * link);
    assert_eq!(dev.traffic().flash_write_pages, 0, "the pages are still in the slices");
    dev.try_flush().unwrap();
    assert_eq!(dev.traffic().flash_write_pages, 16);
    assert_eq!(dev.clock().now_ns(), 13 * link + 4 * cfg.flash_write_ns + cfg.nvme_overhead_ns);
}

#[test]
fn flush_after_a_burst_costs_exactly_the_remaining_backlog() {
    let cfg = small();
    let dev = device(&cfg);
    burst_of_twenty(&dev);
    let link = link_ns(&cfg, 1);
    let array_page_ns = cfg.flash_write_ns / CHANNELS;
    // Busy since the 13th page filled the first slice, for the 16 programs of
    // the four slices that filled; the burst itself waited for nothing.
    let array_done = 13 * link + 16 * array_page_ns;
    let before_flush = dev.clock().now_ns();
    assert_eq!(before_flush, 20 * link);
    assert_eq!(dev.traffic().nand_stall_ns, 0);
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
    // Within 1 % for every command size on both geometries, measured over the
    // last three quarters of the run. Accepting a page raises `backlog − free
    // slots' worth of programs` by exactly one program (it takes a slot, or
    // fills a slice: three slots back, four programs on), and the slot wait
    // brings that back to zero. Once it has waited for the first time — long
    // before a quarter of these runs — a NAND-bound writer therefore ends
    // every command with `pages accepted − pages programmed` equal to the
    // buffer, and between two such instants the clock moves by the array's
    // time for the pages accepted in between, provided the array never idles
    // in front of a full slice. (Handing a slice over only when the next page
    // finds it full idles it for one command's transfer per buffer: 4 % with
    // one-page commands on `small_test()`, 25 % with 32-page ones.) What it
    // may idle in front of is slices that are not full: they hold at most
    // three pages a channel, so a writer that waited leaves at least one
    // round of programs behind, and a transfer that outlasts a round starves
    // the array for the difference — 0.4 µs per 32-page command at 60 µs a
    // program, more in the 20 µs configuration that makes the link the
    // bottleneck for small commands.
    let mut link_bound = small();
    link_bound.flash_write_ns = 20_000;
    for cfg in [small(), link_bound, div128()] {
        for per_command in 1..=32u64 {
            let dev = device(&cfg);
            let commands = 1024 / per_command; // half of `small_test()`: no GC
            let mut warm_at = 0;
            for n in 0..commands {
                write(&dev, n * per_command, per_command as usize);
                if n + 1 == commands / 4 {
                    warm_at = dev.clock().now_ns();
                }
            }
            let link_page_ns = link_ns(&cfg, per_command as usize) as f64 / per_command as f64;
            let bound = link_page_ns.max(cfg.flash_write_ns as f64 / channels(&cfg) as f64);
            let starved_ns = link_ns(&cfg, per_command as usize).saturating_sub(cfg.flash_write_ns);
            let allowed = (bound + starved_ns as f64 / per_command as f64) * 1.01;
            let sustained = (dev.clock().now_ns() - warm_at) as f64;
            let per_page = sustained / ((commands - commands / 4) * per_command) as f64;
            assert!(
                per_page <= allowed,
                "{per_command}-page commands: {per_page} ns a page, {allowed} allowed ({bound} + 1 %)"
            );
            dev.try_flush().unwrap();
            assert_eq!(dev.traffic().flash_erase_blocks, 0);
            let per_page = dev.clock().now_ns() as f64 / (commands * per_command) as f64;
            assert!(per_page >= bound, "{per_page} ns a page beats the bound of {bound}");
        }
    }
}

#[test]
fn a_flush_costs_the_same_however_its_pages_are_spread_over_the_slices() {
    // `written` pages in one command, then some trimmed back out: LBA mod 4
    // names the slice on a fresh device.
    let cfg = small();
    let flush_ns = |written: usize, trimmed: &[u64]| {
        let dev = device(&cfg);
        write(&dev, 0, written);
        for &lba in trimmed {
            dev.trim(lba, 1);
        }
        let before = dev.clock().now_ns();
        dev.try_flush().unwrap();
        assert_eq!(dev.traffic().flash_write_pages, (written - trimmed.len()) as u64);
        dev.clock().now_ns() - before
    };
    // Twelve pages fill no slice. Eight of them left as (3,3,1,1) and as
    // (2,2,2,2): waiting for the fullest slice would charge the first FLUSH
    // three programs and the second two; the timeline sees eight pages on
    // four channels, two rounds.
    let two_rounds = 2 * cfg.flash_write_ns + cfg.nvme_overhead_ns;
    assert_eq!(flush_ns(12, &[2, 6, 3, 7]), two_rounds);
    assert_eq!(flush_ns(12, &[0, 1, 2, 3]), two_rounds);
    // Sixteen pages fill every slice as they arrive, and the array starts on
    // all 16 programs. Ten left as (4,2,2,2) and as (3,3,2,2): the six pages
    // trimmed out stay charged — the array was already at them — so the FLUSH
    // hands nothing over and waits for 16 programs, four rounds.
    let four_rounds = 4 * cfg.flash_write_ns + cfg.nvme_overhead_ns;
    assert_eq!(flush_ns(16, &[1, 5, 2, 6, 3, 7]), four_rounds);
    assert_eq!(flush_ns(16, &[0, 1, 5, 2, 6, 3]), four_rounds);
}

#[test]
fn a_rewrite_of_a_page_in_a_full_slice_is_programmed_twice() {
    let cfg = small();
    // In a slice with room the second write takes the first one's slot.
    let dev = device(&cfg);
    write(&dev, 0, 12);
    write(&dev, 0, 1);
    dev.try_flush().unwrap();
    assert_eq!(dev.traffic().flash_write_pages, 12);
    // A full slice's programs are under way: the re-write drains the slice
    // first, goes into the empty one, and is programmed again by the FLUSH —
    // one page the array does not have yet, one more round.
    let dev = device(&cfg);
    write(&dev, 0, BUFFER_PAGES as usize);
    let array_done = dev.clock().now_ns() + 4 * cfg.flash_write_ns;
    write(&dev, 0, 1);
    assert_eq!(dev.traffic().flash_write_pages, 4);
    dev.try_flush().unwrap();
    assert_eq!(dev.traffic().flash_write_pages, BUFFER_PAGES + 1);
    assert_eq!(dev.clock().now_ns(), array_done + cfg.flash_write_ns + cfg.nvme_overhead_ns);
}

#[test]
fn a_page_that_refills_a_handed_over_slice_adds_its_own_program() {
    // Sixteen pages fill every slice and start 16 programs. A TRIM takes
    // LBA 0 back out of slice 0; its program stays charged. The next fresh
    // page goes to slice 0 (round-robin), fills it again and is handed over
    // on its own: 17 programs charged for the 16 done, and nothing for the
    // FLUSH to add.
    let cfg = small();
    let dev = device(&cfg);
    write(&dev, 0, BUFFER_PAGES as usize);
    let started = dev.clock().now_ns();
    dev.trim(0, 1);
    write(&dev, 100, 1);
    dev.try_flush().unwrap();
    assert_eq!(dev.traffic().flash_write_pages, BUFFER_PAGES);
    assert_eq!(
        dev.clock().now_ns(),
        started + 17 * cfg.flash_write_ns / CHANNELS + cfg.nvme_overhead_ns
    );
}

#[test]
fn a_writer_without_a_time_fills_a_slice_off_the_timeline() {
    let cfg = small();
    let (round, array_page_ns) = (cfg.flash_write_ns, cfg.flash_write_ns / CHANNELS);
    let filled_off_the_clock = || {
        let (ftl, stats) = (ShardedFtl::new(cfg.clone()), AtomicTraffic::default());
        for lpa in 0..BUFFER_PAGES {
            ftl.buffer_write(lpa, vec![lpa as u8; PAGE_SIZE], &stats).unwrap();
        }
        (ftl, stats)
    };
    // A writer without a time fills all four slices: nothing goes to the
    // array, so a FLUSH at 1 ms hands over all 16 pages, four rounds from
    // its own time.
    let (ftl, stats) = filled_off_the_clock();
    assert_eq!(ftl.flush_all(&stats, Some(1_000_000)).unwrap(), 4 * round);
    // A page on the clock instead drains slice 0 and hands its four programs
    // over, once: 60 µs of backlog against the three slots the 13 buffered
    // pages leave free, one program's wait. The FLUSH then has all 13 pages
    // to hand over (four rounds) behind what is left of those 60 µs.
    let (ftl, stats) = filled_off_the_clock();
    let page = vec![0u8; PAGE_SIZE];
    assert_eq!(
        ftl.buffer_write_on(BUFFER_PAGES, page, &stats, Some(1_000_000)).unwrap(),
        array_page_ns
    );
    assert_eq!(stats.snapshot().flash_write_pages, 4);
    assert_eq!(
        ftl.flush_all(&stats, Some(1_000_000 + array_page_ns)).unwrap(),
        3 * array_page_ns + 4 * round
    );
}

#[test]
fn a_flash_read_does_not_wait_but_delays_the_backlog() {
    let cfg = small();
    let dev = device(&cfg);
    burst_of_twenty(&dev);
    let before = dev.clock().now_ns();
    dev.try_block_read(0, 1, Category::Data).unwrap(); // programmed by the first drain
    assert_eq!(dev.traffic().flash_read_pages, 1);
    let read_ns = cfg.nvme_overhead_ns + cfg.transfer_ns(PAGE_SIZE, true) + cfg.flash_read_ns;
    assert_eq!(dev.clock().now_ns() - before, read_ns, "the read waits for no program");
    dev.try_flush().unwrap();
    // 16 programs from the 13th page's arrival (the burst) and one round for
    // the four pages the FLUSH hands over.
    let programs = 13 * link_ns(&cfg, 1) + 16 * cfg.flash_write_ns / CHANNELS + cfg.flash_write_ns;
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
    let cfg = small();
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
    // erase, and the four channels run out of erased blocks together. The
    // command's 16 programs start when it arrives; the FLUSH adds the erases.
    let cfg = small();
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

    /// Whatever the commands, on either geometry: the run cannot end before
    /// the link has moved every byte, nor before the array has programmed
    /// every page, and up to the final FLUSH the host's time is the link's
    /// plus its slot waits plus what its reads and FLUSHes cost (a TRIM is
    /// free). `then`: 0 a FLUSH, 1 a read of the command's first page, 2 a
    /// TRIM of its first half (out of slices the array may already have).
    #[test]
    fn no_run_beats_the_link_or_the_array(
        on_div128 in any::<bool>(),
        commands in proptest::collection::vec((0u64..256, 1usize..33, 0u8..8), 1..120)
    ) {
        let cfg = if on_div128 { div128() } else { small() };
        let dev = device(&cfg);
        let (mut link, mut other, mut bytes) = (0, 0, 0usize);
        for (lba, pages, then) in commands {
            write(&dev, lba, pages);
            link += link_ns(&cfg, pages);
            bytes += pages * PAGE_SIZE;
            let before = dev.clock().now_ns();
            match then {
                0 => dev.try_flush().unwrap(),
                1 => drop(dev.try_block_read(lba, 1, Category::Data).unwrap()),
                2 => dev.trim(lba, pages.div_ceil(2)),
                _ => {}
            }
            other += dev.clock().now_ns() - before;
        }
        let stalled = dev.traffic().nand_stall_ns;
        prop_assert_eq!(dev.clock().now_ns(), link + stalled + other);
        dev.try_flush().unwrap();
        let elapsed = dev.clock().now_ns();
        let t = dev.traffic();
        let programs = t.flash_write_pages + t.flash_internal_write_pages;
        prop_assert!(elapsed >= programs * cfg.flash_write_ns / channels(&cfg));
        prop_assert!(elapsed as f64 >= bytes as f64 / cfg.block_write_bw * 1e9);
    }

    /// How the buffered pages are spread over the slices does not move a
    /// NAND-bound run at all: a slice's programs start when it fills, a stray
    /// page in another slice delays nothing, and the array has no reason to
    /// idle before the FLUSH. (Handing a slice over when the next page finds
    /// it full moved the run by up to one command's link time; per-channel
    /// timelines pay a whole slice drain for a stray page.) Twelve pages are
    /// buffered behind a backlog, `trimmed` of them dropped again from
    /// whichever slices `pick` says — none of those slices is full, so their
    /// programs were never charged — then come sixteen more pages and a FLUSH.
    #[test]
    fn slice_fill_levels_move_a_run_by_less_than_one_command(
        trimmed in 0usize..4,
        pick in any::<u64>(),
    ) {
        let mut cfg = small();
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
        // Busy since the 13th page arrived and never idle: every slice that
        // filled is one round of programs on this geometry (four pages, a
        // quarter of the array each), and the FLUSH rounds the rest up.
        prop_assert_eq!(
            dev.clock().now_ns(),
            13 * link_ns(&cfg, 1)
                + programmed.div_ceil(CHANNELS) * cfg.flash_write_ns
                + cfg.nvme_overhead_ns
        );
    }
}
