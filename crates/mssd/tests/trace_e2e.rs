//! End-to-end tests for `mssd::trace`: a traced run over a real device must
//! attribute one queued command's whole journey — SQ submit, doorbell, flash
//! program, CQ completion — to a single command track, export valid Chrome
//! trace-event JSON, and change nothing observable about the simulation
//! (virtual time, stats, device state) compared to an untraced run.

use std::collections::BTreeSet;

use mssd::queue::Command;
use mssd::{chrome_trace_json, Category, DramMode, Mssd, MssdConfig, TraceKind, PAGE_SIZE};

/// Drives a few block writes and byte writes through a host queue, ringing
/// the doorbell once at the end; returns final virtual time.
fn drive(dev: &std::sync::Arc<Mssd>) -> u64 {
    let mut q = dev.open_queue(16);
    // A 32-page write overflows small_test's 4-page-per-channel write-buffer
    // slices, so flash programs happen *during* this command's execution.
    q.submit(Command::BlockWrite { lba: 0, data: vec![0xAB; 32 * PAGE_SIZE], cat: Category::Data })
        .expect("submit big block write");
    for i in 0..4u64 {
        q.submit(Command::BlockWrite {
            lba: 40 + i,
            data: vec![i as u8; PAGE_SIZE],
            cat: Category::Data,
        })
        .expect("submit block write");
    }
    // Two adjacent byte writes that the doorbell coalesces into one group.
    q.submit(Command::ByteWrite { addr: 0, data: vec![7u8; 64], txid: None, cat: Category::Inode })
        .expect("submit byte write");
    q.submit(Command::ByteWrite {
        addr: 64,
        data: vec![8u8; 64],
        txid: None,
        cat: Category::Inode,
    })
    .expect("submit byte write");
    q.ring_doorbell();
    // Push enough data through the sync path to trigger log/flash activity.
    for i in 0..32u64 {
        dev.try_block_write(64 + i, &vec![(i % 251) as u8; PAGE_SIZE], Category::Data).unwrap();
    }
    dev.clock().now_ns()
}

#[test]
fn traced_command_journey_shares_one_track() {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    dev.set_tracing(true);
    drive(&dev);
    let dump = dev.trace_sink().drain();
    assert!(dump.events.len() > 10, "expected a real event stream");

    // Every block write's journey: submit → doorbell → flash program →
    // completion, all carrying the same command id and queue.
    let submits: Vec<_> =
        dump.events.iter().filter(|e| e.kind == TraceKind::SqSubmit && e.cmd != 0).collect();
    assert!(submits.len() >= 7, "one submit per command, got {}", submits.len());
    let first_cmd = submits[0].cmd;
    let track: Vec<_> = dump.events.iter().filter(|e| e.cmd == first_cmd).collect();
    let kinds: BTreeSet<TraceKind> = track.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceKind::SqSubmit), "missing submit in {kinds:?}");
    assert!(kinds.contains(&TraceKind::Doorbell), "missing doorbell in {kinds:?}");
    assert!(kinds.contains(&TraceKind::FlashProgram), "missing flash program in {kinds:?}");
    assert!(kinds.contains(&TraceKind::CqComplete), "missing completion in {kinds:?}");
    // The whole track is attributed to one queue.
    let queues: BTreeSet<u16> = track.iter().map(|e| e.queue).collect();
    assert_eq!(queues.len(), 1, "track spans queues {queues:?}");

    // The coalesced byte-write pair produced a Coalesce event.
    assert!(
        dump.events.iter().any(|e| e.kind == TraceKind::Coalesce && e.a >= 1),
        "adjacent byte writes should coalesce"
    );

    // Timestamps within the track are monotone: submit ≤ doorbell ≤ complete.
    let t = |k: TraceKind| {
        track.iter().find(|e| e.kind == k).map(|e| e.vclock_ns).expect("kind present")
    };
    assert!(t(TraceKind::SqSubmit) <= t(TraceKind::Doorbell));
    assert!(t(TraceKind::Doorbell) <= t(TraceKind::CqComplete));

    // The export is keyed by the command: one complete span per submit.
    let json = chrome_trace_json(&dump);
    assert!(json.contains(&format!("\"name\":\"cmd {first_cmd}\"")), "span missing");
    assert_eq!(json.matches("\"ph\":\"X\"").count(), submits.len(), "one span per command");
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let run = |traced: bool| {
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        dev.set_tracing(traced);
        let now = drive(&dev);
        dev.quiesce_cleaning();
        let snap = dev.snapshot();
        (now, snap.traffic.flash_write_pages, snap.traffic.host_write_bytes(), snap.log_entries)
    };
    let traced = run(true);
    let untraced = run(false);
    assert_eq!(traced.0, untraced.0, "tracing advanced the virtual clock");
    assert_eq!(traced, untraced, "tracing changed observable device state");
}

#[test]
fn disabled_tracing_stays_silent_and_drain_is_empty() {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    drive(&dev);
    let dump = dev.trace_sink().drain();
    assert!(dump.events.is_empty());
    assert_eq!(dump.dropped, 0);
}
