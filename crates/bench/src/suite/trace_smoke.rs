//! `trace_smoke`: drives a short traced workload, writes the Chrome
//! trace-event JSON to `trace_smoke.json` in the current directory and
//! validates both ends in-process: the export parses with the bench reports'
//! own parser and holds one `"X"` span per completed command, and one queued
//! command's journey (SQ submit → doorbell → flash program → CQ completion)
//! stays on a single command track. A failed check panics.

use std::collections::BTreeSet;

use mssd::queue::Command;
use mssd::{chrome_trace_json, Category, DramMode, Mssd, MssdConfig, TraceKind, PAGE_SIZE};
use workloads::Scale;

use crate::report::Json;
use crate::{BenchEntry, BenchReport};

/// Where the exported Chrome trace goes.
const TRACE_PATH: &str = "trace_smoke.json";

/// Drives a small mixed workload through a host queue with tracing on and
/// returns the drained dump. Mirrors the `trace_e2e` integration test's
/// shape: one multi-page block write (forces flash programs during its own
/// execution), a few single-page writes, a coalescible byte-write pair, and
/// some sync block writes for log/flash background activity.
fn traced_run() -> mssd::TraceDump {
    let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
    dev.set_tracing(true);
    let mut q = dev.open_queue(16);
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
    for (addr, tag) in [(0, 7u8), (64, 8u8)] {
        q.submit(Command::ByteWrite {
            addr,
            data: vec![tag; 64],
            txid: None,
            cat: Category::Inode,
        })
        .expect("submit byte write");
    }
    q.ring_doorbell();
    for i in 0..32u64 {
        dev.try_block_write(64 + i, &vec![(i % 251) as u8; PAGE_SIZE], Category::Data).unwrap();
    }
    dev.quiesce_cleaning();
    dev.trace_sink().drain()
}

/// The traced run is fixed-size: the scale is recorded, not applied.
pub(crate) fn run(scale: Scale) -> BenchReport {
    let dump = traced_run();
    assert!(dump.events.len() > 10, "expected a real event stream, got {}", dump.events.len());

    // The single-track property, checked on the raw dump: the first queued
    // command's whole journey carries one (cmd, queue) identity.
    let first_cmd = dump
        .events
        .iter()
        .find(|e| e.kind == TraceKind::SqSubmit && e.cmd != 0)
        .map(|e| e.cmd)
        .expect("no SQ submit event captured");
    let track: Vec<_> = dump.events.iter().filter(|e| e.cmd == first_cmd).collect();
    let kinds: BTreeSet<TraceKind> = track.iter().map(|e| e.kind).collect();
    for need in
        [TraceKind::SqSubmit, TraceKind::Doorbell, TraceKind::FlashProgram, TraceKind::CqComplete]
    {
        assert!(
            kinds.contains(&need),
            "cmd {first_cmd} track is missing {:?} (has {kinds:?})",
            need.name()
        );
    }
    let queues: BTreeSet<u16> = track.iter().map(|e| e.queue).collect();
    assert_eq!(queues.len(), 1, "cmd {first_cmd} track spans queues {queues:?}, expected one");

    let json = chrome_trace_json(&dump);
    std::fs::write(TRACE_PATH, &json).unwrap_or_else(|e| panic!("writing {TRACE_PATH}: {e}"));

    // Round-trip validation: the exported document must parse and contain a
    // non-empty traceEvents array with one complete span per completion.
    let doc = Json::parse(&json).expect("exported chrome trace does not parse");
    let Some(Json::Array(events)) = doc.as_object().and_then(|o| o.get("traceEvents")) else {
        panic!("chrome trace has no traceEvents array")
    };
    fn field<'a>(event: &'a Json, name: &str) -> Option<&'a str> {
        event.as_object().and_then(|o| o.get(name)).and_then(Json::as_str)
    }
    let spans = events.iter().filter(|e| field(e, "ph") == Some("X")).count();
    let completions = dump
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::CqComplete | TraceKind::Abort))
        .count();
    assert!(
        spans > 0 && spans == completions,
        "{spans} complete (\"X\") spans for {completions} completions"
    );
    let span_name = format!("cmd {first_cmd}");
    assert!(
        events.iter().any(|e| field(e, "name") == Some(&span_name)),
        "no span named {span_name:?} in the export"
    );
    println!("trace_smoke: chrome trace -> {TRACE_PATH}");

    let mut report = BenchReport::new("trace_smoke", scale.factor());
    report.entries.push(BenchEntry::new(
        "pipeline",
        &[
            ("events", dump.events.len() as f64),
            ("dropped", dump.dropped as f64),
            ("spans", spans as f64),
            ("completions", completions as f64),
        ],
    ));
    report
}
