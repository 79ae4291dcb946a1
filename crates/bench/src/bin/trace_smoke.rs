//! Trace-pipeline smoke check for CI: drives a short traced workload,
//! exports the Chrome trace-event JSON (Perfetto-loadable), then validates
//! both ends of the pipeline in-process:
//!
//! * the JSON parses with the same minimal parser `bench_compare` uses
//!   (round-trip: our exporter must emit what our schema tooling reads),
//!   has a non-empty `traceEvents` array and one `"X"` complete span per
//!   completed command;
//! * one queued command's journey (SQ submit → doorbell → flash program →
//!   CQ completion) shares a single command track — the property that makes
//!   a write's life a single flame in the Perfetto UI.
//!
//! Usage: `trace_smoke [trace_out.json]` — default `trace_smoke.json`. Exits
//! non-zero on any validation failure, so CI can gate on it and upload the
//! artifact.

use std::collections::BTreeSet;

use bench::report::Json;
use mssd::queue::Command;
use mssd::{chrome_trace_json, Category, DramMode, Mssd, MssdConfig, TraceKind, PAGE_SIZE};

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
    for i in 0..32u64 {
        dev.block_write(64 + i, &vec![(i % 251) as u8; PAGE_SIZE], Category::Data);
    }
    dev.quiesce_cleaning();
    dev.trace_sink().drain()
}

fn fail(msg: &str) -> ! {
    eprintln!("trace_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let json_path = std::env::args().nth(1).unwrap_or_else(|| "trace_smoke.json".to_string());

    let dump = traced_run();
    if dump.events.len() <= 10 {
        fail(&format!("expected a real event stream, got {} events", dump.events.len()));
    }

    // The single-track property, checked on the raw dump: the first queued
    // command's whole journey carries one (cmd, queue) identity.
    let first_cmd = dump
        .events
        .iter()
        .find(|e| e.kind == TraceKind::SqSubmit && e.cmd != 0)
        .map(|e| e.cmd)
        .unwrap_or_else(|| fail("no SQ submit event captured"));
    let track: Vec<_> = dump.events.iter().filter(|e| e.cmd == first_cmd).collect();
    let kinds: BTreeSet<TraceKind> = track.iter().map(|e| e.kind).collect();
    for need in
        [TraceKind::SqSubmit, TraceKind::Doorbell, TraceKind::FlashProgram, TraceKind::CqComplete]
    {
        if !kinds.contains(&need) {
            fail(&format!("cmd {first_cmd} track is missing {:?} (has {kinds:?})", need.name()));
        }
    }
    let queues: BTreeSet<u16> = track.iter().map(|e| e.queue).collect();
    if queues.len() != 1 {
        fail(&format!("cmd {first_cmd} track spans queues {queues:?}, expected one"));
    }

    // Export and write the CI artifact.
    let json = chrome_trace_json(&dump);
    if let Err(e) = std::fs::write(&json_path, &json) {
        fail(&format!("writing {json_path}: {e}"));
    }

    // Round-trip validation: the exported document must parse and contain a
    // non-empty traceEvents array with one complete span per completion.
    let doc = match Json::parse(&json) {
        Ok(doc) => doc,
        Err(e) => fail(&format!("exported chrome trace does not parse: {e}")),
    };
    let Some(obj) = doc.as_object() else { fail("chrome trace root is not an object") };
    let Some(Json::Array(events)) = obj.get("traceEvents") else {
        fail("chrome trace has no traceEvents array")
    };
    if events.is_empty() {
        fail("traceEvents is empty");
    }
    fn phase(e: &Json) -> Option<&str> {
        e.as_object().and_then(|o| o.get("ph")).and_then(Json::as_str)
    }
    let spans = events.iter().filter(|e| phase(e) == Some("X")).count();
    let completions = dump
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::CqComplete | TraceKind::Abort))
        .count();
    if spans == 0 || spans != completions {
        fail(&format!("{spans} complete (\"X\") spans for {completions} completions"));
    }
    let span_name = format!("cmd {first_cmd}");
    if !events.iter().any(|e| {
        e.as_object().and_then(|o| o.get("name")).and_then(Json::as_str) == Some(&span_name)
    }) {
        fail(&format!("no span named {span_name:?} in the export"));
    }

    println!(
        "trace_smoke: OK — {} events ({} dropped), {spans} spans for {completions} completions",
        dump.events.len(),
        dump.dropped
    );
    println!("trace_smoke: chrome trace -> {json_path}");
}
