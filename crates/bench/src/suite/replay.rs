//! `replay`: records every corpus scenario on ByteFS, replays each trace
//! twice on ByteFS (both must reproduce the recorded remount digest bit for
//! bit with zero divergences) and twice on the ext4-like baseline (the two
//! must agree with each other), and returns one entry per `<scenario>/<fs>`.
//! Also writes the cross-fs markdown table (`replay_report.md`) and the
//! CI-churn trace text (`replay_trace_cichurn.txt`) into the current
//! directory. All metrics are virtual-clock; a broken determinism check
//! panics. Why it exists: `DESIGN.md`.

use std::fmt::Write as _;

use workloads::replay::ReplayOutcome;
use workloads::{record_corpus, replay, CorpusKind, FsKind, Recorded, Scale};

use crate::drive::round3;
use crate::{bench_config, BenchEntry, BenchReport};

/// Seed every corpus recording uses — part of the pinned determinism
/// contract (same trace + same seed ⇒ same digest).
const SEED: u64 = 11;

struct Row {
    kind: CorpusKind,
    recorded: Recorded,
    bytefs: ReplayOutcome,
    ext4: ReplayOutcome,
}

/// Replays `recorded` twice on `fs_kind`, checks that the two
/// runs agree bit for bit (and, for the recording fs, that they reproduce
/// the recorded digest with zero divergences), and returns the first.
fn replay_twice(recorded: &Recorded, fs_kind: FsKind, same_fs: bool) -> ReplayOutcome {
    let what = format!("{} on {fs_kind}", recorded.trace.meta.name);
    let once = || {
        replay(&recorded.trace, fs_kind, bench_config())
            .unwrap_or_else(|e| panic!("{what}: replay failed: {e}"))
    };
    let (a, b) = (once(), once());
    assert_eq!(
        a.remount_digest, b.remount_digest,
        "{what}: replay is not deterministic ({:#018x} vs {:#018x})",
        a.remount_digest, b.remount_digest
    );
    if same_fs {
        assert_eq!(
            a.remount_digest, recorded.remount_digest,
            "{what}: replay diverged from the recording ({:#018x} replayed vs {:#018x} recorded)",
            a.remount_digest, recorded.remount_digest
        );
        assert_eq!(a.divergences, 0, "{what}: op outcomes diverged");
    }
    a
}

fn entry(kind: CorpusKind, fs: &str, out: &ReplayOutcome) -> BenchEntry {
    let r = &out.result;
    let digest = out.remount_digest;
    BenchEntry::new(
        format!("{kind}/{fs}"),
        &[
            ("ops", r.ops as f64),
            ("replayed", out.replayed as f64),
            ("divergences", out.divergences as f64),
            ("digest_lo", (digest & 0xFFFF_FFFF) as f64),
            ("digest_hi", (digest >> 32) as f64),
            ("virtual_elapsed_ns", r.elapsed_ns as f64),
            ("virtual_ops_per_sec", round3(r.kops_per_sec * 1e3)),
            ("virtual_write_p99_ns", r.write.p99_ns as f64),
            ("virtual_write_p999_ns", r.write.p999_ns as f64),
            ("virtual_read_p99_ns", r.read.p99_ns as f64),
            ("virtual_meta_p99_ns", r.meta.p99_ns as f64),
        ],
    )
}

/// Renders the cross-fs markdown delta report CI uploads as an artifact.
fn markdown(rows: &[Row]) -> String {
    let mut md = String::new();
    md.push_str("# Replay corpus: ByteFS vs ext4-like baseline\n\n");
    md.push_str(
        "Each recorded trace is re-driven on its recorded timeline against both \
         file systems; ops and divergences come from the replayed op stream, \
         latencies and throughput from the device's virtual clock.\n\n",
    );
    md.push_str(
        "| scenario | records | bytefs kops/s | ext4 kops/s | delta | \
         bytefs write p99 (ns) | ext4 write p99 (ns) | ext4 divergences |\n",
    );
    md.push_str("|---|---|---|---|---|---|---|---|\n");
    for row in rows {
        let b = &row.bytefs.result;
        let e = &row.ext4.result;
        let delta = if e.kops_per_sec > 0.0 {
            format!("{:+.1}%", (b.kops_per_sec / e.kops_per_sec - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        let _ = writeln!(
            md,
            "| {} | {} | {:.2} | {:.2} | {} | {} | {} | {} |",
            row.kind,
            row.recorded.trace.records.len(),
            b.kops_per_sec,
            e.kops_per_sec,
            delta,
            b.write.p99_ns,
            e.write.p99_ns,
            row.ext4.divergences,
        );
    }
    md.push_str("\nDigests (remounted image after replay):\n\n");
    md.push_str("| scenario | recorded (bytefs) | replayed (bytefs) | replayed (ext4) |\n");
    md.push_str("|---|---|---|---|\n");
    for row in rows {
        let _ = writeln!(
            md,
            "| {} | {:#018x} | {:#018x} | {:#018x} |",
            row.kind,
            row.recorded.remount_digest,
            row.bytefs.remount_digest,
            row.ext4.remount_digest,
        );
    }
    md
}

pub(crate) fn run(scale: Scale) -> BenchReport {
    let rows: Vec<Row> = CorpusKind::ALL
        .into_iter()
        .map(|kind| {
            let recorded = record_corpus(kind, FsKind::ByteFs, bench_config(), scale, SEED)
                .unwrap_or_else(|e| panic!("recording {kind}: {e}"));
            let bytefs = replay_twice(&recorded, FsKind::ByteFs, true);
            let ext4 = replay_twice(&recorded, FsKind::Ext4, false);
            Row { kind, recorded, bytefs, ext4 }
        })
        .collect();

    let mut report = BenchReport::new("replay", scale.factor());
    for row in &rows {
        report.entries.push(entry(row.kind, "bytefs", &row.bytefs));
        report.entries.push(entry(row.kind, "ext4", &row.ext4));
    }
    // Every check above passed to get here; the pinned scalar lets a report
    // reader (and the committed-artifact diff) see the contract held.
    report.summary.insert("deterministic".to_string(), 1.0);
    report.summary.insert("scenarios".to_string(), rows.len() as f64);

    let cichurn =
        rows.iter().find(|r| r.kind == CorpusKind::CiChurn).expect("CiChurn is in CorpusKind::ALL");
    for (path, text) in [
        ("replay_report.md", markdown(&rows)),
        ("replay_trace_cichurn.txt", cichurn.recorded.trace.to_text()),
    ] {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("replay: wrote {path}");
    }
    report
}
