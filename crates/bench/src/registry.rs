//! The one table of benches: what `bench run`, `bench list` and
//! `bench compare` iterate, and what `DESIGN.md`'s index is checked against.

use std::fmt::Write as _;

use workloads::Scale;

use crate::gate::GATES;
use crate::report::BenchReport;
use crate::suite::{
    c10k, fs_scale, gc_pause, hang_recovery, media_fault, mt_scale, paper, qd_sweep, recovery_time,
    replay, trace_smoke,
};

/// Which clock a bench's headline numbers are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Modelled nanoseconds on `mssd::Clock` (or byte counts): a pure
    /// function of the scale, comparable to the paper and across hosts.
    Virtual,
    /// Host wall-clock: how fast the simulator runs, comparable only
    /// between equal `host_cpus`.
    Wall,
}

/// One registered bench.
pub struct Bench {
    /// The name `bench run` takes.
    pub name: &'static str,
    /// The clock its headline numbers are on.
    pub clock: Clock,
    /// The `BENCH_*.json` it writes; rows sharing one are merged into a
    /// report named after the artifact, entry keys prefixed by row name.
    pub artifact: &'static str,
    /// The scale CI smoke-runs it at (`bench run <name> smoke`).
    pub smoke_scale: f64,
    /// One line on what it measures: the title of its table.
    pub about: &'static str,
    /// What the paper reports for the same experiment, if it has one.
    pub paper_ref: &'static str,
    /// Runs the bench.
    pub run: fn(Scale) -> BenchReport,
}

const fn bench(
    name: &'static str,
    clock: Clock,
    artifact: &'static str,
    smoke_scale: f64,
    about: &'static str,
    run: fn(Scale) -> BenchReport,
) -> Bench {
    Bench { name, clock, artifact, smoke_scale, about, paper_ref: "", run }
}

/// A row of the paper group: virtual clock, `BENCH_paper.json`, smoke 0.1.
const fn figure(
    name: &'static str,
    about: &'static str,
    paper_ref: &'static str,
    run: fn(Scale) -> BenchReport,
) -> Bench {
    Bench {
        name,
        clock: Clock::Virtual,
        artifact: "BENCH_paper.json",
        smoke_scale: 0.1,
        about,
        paper_ref,
        run,
    }
}

use Clock::{Virtual, Wall};

/// Every bench, in the order `bench run all` runs them.
#[rustfmt::skip]
pub const BENCHES: &[Bench] = &[
    bench("mt_scale", Wall, "BENCH_mt_scale.json", 0.1,
          "wall-clock device throughput, 1/2/4/8 threads on one shared Mssd", mt_scale::run),
    bench("qd_sweep", Wall, "BENCH_qd_sweep.json", 0.1,
          "batched queue submission (qd 4/16/64) vs synchronous qd 1", qd_sweep::run),
    // Full scale: the per-batch runtime overhead amortizes over real op
    // counts, and the whole sweep still finishes in well under a minute.
    bench("c10k", Wall, "BENCH_c10k.json", 1.0,
          "1k/4k/10k async clients on one thread vs one sync thread at qd=64", c10k::run),
    bench("gc_pause", Wall, "BENCH_gc_pause.json", 0.2,
          "foreground byte-write latency with log cleaning active vs idle", gc_pause::run),
    bench("media_fault", Wall, "BENCH_media_fault.json", 0.3,
          "RAS-layer cost under a 1e-4 transient read-error rate", media_fault::run),
    bench("hang_recovery", Virtual, "BENCH_hang_recovery.json", 0.3,
          "recovery-layer tail latency under a 1e-3 fail-slow rate", hang_recovery::run),
    bench("recovery_time", Virtual, "BENCH_recovery.json", 0.2,
          "remount + RECOVER() latency vs dirty-log depth (16 MB log region)", recovery_time::run),
    bench("fs_scale", Wall, "BENCH_fs_scale.json", 0.1,
          "wall-clock file-system throughput, 1/2/4/8 threads via run_concurrent", fs_scale::run),
    bench("trace_smoke", Virtual, "BENCH_trace_smoke.json", 1.0,
          "traced workload -> Chrome trace export, validated in-process", trace_smoke::run),
    bench("replay", Virtual, "BENCH_replay.json", 0.1,
          "trace corpus recorded on ByteFS, replayed on ByteFS + ext4-like", replay::run),
    figure("fig1", "Figure 1 — host-SSD traffic of Ext4/F2FS by file-system data structure",
           "", paper::fig1),
    figure("fig6", "Figure 6 — throughput normalized to Ext4",
           "ByteFS outperforms Ext4 by up to 2.7x overall (6x on create), F2FS by up to 2.4x; \
            NOVA/PMFS lag on read-heavy workloads.", paper::fig6),
    figure("fig7", "Figure 7 — YCSB latency (read avg / read p95 / write avg / write p95)",
           "ByteFS improves read avg/p95 by ~2.3x/2.0x and write by ~1.3x/1.6x over F2FS on \
            YCSB-A/F; YCSB-C (read-only) is similar across FSes.", paper::fig7),
    figure("fig8", "Figure 8 — host-SSD traffic on micro-benchmarks (normalized to NOVA)",
           "ByteFS cuts metadata traffic by 11.4x vs Ext4 and 6.1x vs F2FS on average, and also \
            beats NOVA/PMFS by avoiding double writes.", paper::fig8),
    figure("fig9", "Figure 9 — host-SSD traffic on macro-benchmarks (normalized to Ext4)",
           "ByteFS reduces host-SSD traffic by up to 5.1x vs the baselines.", paper::fig9),
    figure("fig10", "Figure 10 — SSD flash traffic on micro-benchmarks (normalized to Ext4)",
           "ByteFS reduces flash traffic by ~2.9x vs Ext4 on average by coalescing small writes \
            in the in-device write log.", paper::fig10),
    figure("fig11", "Figure 11 — SSD flash traffic on macro-benchmarks (normalized to Ext4)",
           "", paper::fig11),
    figure("fig12", "Figure 12 — ByteFS performance breakdown (normalized to Ext4)",
           "Varmail/Fileserver benefit from both the dual interface and the log-structured \
            buffer; Webproxy mostly from the dual interface; OLTP from both.", paper::fig12),
    figure("fig13", "Figure 13 — throughput vs flash latency (normalized to each FS at 40/60)",
           "ByteFS keeps its advantage across flash latencies; the gap grows with slower flash \
            programs because the write log hides program latency.", paper::fig13),
    figure("fig14", "Figure 14 — ByteFS throughput vs write-log size (4-32 MB here for the \
                     paper's 64-512 MB; normalized to the smallest log)",
           "larger logs help most workloads modestly; workloads with good write locality \
            (e.g. OLTP) see marginal benefit.", paper::fig14),
    figure("table1", "Table 1 — modelled M-SSD characteristics",
           "cacheline read 4.8 us, write 0.6 us; sequential 4 KB read 3.5 GB/s, write 2.5 GB/s; \
            flash read 40 us, program 60 us.", paper::table1),
    figure("table2", "Table 2 — I/O amplification (host traffic / application traffic)",
           "Ext4 write amplification 1.4-6.2x, read 1.1-1.7x; F2FS lower.", paper::table2),
    figure("recovery", "§5.5 — RECOVER() + remount after a crash under YCSB-A",
           "4.2 s on a 1 GB device DRAM image; the harness region is 16 MB, so the absolute \
            recovery time scales down proportionally.", paper::recovery),
];

/// The rows `target` selects: `all`, one row by name, or every row of an
/// artifact by its stem (`paper` for `BENCH_paper.json`). A row name wins
/// over a stem (`recovery` is the §5.5 bench, not `BENCH_recovery.json`).
pub fn select(target: &str) -> Vec<&'static Bench> {
    let named: Vec<_> = BENCHES.iter().filter(|b| target == "all" || b.name == target).collect();
    if !named.is_empty() {
        return named;
    }
    BENCHES.iter().filter(|b| stem(b.artifact) == target).collect()
}

/// The distinct artifacts `rows` write, in registry order.
pub fn artifacts(rows: &[&Bench]) -> Vec<&'static str> {
    let mut distinct = Vec::new();
    for row in rows {
        if !distinct.contains(&row.artifact) {
            distinct.push(row.artifact);
        }
    }
    distinct
}

/// `paper` for `BENCH_paper.json`.
pub fn stem(artifact: &str) -> &str {
    artifact.trim_start_matches("BENCH_").trim_end_matches(".json")
}

/// The registry as the markdown table `bench list` prints and `DESIGN.md`
/// carries.
pub fn table() -> String {
    let mut s =
        String::from("| bench | clock | artifact | smoke scale | gates |\n|---|---|---|---|---|\n");
    for b in BENCHES {
        let gates: Vec<String> =
            GATES.iter().filter(|g| g.bench == b.name).map(|g| format!("`{g}`")).collect();
        let _ = writeln!(
            s,
            "| `{}` | {} | `{}` | {} | {} |",
            b.name,
            if b.clock == Clock::Virtual { "virtual" } else { "host wall" },
            b.artifact,
            b.smoke_scale,
            if gates.is_empty() { "–".to_string() } else { gates.join("; ") },
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_each_artifact_has_one_writer() {
        for (i, b) in BENCHES.iter().enumerate() {
            assert!(BENCHES[..i].iter().all(|other| other.name != b.name), "{} twice", b.name);
            let sharing: Vec<&str> =
                BENCHES.iter().filter(|o| o.artifact == b.artifact).map(|o| o.name).collect();
            // The one stated exception: the thirteen paper rows fill
            // BENCH_paper.json together, keys prefixed by the row's name.
            if b.artifact == "BENCH_paper.json" {
                assert_eq!(sharing.len(), 13, "{sharing:?}");
                assert_eq!((b.clock, b.smoke_scale), (Clock::Virtual, 0.1), "{}", b.name);
            } else {
                assert_eq!(sharing, [b.name], "{} has two writers", b.artifact);
                assert!(b.paper_ref.is_empty());
                let named_after = if b.name == "recovery_time" { "recovery" } else { b.name };
                assert_eq!(b.artifact, format!("BENCH_{named_after}.json"));
            }
            assert!(b.smoke_scale > 0.0 && !b.about.is_empty());
        }
        assert_eq!(BENCHES.len(), 23);
    }

    #[test]
    fn select_takes_all_a_name_or_an_artifact_stem() {
        let names = |target| select(target).iter().map(|b| b.name).collect::<Vec<_>>();
        assert_eq!(names("all").len(), BENCHES.len());
        assert_eq!(names("mt_scale"), ["mt_scale"]);
        assert_eq!(names("paper").len(), 13);
        assert_eq!(names("paper")[..2], ["fig1", "fig6"]);
        assert_eq!(names("recovery"), ["recovery"], "the §5.5 bench, not BENCH_recovery.json");
        assert_eq!(names("recovery_time"), ["recovery_time"]);
        assert!(names("fig99").is_empty() && names("").is_empty());
    }

    #[test]
    fn design_md_carries_the_registry_table() {
        let design = include_str!("../DESIGN.md");
        assert!(
            design.contains(&table()),
            "DESIGN.md's index drifted from `bench list`:\n{}",
            table()
        );
    }
}
