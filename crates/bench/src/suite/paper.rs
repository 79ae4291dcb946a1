//! The thirteen benches that reproduce the paper's evaluation: Figures 1 and
//! 6–14, Tables 1 and 2 and the §5.5 recovery measurement.
//!
//! All of them report **virtual time** or byte counts: every modelled device
//! and host cost is charged to the shared `mssd::Clock`, so the numbers are a
//! pure function of the scale and repeat exactly on any host. Together they
//! fill the committed `BENCH_paper.json`. Most are one grid — subjects ×
//! configurations, each cell normalised to one column of its row — and go
//! through [`sweep`].

use bytefs::{ByteFs, ByteFsConfig};
use mssd::stats::Direction;
use mssd::{Category, DramMode, Mssd, MssdConfig, TimingProfile};
use workloads::amplification::TrafficBreakdown;
use workloads::filebench::{Filebench, Personality};
use workloads::micro::{Micro, MicroOp};
use workloads::oltp::Oltp;
use workloads::ycsb::{run_ycsb, YcsbResult, YcsbSpec, YcsbWorkload};
use workloads::{run_workload, FsKind, RunResult, Scale, Workload};

use crate::{bench_config, BenchEntry, BenchReport};

/// A cell's named metrics.
type Metrics = Vec<(&'static str, f64)>;

/// The throughput key: `virtual` in the name makes `bench compare` enforce
/// it across hosts.
const KOPS: &str = "virtual_kops_per_sec";

fn micros(ops: &[MicroOp], scale: Scale) -> Vec<Box<dyn Workload>> {
    ops.iter().map(|op| Box::new(Micro::new(*op, scale)) as Box<dyn Workload>).collect()
}

/// The four Filebench personalities and OLTP.
fn macros(scale: Scale) -> Vec<Box<dyn Workload>> {
    let mut all: Vec<Box<dyn Workload>> = Vec::new();
    for p in Personality::ALL {
        all.push(Box::new(Filebench::new(p, scale)));
    }
    all.push(Box::new(Oltp::new(scale)));
    all
}

fn named(workloads: Vec<Box<dyn Workload>>) -> Vec<(String, Box<dyn Workload>)> {
    workloads.into_iter().map(|w| (w.name(), w)).collect()
}

fn labelled<C: Copy>(cols: &[C], label: impl Fn(&C) -> &'static str) -> Vec<(String, C)> {
    cols.iter().map(|c| (label(c).to_string(), *c)).collect()
}

fn run_fs(kind: FsKind, cfg: MssdConfig, workload: &dyn Workload, seed: u64) -> RunResult {
    run_workload(kind, cfg, workload, seed).expect("workload runs")
}

fn run_kv(
    kind: FsKind,
    cfg: MssdConfig,
    ycsb: YcsbWorkload,
    scale: Scale,
    seed: u64,
) -> YcsbResult {
    let (dev, fs) = kind.build(cfg);
    run_ycsb(&dev, fs, &YcsbSpec::new(ycsb, scale), seed).expect("ycsb runs")
}

/// The grid most figures are: every row subject measured under every column
/// configuration, one entry `<row>/<column>` per cell. A cell's metrics sum
/// to the quantity `ratio_key` normalises to the row's `base` column — one
/// throughput, or the components of a stacked traffic bar.
fn sweep<R, C>(
    report: &mut BenchReport,
    rows: &[(String, R)],
    cols: &[(String, C)],
    base: usize,
    ratio_key: &'static str,
    measure: impl Fn(&R, &C) -> Metrics,
) {
    let total = |cell: &Metrics| cell.iter().map(|(_, v)| v).sum::<f64>();
    for (row_name, row) in rows {
        let cells: Vec<Metrics> = cols.iter().map(|(_, col)| measure(row, col)).collect();
        let base_total = total(&cells[base]);
        for ((col_name, _), mut cell) in cols.iter().zip(cells) {
            let ratio = if base_total > 0.0 { total(&cell) / base_total } else { 0.0 };
            cell.push((ratio_key, ratio));
            report.entries.push(BenchEntry::new(format!("{row_name}/{col_name}"), &cell));
        }
    }
}

/// Host–SSD traffic of one run, split data/metadata × read/write.
fn host_traffic(run: &RunResult) -> Metrics {
    let t = &run.traffic;
    vec![
        ("data_read_bytes", t.host_data_bytes(Direction::Read) as f64),
        ("data_write_bytes", t.host_data_bytes(Direction::Write) as f64),
        ("meta_read_bytes", t.host_metadata_bytes(Direction::Read) as f64),
        ("meta_write_bytes", t.host_metadata_bytes(Direction::Write) as f64),
    ]
}

fn flash_traffic(run: &RunResult) -> Metrics {
    vec![
        ("flash_read_bytes", run.flash_read_bytes() as f64),
        ("flash_write_bytes", run.flash_write_bytes() as f64),
    ]
}

/// A traffic figure: `workloads` × the five main file systems at `seed`.
fn traffic_figure(
    name: &str,
    scale: Scale,
    workloads: Vec<Box<dyn Workload>>,
    seed: u64,
    base: FsKind,
    ratio_key: &'static str,
    metrics: fn(&RunResult) -> Metrics,
) -> BenchReport {
    let mut report = BenchReport::new(name, scale.factor());
    let base = FsKind::MAIN.iter().position(|k| *k == base).expect("base is a main fs");
    let kinds = labelled(&FsKind::MAIN, |k| k.label());
    sweep(&mut report, &named(workloads), &kinds, base, ratio_key, |w, kind| {
        metrics(&run_fs(*kind, bench_config(), w.as_ref(), seed))
    });
    report
}

/// Figure 1: host–SSD traffic of Ext4-like and F2FS-like by file-system
/// data structure, micro and macro workloads, both directions.
pub(crate) fn fig1(scale: Scale) -> BenchReport {
    let mut workloads =
        micros(&[MicroOp::Mkdir, MicroOp::Rmdir, MicroOp::Create, MicroOp::Delete], scale);
    workloads.extend(macros(scale));
    let mut runs = Vec::new();
    for kind in [FsKind::Ext4, FsKind::F2fs] {
        for w in &workloads {
            runs.push(run_fs(kind, bench_config(), w.as_ref(), 7));
        }
    }
    let mut report = BenchReport::new("fig1", scale.factor());
    for (dir, label) in [(Direction::Write, "write"), (Direction::Read, "read")] {
        for run in &runs {
            let breakdown = TrafficBreakdown::new(&run.traffic, dir);
            let mut entry = BenchEntry::new(
                format!("{label}/{}/{}", run.fs, run.workload),
                &[("total_bytes", breakdown.total as f64)],
            );
            for (cat, bytes, share) in &breakdown.rows {
                entry.extra.insert(format!("{cat}_bytes"), *bytes as f64);
                entry.extra.insert(format!("{cat}_share"), *share);
            }
            report.entries.push(entry);
        }
    }
    report
}

/// Figure 6: throughput of the five file systems on the micro-benchmarks,
/// macro-benchmarks and YCSB, normalized to Ext4.
pub(crate) fn fig6(scale: Scale) -> BenchReport {
    let mut report = BenchReport::new("fig6", scale.factor());
    let mut workloads = micros(&MicroOp::ALL, scale);
    workloads.extend(macros(scale));
    let kinds = labelled(&FsKind::MAIN, |k| k.label());
    sweep(&mut report, &named(workloads), &kinds, 0, "vs_ext4", |w, kind| {
        vec![(KOPS, run_fs(*kind, bench_config(), w.as_ref(), 13).kops_per_sec)]
    });
    let ycsb = labelled(&YcsbWorkload::ALL, |y| y.label());
    sweep(&mut report, &ycsb, &kinds, 0, "vs_ext4", |y, kind| {
        vec![(KOPS, run_kv(*kind, bench_config(), *y, scale, 13).kops_per_sec)]
    });
    report
}

/// Figure 7: YCSB average and 95th-percentile latency of reads and updates
/// per file system. Read-only workloads carry no write columns.
pub(crate) fn fig7(scale: Scale) -> BenchReport {
    let mut report = BenchReport::new("fig7", scale.factor());
    for ycsb in YcsbWorkload::ALL {
        for kind in FsKind::MAIN {
            let r = run_kv(kind, bench_config(), ycsb, scale, 21);
            let mut entry = BenchEntry::new(
                format!("{}/{kind}", ycsb.label()),
                &[
                    ("virtual_read_avg_ns", r.read.avg_ns),
                    ("virtual_read_p95_ns", r.read.p95_ns as f64),
                ],
            );
            if r.write.count > 0 {
                entry.extra.insert("virtual_write_avg_ns".into(), r.write.avg_ns);
                entry.extra.insert("virtual_write_p95_ns".into(), r.write.p95_ns as f64);
            }
            report.entries.push(entry);
        }
    }
    report
}

/// Figure 8: host–SSD traffic (data/metadata × read/write) on the
/// micro-benchmarks, total normalized to NOVA.
pub(crate) fn fig8(scale: Scale) -> BenchReport {
    let micro = micros(&MicroOp::ALL, scale);
    traffic_figure("fig8", scale, micro, 5, FsKind::Nova, "total_vs_nova", host_traffic)
}

/// Figure 9: host–SSD traffic on the macro-benchmarks, total normalized to
/// Ext4.
pub(crate) fn fig9(scale: Scale) -> BenchReport {
    traffic_figure("fig9", scale, macros(scale), 5, FsKind::Ext4, "total_vs_ext4", host_traffic)
}

/// Figure 10: internal flash traffic on the micro-benchmarks, total
/// normalized to Ext4.
pub(crate) fn fig10(scale: Scale) -> BenchReport {
    let micro = micros(&MicroOp::ALL, scale);
    traffic_figure("fig10", scale, micro, 3, FsKind::Ext4, "total_vs_ext4", flash_traffic)
}

/// Figure 11: internal flash traffic on the macro-benchmarks, total
/// normalized to Ext4.
pub(crate) fn fig11(scale: Scale) -> BenchReport {
    traffic_figure("fig11", scale, macros(scale), 3, FsKind::Ext4, "total_vs_ext4", flash_traffic)
}

/// Figure 12: the design ablation — Ext4 vs ByteFS-Dual (dual interface for
/// metadata only) vs ByteFS-Log (plus the firmware log) vs full ByteFS — on
/// the macro workloads, normalized to Ext4.
pub(crate) fn fig12(scale: Scale) -> BenchReport {
    let mut report = BenchReport::new("fig12", scale.factor());
    let kinds = labelled(&FsKind::ABLATION, |k| k.label());
    sweep(&mut report, &named(macros(scale)), &kinds, 0, "vs_ext4", |w, kind| {
        vec![(KOPS, run_fs(*kind, bench_config(), w.as_ref(), 17).kops_per_sec)]
    });
    report
}

/// Figure 13: macro-benchmark throughput of ByteFS, F2FS and NOVA under the
/// 25/200, 40/60, 3/80 and 3/80* (CXL) flash latencies, each file system
/// normalized to itself at the default 40/60.
pub(crate) fn fig13(scale: Scale) -> BenchReport {
    let workloads = macros(scale);
    let rows: Vec<(String, (&dyn Workload, FsKind))> = workloads
        .iter()
        .flat_map(|w| {
            [FsKind::ByteFs, FsKind::F2fs, FsKind::Nova]
                .map(|kind| (format!("{}/{kind}", w.name()), (w.as_ref(), kind)))
        })
        .collect();
    let profiles = labelled(&TimingProfile::all(), |p| p.label());
    let default = profiles.iter().position(|(_, p)| *p == TimingProfile::Default);
    let default = default.expect("40/60 is swept");
    let mut report = BenchReport::new("fig13", scale.factor());
    sweep(&mut report, &rows, &profiles, default, "vs_40/60", |(w, kind), profile| {
        let cfg =
            MssdConfig::with_profile(*profile).with_capacity(1 << 30).with_dram_region(16 << 20);
        vec![(KOPS, run_fs(*kind, cfg, *w, 29).kops_per_sec)]
    });
    report
}

/// Figure 14: ByteFS throughput against the SSD DRAM write-log size,
/// normalized to the smallest log. The paper sweeps 64–512 MB on full-size
/// working sets; the harness sweeps 4–32 MB against its proportionally
/// scaled-down working sets (the ratio of log size to working set is what
/// matters).
pub(crate) fn fig14(scale: Scale) -> BenchReport {
    let logs: Vec<(String, usize)> =
        [4usize, 8, 16, 32].iter().map(|mb| (format!("log{mb}M"), mb << 20)).collect();
    let cfg = |log_bytes: &usize| bench_config().with_dram_region(*log_bytes);
    let mut report = BenchReport::new("fig14", scale.factor());
    sweep(&mut report, &named(macros(scale)), &logs, 0, "vs_smallest_log", |w, log| {
        vec![(KOPS, run_fs(FsKind::ByteFs, cfg(log), w.as_ref(), 31).kops_per_sec)]
    });
    let ycsb = labelled(&[YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::F], |y| y.label());
    sweep(&mut report, &ycsb, &logs, 0, "vs_smallest_log", |y, log| {
        vec![(KOPS, run_kv(FsKind::ByteFs, cfg(log), *y, scale, 31).kops_per_sec)]
    });
    report
}

/// Table 1: characteristics of the modelled M-SSD as measured on the device
/// model — byte-interface cacheline accesses, block-interface 4 KB
/// sequential transfers over 32 MB — next to the configured NAND latencies.
/// Fixed-size: the scale is recorded, not applied.
pub(crate) fn table1(scale: Scale) -> BenchReport {
    let cfg = bench_config();
    let dev = Mssd::new(cfg.clone(), DramMode::WriteLog);
    let clock = dev.clock();
    let timed = |work: &dyn Fn()| {
        let t0 = clock.now_ns();
        work();
        (clock.now_ns() - t0) as f64
    };
    let write_ns = timed(&|| dev.try_byte_write(0, &[0u8; 64], None, Category::Other).unwrap());
    let read_ns = timed(&|| drop(dev.try_byte_read(0, 64, Category::Other).unwrap()));

    let pages = 8192u64;
    let buf = vec![0u8; 4096];
    let seq_write_ns =
        timed(&|| (0..pages).for_each(|i| dev.try_block_write(i, &buf, Category::Other).unwrap()));
    let seq_read_ns = timed(&|| {
        (0..pages).for_each(|i| drop(dev.try_block_read(i, 1, Category::Other).unwrap()))
    });
    // bytes per virtual ns = GB per virtual s.
    let gb_per_s = |ns: f64| (pages * 4096) as f64 / ns;

    let mut report = BenchReport::new("table1", scale.factor());
    for (key, metric, value) in [
        ("cacheline_read", "virtual_latency_ns", read_ns),
        ("cacheline_write", "virtual_latency_ns", write_ns),
        ("seq_read_4k", "virtual_gb_per_sec", gb_per_s(seq_read_ns)),
        ("seq_write_4k", "virtual_gb_per_sec", gb_per_s(seq_write_ns)),
        ("flash_read", "configured_latency_ns", cfg.flash_read_ns as f64),
        ("flash_program", "configured_latency_ns", cfg.flash_write_ns as f64),
    ] {
        report.entries.push(BenchEntry::new(key, &[(metric, value)]));
    }
    report
}

/// Table 2: read/write I/O amplification (host traffic over application
/// traffic) of Ext4-like, F2FS-like and ByteFS across the macro workloads.
pub(crate) fn table2(scale: Scale) -> BenchReport {
    let mut report = BenchReport::new("table2", scale.factor());
    for kind in [FsKind::Ext4, FsKind::F2fs, FsKind::ByteFs] {
        for w in macros(scale) {
            let run = run_fs(kind, bench_config(), w.as_ref(), 42);
            report.entries.push(BenchEntry::new(
                format!("{kind}/{}", run.workload),
                &[
                    ("write_amplification", run.write_amplification()),
                    ("read_amplification", run.read_amplification()),
                ],
            ));
        }
    }
    report
}

/// §5.5: a write-heavy YCSB-A phase on ByteFS, a power cut without unmount,
/// then the firmware `RECOVER()` pass plus remount on the virtual clock.
pub(crate) fn recovery(scale: Scale) -> BenchReport {
    let (dev, fs) = FsKind::ByteFs.build(bench_config());
    let result = run_ycsb(&dev, fs, &YcsbSpec::new(YcsbWorkload::A, scale), 37).expect("ycsb runs");

    // Power failure: host state is gone, battery-backed device DRAM survives.
    dev.crash();
    let before_ns = dev.clock().now_ns();
    let snapshot = dev.snapshot();
    let remounted = ByteFs::mount(dev.clone(), ByteFsConfig::full()).expect("remount succeeds");
    let recovered = remounted.recover_after_crash();
    let total_ns = dev.clock().now_ns() - before_ns;

    let mut report = BenchReport::new("recovery", scale.factor());
    report.entries.push(BenchEntry::new(
        "ycsb-a_crash",
        &[
            ("ops_before_crash", result.ops as f64),
            ("log_entries_at_crash", snapshot.log_entries as f64),
            ("log_bytes_at_crash", snapshot.log_used_bytes as f64),
            ("scanned_entries", recovered.scanned_entries as f64),
            ("discarded_entries", recovered.discarded_entries as f64),
            ("flushed_pages", recovered.flushed_pages as f64),
            ("recovery_virtual_ns", recovered.duration_ns as f64),
            ("remount_virtual_ns", total_ns as f64),
        ],
    ));
    report
}
