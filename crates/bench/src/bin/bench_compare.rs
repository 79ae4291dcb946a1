//! Perf-regression gate: diffs fresh bench runs against the committed
//! `BENCH_*.json` artifacts (unified schema, see `bench::report`) and fails
//! on real regressions.
//!
//! ```text
//! bench_compare [--report md] <delta_out.json> <fresh1.json> <committed1.json> \
//!               [<fresh2.json> <committed2.json> ...]
//! ```
//!
//! For every `(fresh, committed)` pair the comparator matches entries by
//! key and checks the first-class metrics:
//!
//! * **throughput**: fresh must reach at least 75 % of the committed
//!   `throughput_ops_s` (a >25 % drop is a regression);
//! * **p99 / p99.9 latency**: fresh `p99_ns` and `p999_ns` must stay
//!   within 2x of committed.
//!
//! Only reports at `SCHEMA_VERSION` load (`BenchReport::from_json` refuses
//! any other). `--report md` additionally writes a markdown delta table
//! next to the JSON (same path, `.md` extension).
//!
//! Zero metrics mean "not applicable" and are never gated. Wall-clock
//! numbers are only comparable between identical hosts, so a pair is
//! **enforced** only when `host_cpus` matches between the two reports;
//! mismatched pairs are still diffed and recorded in the delta report
//! (uploaded as a CI artifact either way), just not failed on. Scale
//! differences are recorded too — throughput is time-normalized and the 2x
//! p99 headroom absorbs smoke-scale effects, so they do not disable
//! enforcement.
//!
//! Exit status: 0 when no enforced check failed, 1 otherwise, 2 on usage or
//! schema errors.

use std::fmt::Write as _;

use bench::{BenchReport, SCHEMA_VERSION};

/// Fresh throughput below this fraction of committed is a regression.
const THROUGHPUT_FLOOR: f64 = 0.75;

/// Fresh p99 above this multiple of committed is a regression.
const P99_CEILING: f64 = 2.0;

/// Virtual-clock metrics are host-independent, so they are enforced even
/// across differing `host_cpus` — but they vary with thread interleaving
/// (shared caches, allocation order), so the thresholds are wider: a
/// virtual rate below 0.6x or a virtual latency above 2x of committed is a
/// regression.
const VIRTUAL_FLOOR: f64 = 0.6;
const VIRTUAL_CEILING: f64 = 2.0;

struct Delta {
    bench: String,
    key: String,
    metric: String,
    committed: f64,
    fresh: f64,
    ratio: f64,
    enforced: bool,
    regression: bool,
}

fn compare_pair(
    fresh: &BenchReport,
    committed: &BenchReport,
    deltas: &mut Vec<Delta>,
) -> Result<(), String> {
    if fresh.bench != committed.bench {
        return Err(format!(
            "bench mismatch: fresh is {:?}, committed is {:?}",
            fresh.bench, committed.bench
        ));
    }
    let enforced = fresh.host_cpus == committed.host_cpus;
    for c in &committed.entries {
        let Some(f) = fresh.entry(&c.key) else {
            // A configuration that vanished from the bench is a schema
            // change, not a perf regression; record it un-enforced.
            deltas.push(Delta {
                bench: committed.bench.clone(),
                key: c.key.clone(),
                metric: "missing-entry".into(),
                committed: 0.0,
                fresh: 0.0,
                ratio: 0.0,
                enforced: false,
                regression: false,
            });
            continue;
        };
        if c.throughput_ops_s > 0.0 && f.throughput_ops_s > 0.0 {
            let ratio = f.throughput_ops_s / c.throughput_ops_s;
            deltas.push(Delta {
                bench: committed.bench.clone(),
                key: c.key.clone(),
                metric: "throughput_ops_s".into(),
                committed: c.throughput_ops_s,
                fresh: f.throughput_ops_s,
                ratio,
                enforced,
                regression: enforced && ratio < THROUGHPUT_FLOOR,
            });
        }
        if c.p99_ns > 0 && f.p99_ns > 0 {
            let ratio = f.p99_ns as f64 / c.p99_ns as f64;
            deltas.push(Delta {
                bench: committed.bench.clone(),
                key: c.key.clone(),
                metric: "p99_ns".into(),
                committed: c.p99_ns as f64,
                fresh: f.p99_ns as f64,
                ratio,
                enforced,
                regression: enforced && ratio > P99_CEILING,
            });
        }
        // p99.9 (schema v3) gates like p99; a v2 side reports 0 and the
        // zero-means-not-applicable rule quietly skips the check.
        if c.p999_ns > 0 && f.p999_ns > 0 {
            let ratio = f.p999_ns as f64 / c.p999_ns as f64;
            deltas.push(Delta {
                bench: committed.bench.clone(),
                key: c.key.clone(),
                metric: "p999_ns".into(),
                committed: c.p999_ns as f64,
                fresh: f.p999_ns as f64,
                ratio,
                enforced,
                regression: enforced && ratio > P99_CEILING,
            });
        }
        // Virtual-clock extras (`*virtual*` keys) are simulation results,
        // not wall measurements: identical op streams charge identical
        // modelled costs regardless of host speed, so these are enforced
        // across differing host_cpus too — this is what lets the gate bite
        // on CI runners whose shape differs from the committed artifacts'
        // producer. Only a matching scale makes the values comparable.
        let virtual_enforced = fresh.scale == committed.scale;
        for (k, cv) in &c.extra {
            if !k.contains("virtual") {
                continue;
            }
            let Some(fv) = f.extra.get(k) else { continue };
            if *cv <= 0.0 || *fv <= 0.0 {
                continue;
            }
            let ratio = fv / cv;
            // `_ms`/`_ns` keys are latencies (higher = worse); the rest
            // are rates (lower = worse).
            let latency_like = k.ends_with("_ms") || k.ends_with("_ns");
            let regression = virtual_enforced
                && if latency_like { ratio > VIRTUAL_CEILING } else { ratio < VIRTUAL_FLOOR };
            deltas.push(Delta {
                bench: committed.bench.clone(),
                key: c.key.clone(),
                metric: k.clone(),
                committed: *cv,
                fresh: *fv,
                ratio,
                enforced: virtual_enforced,
                regression,
            });
        }
    }
    // Report-level summary scalars — the only place gc_pause's
    // p99_ratio_on_vs_off and qd_sweep's qd16_vs_qd1_t* live. They are
    // derived from wall measurements on one host, so they are enforced
    // like wall metrics (matched host_cpus). Direction by name: keys
    // containing "p99" or ending in "_ms"/"_ns" are higher-is-worse,
    // everything else (speedup ratios, op counts) lower-is-worse.
    for (k, cv) in &committed.summary {
        let Some(fv) = fresh.summary.get(k) else { continue };
        if *cv <= 0.0 || *fv <= 0.0 {
            continue;
        }
        let ratio = fv / cv;
        let higher_worse = k.contains("p99") || k.ends_with("_ms") || k.ends_with("_ns");
        let regression =
            enforced && if higher_worse { ratio > P99_CEILING } else { ratio < THROUGHPUT_FLOOR };
        deltas.push(Delta {
            bench: committed.bench.clone(),
            key: "summary".into(),
            metric: k.clone(),
            committed: *cv,
            fresh: *fv,
            ratio,
            enforced,
            regression,
        });
    }
    Ok(())
}

fn write_delta_report(path: &str, deltas: &[Delta], enforced_any: bool) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"throughput_floor\": {THROUGHPUT_FLOOR},");
    let _ = writeln!(s, "  \"p99_ceiling\": {P99_CEILING},");
    let _ = writeln!(s, "  \"enforced\": {enforced_any},");
    let _ = writeln!(s, "  \"regressions\": {},", deltas.iter().filter(|d| d.regression).count());
    s.push_str("  \"deltas\": [\n");
    for (i, d) in deltas.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"bench\": {:?}, \"key\": {:?}, \"metric\": {:?}, \"committed\": {:.3}, \
             \"fresh\": {:.3}, \"ratio\": {:.4}, \"enforced\": {}, \"regression\": {}}}",
            d.bench, d.key, d.metric, d.committed, d.fresh, d.ratio, d.enforced, d.regression
        );
        s.push_str(if i + 1 < deltas.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// Renders the delta table as a markdown document, written next to the JSON
/// delta (same path, `.md` extension) when `--report md` is passed — the
/// human-readable artifact CI uploads alongside the machine-readable one.
fn write_markdown_report(path: &str, deltas: &[Delta]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("# Bench comparison\n\n");
    let regressions = deltas.iter().filter(|d| d.regression).count();
    let _ = writeln!(
        s,
        "Gates: throughput ≥ {THROUGHPUT_FLOOR}x committed, p99/p99.9 ≤ {P99_CEILING}x \
         committed, virtual rates ≥ {VIRTUAL_FLOOR}x / latencies ≤ {VIRTUAL_CEILING}x."
    );
    let _ = writeln!(s, "\n**{} deltas, {} regressions.**\n", deltas.len(), regressions);
    s.push_str("| bench | entry | metric | baseline | fresh | ratio | verdict |\n");
    s.push_str("|---|---|---|---:|---:|---:|---|\n");
    for d in deltas {
        if d.metric == "missing-entry" {
            let _ = writeln!(s, "| {} | {} | missing-entry | – | – | – | info |", d.bench, d.key);
            continue;
        }
        let verdict = if d.regression {
            "**REGRESSION**"
        } else if !d.enforced {
            "info"
        } else {
            "ok"
        };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {:.0} | {:.0} | {:.2} | {verdict} |",
            d.bench, d.key, d.metric, d.committed, d.fresh, d.ratio
        );
    }
    std::fs::write(path, s)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--report md` may appear anywhere; strip it before positional parsing.
    let mut report_md = false;
    args.retain(|a| match a.as_str() {
        "--report=md" => {
            report_md = true;
            false
        }
        _ => true,
    });
    if let Some(pos) = args.iter().position(|a| a == "--report") {
        if args.get(pos + 1).map(String::as_str) != Some("md") {
            eprintln!("bench_compare: --report only supports 'md'");
            std::process::exit(2);
        }
        args.drain(pos..=pos + 1);
        report_md = true;
    }
    if args.len() < 3 || args.len().is_multiple_of(2) {
        eprintln!(
            "usage: bench_compare [--report md] <delta_out.json> <fresh.json> <committed.json> \
             [<fresh2> <committed2> ...]"
        );
        std::process::exit(2);
    }
    let out = &args[0];
    let mut deltas = Vec::new();
    let mut enforced_any = false;
    for pair in args[1..].chunks(2) {
        let fresh = BenchReport::load(&pair[0]).unwrap_or_else(|e| {
            eprintln!("bench_compare: {e}");
            std::process::exit(2);
        });
        let committed = BenchReport::load(&pair[1]).unwrap_or_else(|e| {
            eprintln!("bench_compare: {e}");
            std::process::exit(2);
        });
        let enforced = fresh.host_cpus == committed.host_cpus;
        enforced_any |= enforced;
        println!(
            "bench_compare: {} — fresh host_cpus={} scale={} vs committed host_cpus={} scale={} ({})",
            committed.bench,
            fresh.host_cpus,
            fresh.scale,
            committed.host_cpus,
            committed.scale,
            if enforced {
                "wall metrics ENFORCED"
            } else {
                "wall metrics informational: host_cpus differ; virtual metrics still enforced"
            }
        );
        if let Err(e) = compare_pair(&fresh, &committed, &mut deltas) {
            eprintln!("bench_compare: {e}");
            std::process::exit(2);
        }
    }

    let regressions: Vec<&Delta> = deltas.iter().filter(|d| d.regression).collect();
    for d in &deltas {
        if d.metric == "missing-entry" {
            println!("  {} {}: entry missing from the fresh run", d.bench, d.key);
            continue;
        }
        let verdict = if d.regression {
            "REGRESSION"
        } else if !d.enforced {
            "info"
        } else {
            "ok"
        };
        println!(
            "  {} {} {}: committed {:.0} fresh {:.0} ratio {:.2} [{verdict}]",
            d.bench, d.key, d.metric, d.committed, d.fresh, d.ratio
        );
    }
    if let Err(e) = write_delta_report(out, &deltas, enforced_any) {
        eprintln!("bench_compare: failed to write {out}: {e}");
        std::process::exit(2);
    }
    if report_md {
        let md_path = match out.strip_suffix(".json") {
            Some(stem) => format!("{stem}.md"),
            None => format!("{out}.md"),
        };
        if let Err(e) = write_markdown_report(&md_path, &deltas) {
            eprintln!("bench_compare: failed to write {md_path}: {e}");
            std::process::exit(2);
        }
        println!("bench_compare: markdown report -> {md_path}");
    }
    println!("bench_compare: {} deltas, {} regressions -> {out}", deltas.len(), regressions.len());
    if !regressions.is_empty() {
        for d in &regressions {
            eprintln!(
                "REGRESSION: {} {} {} fell to {:.2}x of committed",
                d.bench, d.key, d.metric, d.ratio
            );
        }
        std::process::exit(1);
    }
}
