//! `bench compare`: diffs fresh bench runs against the committed
//! `BENCH_*.json` artifacts and fails on real regressions (`DESIGN.md` has
//! the rules in full). Entries are matched by key. Every bench is on the
//! virtual clock, so one rule covers every metric: a rate below
//! [`VIRTUAL_FLOOR`] or a latency above [`VIRTUAL_CEILING`] of committed is
//! a regression, enforced when the two reports are at the same scale (at
//! another scale they are diffed and recorded only). A committed zero means
//! "not applicable" and is never gated; a committed value the fresh run no
//! longer produces — the metric reads zero, or its entry or key is gone — is
//! a regression like any other.

use std::fmt::Write as _;

use crate::gate::{VIRTUAL_CEILING, VIRTUAL_FLOOR};
use crate::report::{fmt_num, BenchEntry, BenchReport, SCHEMA_VERSION};

/// One compared metric.
pub(crate) struct Delta {
    bench: String,
    key: String,
    pub(crate) metric: String,
    committed: f64,
    fresh: f64,
    ratio: f64,
    enforced: bool,
    pub(crate) regression: bool,
}

impl Delta {
    fn verdict(&self) -> &'static str {
        match (self.regression, self.enforced) {
            (true, _) => "**REGRESSION**",
            (false, true) => "ok",
            (false, false) => "info",
        }
    }
}

/// Direction by name: tails, costs and `_ms`/`_ns` keys are latencies
/// (higher is worse), everything else — rates, counts — is lower-is-worse.
fn higher_is_worse(metric: &str) -> bool {
    metric.contains("p99")
        || metric.contains("cost")
        || metric.ends_with("_ms")
        || metric.ends_with("_ns")
}

/// Compares one fresh report with its committed baseline, appending to
/// `deltas`.
///
/// # Errors
///
/// The two reports are of different benches.
pub(crate) fn compare_pair(
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
    let enforced = fresh.scale == committed.scale;
    // Records one metric. A committed zero is "not applicable" and skipped;
    // a fresh zero against a committed value has vanished, which is a
    // regression.
    let mut check = |key: &str, metric: &str, c: f64, f: f64| {
        if c <= 0.0 {
            return;
        }
        let ratio = f.max(0.0) / c;
        let worse =
            if higher_is_worse(metric) { ratio > VIRTUAL_CEILING } else { ratio < VIRTUAL_FLOOR };
        deltas.push(Delta {
            bench: committed.bench.clone(),
            key: key.to_string(),
            metric: metric.to_string(),
            committed: c,
            fresh: f,
            ratio,
            enforced,
            regression: enforced && (worse || f <= 0.0),
        });
    };
    let gone = BenchEntry::default();
    for c in &committed.entries {
        // A configuration that vanished reads as all zeros: every metric it
        // carried is checked, and fails.
        let f = fresh.entry(&c.key).unwrap_or_else(|| {
            println!("  {} {}: entry missing from the fresh run", committed.bench, c.key);
            &gone
        });
        check(&c.key, "throughput_ops_s", c.throughput_ops_s, f.throughput_ops_s);
        check(&c.key, "p99_ns", c.p99_ns as f64, f.p99_ns as f64);
        check(&c.key, "p999_ns", c.p999_ns as f64, f.p999_ns as f64);
        // The modelled times and rates carry `virtual` in their key; byte
        // counts, shares and normalised ratios are not compared.
        for (k, cv) in c.extra.iter().filter(|(k, _)| k.contains("virtual")) {
            check(&c.key, k, *cv, f.extra.get(k).copied().unwrap_or(0.0));
        }
    }
    for (k, cv) in &committed.summary {
        check("summary", k, *cv, fresh.summary.get(k).copied().unwrap_or(0.0));
    }
    Ok(())
}

fn delta_json(deltas: &[Delta], enforced_any: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"floor\": {VIRTUAL_FLOOR},");
    let _ = writeln!(s, "  \"ceiling\": {VIRTUAL_CEILING},");
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
    s
}

/// The delta table as a markdown document — the human-readable artifact CI
/// uploads alongside the machine-readable one.
fn delta_markdown(deltas: &[Delta]) -> String {
    let mut s = String::new();
    s.push_str("# Bench comparison\n\n");
    let regressions = deltas.iter().filter(|d| d.regression).count();
    let _ = writeln!(
        s,
        "Gates, at the committed scale: rates ≥ {VIRTUAL_FLOOR}x committed, latencies \
         ≤ {VIRTUAL_CEILING}x."
    );
    let _ = writeln!(s, "\n**{} deltas, {} regressions.**\n", deltas.len(), regressions);
    s.push_str("| bench | entry | metric | baseline | fresh | ratio | verdict |\n");
    s.push_str("|---|---|---|---:|---:|---:|---|\n");
    for d in deltas {
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {:.2} | {} |",
            d.bench,
            d.key,
            d.metric,
            fmt_num(d.committed),
            fmt_num(d.fresh),
            d.ratio,
            d.verdict()
        );
    }
    s
}

/// Compares every `(fresh, committed)` pair, prints the deltas and writes
/// `bench_delta.json` and `bench_delta.md` into `out_dir`. Returns the
/// process exit status: 0 when no enforced check failed, 1 otherwise.
///
/// # Errors
///
/// A pair of different benches, or an unwritable delta report.
pub(crate) fn compare(pairs: &[(BenchReport, BenchReport)], out_dir: &str) -> Result<i32, String> {
    let mut deltas = Vec::new();
    let mut enforced_any = false;
    for (fresh, committed) in pairs {
        let enforced = fresh.scale == committed.scale;
        enforced_any |= enforced;
        println!(
            "compare: {} — fresh scale={} vs committed scale={} ({})",
            committed.bench,
            fresh.scale,
            committed.scale,
            if enforced { "ENFORCED" } else { "informational: scales differ" }
        );
        compare_pair(fresh, committed, &mut deltas)?;
    }
    let markdown = delta_markdown(&deltas);
    println!("{markdown}");
    for (name, text) in
        [("bench_delta.json", delta_json(&deltas, enforced_any)), ("bench_delta.md", markdown)]
    {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, text).map_err(|e| format!("failed to write {path}: {e}"))?;
    }
    let regressions: Vec<&Delta> = deltas.iter().filter(|d| d.regression).collect();
    println!(
        "compare: {} deltas, {} regressions -> {out_dir}/bench_delta.{{json,md}}",
        deltas.len(),
        regressions.len()
    );
    for d in &regressions {
        eprintln!(
            "REGRESSION: {} {} {} is at {:.2}x of committed",
            d.bench, d.key, d.metric, d.ratio
        );
    }
    Ok(if regressions.is_empty() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        let mut r = BenchReport::new("gc_pause", 1.0);
        for key in ["cleaning_on", "cleaning_off"] {
            r.entries.push(BenchEntry {
                throughput_ops_s: 1000.0,
                p99_ns: 500,
                p999_ns: 900,
                ..BenchEntry::new(key, &[("virtual_elapsed_ns", 100.0), ("ops", 5.0)])
            });
        }
        r.summary.insert("p99_ratio_on_vs_off".into(), 1.2);
        r
    }

    fn regressions(fresh: &BenchReport, committed: &BenchReport) -> Vec<String> {
        let mut deltas = Vec::new();
        compare_pair(fresh, committed, &mut deltas).expect("same bench");
        deltas.iter().filter(|d| d.regression).map(|d| format!("{}/{}", d.key, d.metric)).collect()
    }

    #[test]
    fn an_unchanged_or_slightly_moved_run_passes() {
        let base = committed();
        assert!(regressions(&base, &base).is_empty());
        let mut moved = base.clone();
        moved.entries[0].throughput_ops_s = 650.0;
        moved.entries[0].p99_ns = 950;
        assert!(regressions(&moved, &base).is_empty());
        moved.entries[0].throughput_ops_s = 550.0;
        moved.entries[1].p999_ns = 1900;
        assert_eq!(
            regressions(&moved, &base),
            ["cleaning_on/throughput_ops_s", "cleaning_off/p999_ns"]
        );
        let mut other = base.clone();
        other.bench = "media_fault".into();
        assert!(compare_pair(&other, &base, &mut Vec::new()).is_err());
    }

    /// A bench that stops producing a p99, a summary scalar or a whole
    /// configuration used to pass: zeros were skipped and a missing entry
    /// was recorded un-enforced.
    #[test]
    fn a_vanished_metric_or_entry_is_a_regression() {
        let base = committed();
        let mut fresh = base.clone();
        fresh.entries[0].p99_ns = 0;
        fresh.entries.remove(1);
        fresh.summary.clear();
        assert_eq!(
            regressions(&fresh, &base),
            [
                "cleaning_on/p99_ns",
                "cleaning_off/throughput_ops_s",
                "cleaning_off/p99_ns",
                "cleaning_off/p999_ns",
                "cleaning_off/virtual_elapsed_ns",
                "summary/p99_ratio_on_vs_off",
            ]
        );
        // The host does not matter: the numbers are modelled…
        let on_another_host = regressions(&fresh, &base);
        fresh.host_cpus = base.host_cpus + 8;
        assert_eq!(regressions(&fresh, &base), on_another_host);
        // …but at another scale nothing is comparable.
        fresh.scale = 0.5;
        assert!(regressions(&fresh, &base).is_empty());
    }

    #[test]
    fn compare_exits_one_on_a_vanished_metric_and_writes_both_reports() {
        let dir = crate::tests::temp_dir("compare");
        let (fresh_dir, committed_dir) = (format!("{dir}/fresh"), format!("{dir}/committed"));
        for d in [&fresh_dir, &committed_dir] {
            std::fs::create_dir_all(d).expect("mkdir");
        }
        let base = committed();
        base.write(&format!("{committed_dir}/BENCH_gc_pause.json")).expect("write");
        base.write(&format!("{fresh_dir}/BENCH_gc_pause.json")).expect("write");
        let compare = |fresh: &str| {
            crate::cli::main(&["compare".into(), fresh.to_string(), committed_dir.clone()])
        };
        assert_eq!(compare(&fresh_dir), 0);
        let mut fresh = base.clone();
        fresh.entries[0].p99_ns = 0;
        fresh.entries.remove(1);
        fresh.write(&format!("{fresh_dir}/BENCH_gc_pause.json")).expect("write");
        assert_eq!(compare(&fresh_dir), 1);
        let md = std::fs::read_to_string(format!("{fresh_dir}/bench_delta.md")).expect("md");
        assert!(
            md.contains("| gc_pause | cleaning_on | p99_ns | 500 | 0 | 0.00 | **REGRESSION** |")
        );
        let json = std::fs::read_to_string(format!("{fresh_dir}/bench_delta.json")).expect("json");
        assert!(crate::report::Json::parse(&json).is_ok() && json.contains("\"regressions\": 5"));
        // A committed artifact with no fresh counterpart is an error, not a pass.
        assert_eq!(compare(&format!("{dir}/nowhere")), 2);
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}
