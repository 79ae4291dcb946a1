//! The unified bench-report JSON schema every registered bench returns and
//! `bench run` writes.
//!
//! Every bench produces a [`BenchReport`]: a `schema_version` tag, the bench
//! name, the scale factor the run was produced under, a flat list of
//! [`BenchEntry`] rows keyed by a stable string (e.g. `"mail/bytefs"` or
//! `"cleaning_on"`), each carrying its numbers in one `extra` map, and a
//! `summary` map of report-level scalars (e.g. `p99_ratio_on_vs_off`).
//! Nothing in a report depends on the host, so a fresh run at the committed
//! scale rewrites the committed `BENCH_*.json` byte for byte.
//!
//! The workspace has no JSON dependency (all deps are vendored offline
//! stand-ins), so this module carries its own writer. Nothing reads a report
//! back: `bench run` checks its gates on the reports it holds in memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version tag of the unified schema, written first in every report. Bump
/// when a field changes meaning.
pub const SCHEMA_VERSION: u64 = 4;

/// One measured configuration of a bench.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Stable key, unique within a report (e.g. `"mail/bytefs"`).
    pub key: String,
    /// The entry's named scalars (latencies, rates, byte counts, ...).
    pub extra: BTreeMap<String, f64>,
}

impl BenchEntry {
    /// An entry with the given key and `extra` scalars.
    pub fn new(key: impl Into<String>, extra: &[(&str, f64)]) -> Self {
        Self { key: key.into(), extra: extra.iter().map(|(k, v)| (k.to_string(), *v)).collect() }
    }
}

/// A full bench report in the unified schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] for freshly written reports).
    pub schema_version: u64,
    /// Bench name: a registry row's, or the artifact's (`"paper"`) when
    /// several rows share one.
    pub bench: String,
    /// Scale factor the run used.
    pub scale: f64,
    /// Measured rows.
    pub entries: Vec<BenchEntry>,
    /// Report-level scalars (e.g. `"p99_ratio_on_vs_off"`).
    pub summary: BTreeMap<String, f64>,
}

impl BenchReport {
    /// Starts a report for `bench` at `scale`.
    pub fn new(bench: &str, scale: f64) -> Self {
        Self { schema_version: SCHEMA_VERSION, bench: bench.to_string(), scale, ..Self::default() }
    }

    /// Looks up an entry by key.
    pub fn entry(&self, key: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Renders the entries as a markdown table: one row per entry, one
    /// column per `extra` key any entry carries (in order of first
    /// appearance, `-` where an entry has none), then the summary scalars on
    /// one line.
    pub fn table(&self) -> String {
        let mut columns: Vec<&str> = Vec::new();
        for name in self.entries.iter().flat_map(|e| e.extra.keys()) {
            if !columns.contains(&name.as_str()) {
                columns.push(name);
            }
        }
        let mut s =
            format!("| entry | {} |\n|{}\n", columns.join(" | "), "---|".repeat(columns.len() + 1));
        for e in &self.entries {
            let value = |c: &&str| e.extra.get(*c).map_or("-".into(), |v| fmt_num(*v));
            let row: Vec<String> = columns.iter().map(value).collect();
            let _ = writeln!(s, "| {} | {} |", e.key, row.join(" | "));
        }
        if !self.summary.is_empty() {
            let cells: Vec<String> =
                self.summary.iter().map(|(k, v)| format!("{k} = {}", fmt_num(*v))).collect();
            let _ = writeln!(s, "\nsummary: {}", cells.join(", "));
        }
        s
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"bench\": {},", json_str(&self.bench));
        let _ = writeln!(s, "  \"scale\": {},", json_f64(self.scale));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(s, "    {{\"key\": {}, \"extra\": {{", json_str(&e.key));
            s.push_str(&json_pairs(&e.extra));
            s.push_str("}}");
            s.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"summary\": {");
        s.push_str(&json_pairs(&self.summary));
        s.push_str("}\n}\n");
        s
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Formats a table cell: integers plainly, everything else to the three
/// decimals the committed artifacts round to.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// `"k": v, "k2": v2` for a scalar map.
fn json_pairs(map: &BTreeMap<String, f64>) -> String {
    let pairs: Vec<String> =
        map.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_f64(*v))).collect();
    pairs.join(", ")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte of the writer's output: escapes in a key (quote, backslash,
    /// a control character), a non-integral value, an integral one, and a
    /// non-finite one, which JSON cannot hold and the writer turns into `0`.
    #[test]
    fn to_json_writes_the_schema_byte_for_byte() {
        let mut r = BenchReport::new("gc_pause", 0.5);
        r.entries.push(BenchEntry::new("a\"b\\c\td", &[("ops", 4.0), ("rate", 123456.75)]));
        r.entries.push(BenchEntry::new("empty", &[]));
        r.summary.insert("nan".into(), f64::NAN);
        r.summary.insert("ratio".into(), 2.057);
        assert_eq!(
            r.to_json(),
            r#"{
  "schema_version": 4,
  "bench": "gc_pause",
  "scale": 0.5,
  "entries": [
    {"key": "a\"b\\c\u0009d", "extra": {"ops": 4, "rate": 123456.75}},
    {"key": "empty", "extra": {}}
  ],
  "summary": {"nan": 0, "ratio": 2.057}
}
"#
        );
    }

    /// A traced run on a real device exports one `"X"` span per completed
    /// command, inside the `traceEvents` envelope.
    #[test]
    fn chrome_trace_export_round_trips() {
        use mssd::{chrome_trace_json, Category, Command, DramMode, Mssd, MssdConfig, TraceKind};
        let dev = Mssd::new(MssdConfig::small_test(), DramMode::WriteLog);
        dev.set_tracing(true);
        let mut q = dev.open_queue(8);
        for lba in 0..4 {
            let data = vec![lba as u8; dev.page_size()];
            q.submit(Command::BlockWrite { lba, data, cat: Category::Data }).expect("submit");
        }
        for addr in [0, 64] {
            let data = vec![7; 64];
            q.submit(Command::ByteWrite { addr, data, txid: None, cat: Category::Inode })
                .expect("submit");
        }
        q.ring_doorbell();
        while q.poll().is_some() {}
        let dump = dev.trace_sink().drain();
        let export = chrome_trace_json(&dump);
        assert!(export.starts_with(r#"{"traceEvents":["#), "{export}");
        assert!(export.ends_with(&format!(r#""dropped_events":{}}}}}"#, dump.dropped)), "{export}");
        let spans = export.matches(r#""ph":"X""#).count();
        let completions = dump
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::CqComplete | TraceKind::Abort))
            .count();
        assert!(completions > 0, "the run completed no command");
        assert_eq!(spans, completions);
    }
}
