//! The unified bench-report JSON schema every registered bench returns and
//! `bench gate` / `bench compare` consume.
//!
//! Every bench produces a [`BenchReport`]: a `schema_version` tag, the bench name, the scale
//! factor and host parallelism the run was produced under, a flat list of
//! [`BenchEntry`] rows keyed by a stable string (e.g. `"bytefs/t4"` or
//! `"qd16/t4"`), and a `summary` map of report-level scalars (e.g.
//! `p99_ratio_on_vs_off`). The two first-class metrics every comparator
//! understands are `throughput_ops_s` and `p99_ns`; a value of zero means
//! "not applicable to this bench" and is never gated on. Everything else
//! rides in the entry's `extra` map.
//!
//! The workspace has no JSON dependency (all deps are vendored offline
//! stand-ins), so this module carries its own writer and a minimal parser —
//! just enough for the schema it emits.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version tag of the unified schema. Bump when a field changes meaning.
/// [`BenchReport::from_json`] reads this version and refuses anything else.
pub const SCHEMA_VERSION: u64 = 3;

/// One measured configuration of a bench.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchEntry {
    /// Stable key, unique within a report (e.g. `"bytefs/t4"`).
    pub key: String,
    /// Wall-clock throughput in operations per second; 0 when the bench has
    /// no throughput notion for this row.
    pub throughput_ops_s: f64,
    /// 99th-percentile per-operation latency in nanoseconds; 0 when not
    /// applicable. Histogram-derived (bounded to one log-linear bucket
    /// width), not sampled.
    pub p99_ns: u64,
    /// 99.9th-percentile per-operation latency in nanoseconds; 0 when not
    /// applicable.
    pub p999_ns: u64,
    /// Bench-specific scalars (thread counts, speedups, byte counts, ...).
    pub extra: BTreeMap<String, f64>,
}

impl BenchEntry {
    /// An entry with the given key and `extra` scalars and no first-class
    /// metric (set those with struct-update syntax).
    pub fn new(key: impl Into<String>, extra: &[(&str, f64)]) -> Self {
        Self {
            key: key.into(),
            extra: extra.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..Self::default()
        }
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
    /// `std::thread::available_parallelism()` of the producing host —
    /// wall-clock numbers are only comparable between equal values.
    pub host_cpus: usize,
    /// Measured rows.
    pub entries: Vec<BenchEntry>,
    /// Report-level scalars (e.g. `"p99_ratio_on_vs_off"`).
    pub summary: BTreeMap<String, f64>,
}

impl BenchReport {
    /// Starts a report for `bench` at `scale`, stamping the current host's
    /// parallelism.
    pub fn new(bench: &str, scale: f64) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            bench: bench.to_string(),
            scale,
            host_cpus: host_cpus(),
            entries: Vec::new(),
            summary: BTreeMap::new(),
        }
    }

    /// Looks up an entry by key.
    pub fn entry(&self, key: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Renders the entries as a markdown table: one row per entry, one
    /// column per first-class metric any entry sets and per `extra` key any
    /// entry carries (in order of first appearance, `-` where an entry has
    /// none), then the summary scalars on one line.
    pub fn table(&self) -> String {
        let cells = |e: &BenchEntry| -> Vec<(String, f64)> {
            let (tput, p99, p999) = (e.throughput_ops_s, e.p99_ns as f64, e.p999_ns as f64);
            let first_class = [("throughput_ops_s", tput), ("p99_ns", p99), ("p999_ns", p999)];
            let set = first_class.into_iter().filter(|(_, v)| *v > 0.0);
            let extra = e.extra.iter().map(|(k, v)| (k.as_str(), *v));
            set.chain(extra).map(|(k, v)| (k.to_string(), v)).collect()
        };
        let rows: Vec<_> = self.entries.iter().map(cells).collect();
        let mut columns: Vec<&str> = Vec::new();
        for (name, _) in rows.iter().flatten() {
            if !columns.contains(&name.as_str()) {
                columns.push(name);
            }
        }
        let mut s =
            format!("| entry | {} |\n|{}\n", columns.join(" | "), "---|".repeat(columns.len() + 1));
        for (e, cells) in self.entries.iter().zip(&rows) {
            let value = |c: &&str| {
                cells.iter().find(|(k, _)| k == c).map_or("-".into(), |(_, v)| fmt_num(*v))
            };
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
        let _ = writeln!(s, "  \"host_cpus\": {},", self.host_cpus);
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"key\": {}, \"throughput_ops_s\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"extra\": {{",
                json_str(&e.key),
                json_f64(e.throughput_ops_s),
                e.p99_ns,
                e.p999_ns
            );
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

    /// Parses a report from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object().ok_or("top level is not an object")?;
        let schema_version = obj.get("schema_version").and_then(Json::as_u64).unwrap_or(0);
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {schema_version} (this parser speaks {SCHEMA_VERSION})"
            ));
        }
        let mut report = BenchReport {
            schema_version,
            bench: obj.get("bench").and_then(Json::as_str).ok_or("missing \"bench\"")?.to_string(),
            scale: obj.get("scale").and_then(Json::as_f64).unwrap_or(1.0),
            host_cpus: obj.get("host_cpus").and_then(Json::as_u64).unwrap_or(0) as usize,
            entries: Vec::new(),
            summary: BTreeMap::new(),
        };
        if let Some(Json::Array(entries)) = obj.get("entries") {
            for e in entries {
                let eo = e.as_object().ok_or("entry is not an object")?;
                let entry = BenchEntry {
                    key: eo
                        .get("key")
                        .and_then(Json::as_str)
                        .ok_or("entry missing \"key\"")?
                        .to_string(),
                    throughput_ops_s: eo
                        .get("throughput_ops_s")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    p99_ns: eo.get("p99_ns").and_then(Json::as_u64).unwrap_or(0),
                    p999_ns: eo.get("p999_ns").and_then(Json::as_u64).unwrap_or(0),
                    extra: numbers(eo.get("extra")),
                };
                report.entries.push(entry);
            }
        }
        report.summary = numbers(obj.get("summary"));
        Ok(report)
    }

    /// Loads a report from a file.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O, syntax or schema problem.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Parallelism available to this process; wall-clock throughput is bounded
/// by it, so reports carry it for comparability.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Formats a table cell: integers plainly, everything else to the three
/// decimals the wall-clock benches round to.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// The numeric members of a JSON object (`extra`, `summary`).
fn numbers(object: Option<&Json>) -> BTreeMap<String, f64> {
    let Some(Json::Object(members)) = object else { return BTreeMap::new() };
    members.iter().filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f))).collect()
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

/// A minimal JSON value: exactly what the unified schema needs, nothing
/// more (no surrogate escapes, no numbers beyond finite `f64`, containers at
/// most 64 deep).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(BTreeMap<String, Json>),
}

/// Deepest container nesting [`Json::parse`] follows. The parser recurses per
/// level, so without a bound a file of `[[[[…` overflows the stack; reports
/// and Chrome traces nest 4 deep.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && *n == n.trunc() => Some(*n as u64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number {text:?} overflows f64")),
            Err(e) => Err(format!("bad number {text:?}: {e}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from &str, so
                    // the boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 inside string")?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(out));
                }
                other => return Err(format!("expected , or ] got {other:?} at {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            out.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(out));
                }
                other => return Err(format!("expected , or }} got {other:?} at {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = BenchReport::new("qd_sweep", 0.5);
        r.entries.push(BenchEntry {
            key: "qd16/t4".into(),
            throughput_ops_s: 123456.75,
            p99_ns: 9800,
            p999_ns: 12000,
            extra: BTreeMap::from([("threads".to_string(), 4.0), ("qd".to_string(), 16.0)]),
        });
        r.entries.push(BenchEntry {
            key: "qd1/t4".into(),
            throughput_ops_s: 60000.0,
            p99_ns: 15000,
            p999_ns: 0,
            extra: BTreeMap::new(),
        });
        r.summary.insert("qd16_vs_qd1_4t".into(), 2.057);
        let back = BenchReport::from_json(&r.to_json()).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.entry("qd16/t4").unwrap().p99_ns, 9800);
        assert_eq!(back.entry("qd16/t4").unwrap().p999_ns, 12000);
        let v2 = r.to_json().replace("\"schema_version\": 3", "\"schema_version\": 2");
        assert!(BenchReport::from_json(&v2).is_err(), "only the current schema is read");
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v = Json::parse(
            "{\"a\": [1, -2.5, 1e3, true, false, null], \"s\": \"x\\\"y\\nz\", \"o\": {}}",
        )
        .expect("parse");
        let o = v.as_object().unwrap();
        assert_eq!(o.get("s").and_then(Json::as_str), Some("x\"y\nz"));
        let Some(Json::Array(a)) = o.get("a") else { panic!("array") };
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    /// A committed artifact: the seed the hostile-input tests corrupt.
    const COMMITTED: &str = include_str!("../../../BENCH_gc_pause.json");

    /// Hostile input must come back as a value, not a panic or a stack
    /// overflow; and whatever `from_json` accepts is a real report — it
    /// re-emits and re-reads unchanged, not a half-parsed one.
    fn parse_hostile(text: &str) {
        let _ = Json::parse(text);
        if let Ok(report) = BenchReport::from_json(text) {
            assert_eq!(BenchReport::from_json(&report.to_json()).as_ref(), Ok(&report), "{text:?}");
        }
    }

    /// xorshift64: the bench crate has no RNG dependency.
    fn next(state: &mut u64) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state as usize
    }

    #[test]
    fn parser_refuses_what_the_schema_cannot_hold() {
        for open in ["[", "{\"k\":"] {
            assert!(Json::parse(&open.repeat(100_000)).is_err(), "deep {open:?} nesting");
            assert!(Json::parse(&format!("{}1", open.repeat(MAX_DEPTH + 1))).is_err());
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok(), "the bound itself still parses");
        for bad in ["\"\\ud800\"", "\"\\udfff\\ud800\"", "\"\\u12\"", "1e999", "-1e999", "[1e999]"]
        {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        assert_eq!(Json::parse("\"\\u00e9\""), Ok(Json::Str("é".into())));
        // Every proper prefix of a document is a truncated document.
        let whole = COMMITTED.trim_end();
        assert!(BenchReport::from_json(whole).is_ok());
        for cut in 0..whole.len() {
            assert!(BenchReport::from_json(&whole[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    /// Fragments the arbitrary-string test splices: the format's own
    /// vocabulary (so inputs get past the first token), boundary numbers,
    /// escapes cut short and multi-byte characters to land inside them.
    #[rustfmt::skip]
    const FRAGMENTS: &[&str] = &[
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud800", "\\u00", "\\n", " ", "\n",
        "\"schema_version\"", "\"bench\"", "\"scale\"", "\"host_cpus\"", "\"entries\"", "\"key\"",
        "\"throughput_ops_s\"", "\"p99_ns\"", "\"p999_ns\"", "\"extra\"", "\"summary\"", "\"x\"",
        "{\"schema_version\": 3, \"bench\": \"b\", ", "\"entries\": [{\"key\": \"k\", ",
        "true", "false", "null", "nul", "0", "3", "-", "+", ".", "e", "E", "1e999", "-0.0", "1e-999",
        "18446744073709551615", "18446744073709551616", "é", "\u{1F600}", "[[[[[[[[", "{\"a\":{\"a\":",
    ];

    #[test]
    fn parsers_never_panic_on_spliced_strings() {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..512 {
            let mut text = String::new();
            for _ in 0..next(&mut state) % 48 {
                text.push_str(FRAGMENTS[next(&mut state) % FRAGMENTS.len()]);
            }
            parse_hostile(&text);
        }
    }

    #[test]
    fn parsers_never_panic_on_single_byte_mutations() {
        let mut state = 0x2545_F491_4F6C_DD1D;
        for _ in 0..512 {
            let mut bytes = COMMITTED.as_bytes().to_vec();
            let pos = next(&mut state) % bytes.len();
            bytes[pos] = next(&mut state) as u8;
            // A byte that breaks UTF-8 becomes U+FFFD, a multi-byte character
            // wherever it fell: inside a key, a number, an escape.
            parse_hostile(&String::from_utf8_lossy(&bytes));
        }
    }
}
