//! The benchmark's contract in one place: workload names, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root states the same and a test holds the two together.

/// `(name, why)` of each workload. Later issues cite the names.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "mail_fsync",
        "Varmail mix on ByteFS (unlink, create+8KB+fsync, read+8KB append+fsync, read); 1000 files fit the host cache, so bytefs metadata/txn and mssd.log append/commit do the work.",
    ),
    (
        "oltp_sync",
        "256B random overwrites + fdatasync on 16x4MB tables plus a 512B redo append: partial-page CoW/XOR writeback over the byte interface, then mssd.log coalescing and cleaning.",
    ),
    (
        "web_read_miss",
        "48MB of 16KB files against a 16MB host page cache, 10 whole-file reads + 1KB log append: fskit eviction, bytefs extent lookup, mssd.ftl L2P and NAND reads; mssd.log nearly idle.",
    ),
    (
        "kv_ycsb_a",
        "kvstore::Db (5k x 1000B records, 256KB memtable) on a ByteFS 2/3 full of cold ballast, zipfian 50/50 get/put: WAL, flushes and compactions are the steady source of flash programs, GC and erases.",
    ),
    (
        "mail_fsync_mt2",
        "The mail_fsync mix from 2 client threads on disjoint files over one ByteFS, one HostQueue each: lock sharing and the single global virtual clock show here only.",
    ),
    (
        "dev_bytelog",
        "No file system: tx-tagged 64-256B byte_write, commit, byte_read, 4KB block_write/read straight on Mssd over a 64MB window; fills and cleans the 2MB log many times.",
    ),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether the number is on the modelled device's clock (`true`) or the
    /// host's (`false`).
    pub is_virtual: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    is_virtual: bool,
) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better, bound, is_virtual }
}

/// Every workload reports every one of these. The failure share the issue
/// lists as a twelfth metric is the result line's `failed` / `attempted`:
/// it is 0 on a correct run, and a metric that is 0 has no relative bound.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("virt_kops_s", "kops/virt_s", true, 0.02, true),
    e2e("virt_read_avg_us", "virt_us", false, 0.10, true),
    e2e("virt_read_p99_us", "virt_us", false, 0.10, true),
    e2e("virt_write_avg_us", "virt_us", false, 0.05, true),
    e2e("virt_write_p99_us", "virt_us", false, 0.10, true),
    e2e("host_write_amp", "B/B", false, 0.02, true),
    e2e("host_read_amp", "B/B", false, 0.02, true),
    e2e("flash_write_amp", "B/B", false, 0.03, true),
    e2e("wall_kops_s", "kops/s", true, 0.20, false),
    e2e("peak_rss_mb", "MB", false, 0.10, false),
    e2e("setup_s", "s", false, 0.25, false),
];

#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

/// File-system calls whose spans are reported; `fsync` counts `fdatasync`
/// too, `write` counts `append`, `stat` counts `fstat` and `exists`, `open`
/// counts `create`.
pub const FS_CALLS: [(&str, &[&str]); 7] = [
    ("open", &["bytefs.open", "bytefs.create"]),
    ("close", &["bytefs.close"]),
    ("read", &["bytefs.read"]),
    ("write", &["bytefs.write", "bytefs.append"]),
    ("fsync", &["bytefs.fsync", "bytefs.fdatasync"]),
    ("unlink", &["bytefs.unlink"]),
    ("stat", &["bytefs.stat", "bytefs.fstat", "bytefs.exists"]),
];

/// Device calls `dev_bytelog` times one by one.
pub const DEVICE_CALLS: [&str; 5] =
    ["byte_write", "byte_read", "block_write", "block_read", "commit"];

/// Every per-layer metric, in report order. A workload that does not use a
/// layer reports 0 for that layer's metrics.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, higher_is_better: bool| {
        out.push(PerLayer { name: name.to_string(), unit, higher_is_better });
    };
    // Harness and host.
    add("harness.self_wall_share", "ratio", false);
    add("harness.trace_overhead_share", "ratio", false);
    add("host.allocs_per_op", "1/op", false);
    add("host.alloc_bytes_per_op", "B/op", false);
    // kvstore.
    for call in ["get", "put"] {
        add(&format!("kvstore.{call}.wall_ns_p50"), "ns", false);
        add(&format!("kvstore.{call}.virt_ns_p50"), "virt_ns", false);
    }
    add("kvstore.self_wall_share", "ratio", false);
    add("kvstore.fs_calls_per_op", "1/op", false);
    add("kvstore.flushes", "count", false);
    add("kvstore.compactions", "count", false);
    // bytefs (the time under its boundary includes fskit and mssd).
    add("bytefs.wall_share", "ratio", false);
    for (call, _) in FS_CALLS {
        add(&format!("bytefs.{call}.calls"), "count", false);
        add(&format!("bytefs.{call}.wall_ns_mean"), "ns", false);
        add(&format!("bytefs.{call}.virt_ns_mean"), "virt_ns", false);
    }
    add("bytefs.fsck_violations", "count", false);
    // fskit page cache.
    add("fskit.pagecache.read_hit_ratio", "ratio", true);
    add("fskit.pagecache.get_hit.wall_ns", "ns", false);
    add("fskit.pagecache.insert_evict.wall_ns", "ns", false);
    add("fskit.pagecache.write_cow.wall_ns", "ns", false);
    add("fskit.pagecache.take_dirty.wall_ns", "ns", false);
    // mssd.device.
    add("mssd.device.byte_requests_per_op", "1/op", false);
    add("mssd.device.block_requests_per_op", "1/op", false);
    add("mssd.device.byte_write_share", "ratio", true);
    add("mssd.device.meta_write_bytes_per_op", "B/op", false);
    add("mssd.device.data_write_bytes_per_op", "B/op", false);
    add("mssd.device.busy_virt_share", "ratio", false);
    add("mssd.device.tx_commits_per_op", "1/op", false);
    for call in DEVICE_CALLS {
        add(&format!("mssd.device.{call}.wall_ns_p50"), "ns", false);
        add(&format!("mssd.device.{call}.wall_ns_p99"), "ns", false);
        add(&format!("mssd.device.{call}.virt_ns_mean"), "virt_ns", false);
    }
    add("mssd.recover.virt_ms", "virt_ms", false);
    add("mssd.recover.wall_ms", "ms", false);
    add("mssd.recover.lost_acked_writes", "count", false);
    // mssd.log.
    add("mssd.log.cleanings", "count", false);
    add("mssd.log.fg_stalls", "count", false);
    add("mssd.log.bg_cleaned_pages", "count", false);
    add("mssd.log.flush_bytes_per_byte_in", "B/B", false);
    add("mssd.log.used_bytes_end", "B", false);
    add("mssd.log.entries_end", "count", false);
    add("mssd.log.cleaner_wait_wall_share", "ratio", false);
    add("virt_write_p999_us", "virt_us", false);
    add("virt_read_p999_us", "virt_us", false);
    // mssd.ftl / mssd.flash.
    add("mssd.ftl.flash_read_pages_per_op", "1/op", false);
    add("mssd.ftl.flash_write_pages_per_op", "1/op", false);
    add("mssd.ftl.gc_write_share", "ratio", false);
    add("mssd.ftl.buffer_hit_share", "ratio", true);
    add("mssd.ftl.internal_read_pages", "count", false);
    add("mssd.flash.erase_blocks", "count", false);
    // mssd.queue.
    add("mssd.queue.ops", "count", false);
    add("mssd.queue.batches", "count", false);
    add("mssd.queue.coalesced_cmds", "count", true);
    add("mssd.queue.lat_avg_virt_ns", "virt_ns", false);
    add("mssd.queue.lat_max_virt_ns", "virt_ns", false);
    add("scaling.wall_vs_1client", "ratio", true);
    add("scaling.virt_vs_1client", "ratio", true);
    // mssd.clock / mssd.stats / mssd.trace.
    add("mssd.clock.advance.wall_ns", "ns", false);
    add("mssd.stats.snapshot.wall_ns", "ns", false);
    add("mssd.trace.enabled_overhead_share", "ratio", false);
    // baselines / model.
    add("baselines.ext4.virt_kops_s", "kops/virt_s", true);
    add("model.speedup_vs_ext4", "ratio", true);
    add("model.virt_fingerprint", "hash", true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(layers.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` and these tables say the same, field for field.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Value::Obj(top) = &doc else { panic!("BENCHMARK.json is an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::NOMINAL_SECONDS as f64)
        );
        let better = |up: bool| if up { "higher" } else { "lower" };
        let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (str_of(w, "name").unwrap(), str_of(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    str_of(m, "name").unwrap(),
                    str_of(m, "unit").unwrap(),
                    str_of(m, "better").unwrap(),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m.higher_is_better).into(), m.bound))
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer")
            .iter()
            .map(|m| {
                (
                    str_of(m, "name").unwrap(),
                    str_of(m, "unit").unwrap(),
                    str_of(m, "better").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = per_layer()
            .iter()
            .map(|m| (m.name.clone(), m.unit.into(), better(m.higher_is_better).into()))
            .collect();
        assert_eq!(listed, ours);
    }
}
