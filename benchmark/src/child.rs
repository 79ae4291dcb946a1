//! One repeat, in a process of its own: set the workload up, run its measured
//! phase once, audit what it wrote, and report as one line of JSON.
//!
//! A fresh process per repeat gives every repeat the same allocator state
//! and makes `VmHWM` the peak of that repeat alone.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mssd::stats::Direction;
use mssd::{Interface, StatsSnapshot, TrafficCounter};

use crate::gen::Digest;
use crate::harness::{peak_rss_mb, Audit, Phase, Recovery, Workload};
use crate::json::Value;
use crate::metrics::{DEVICE_CALLS, FS_CALLS};
use crate::trace::{self, NameTotals, Span};
use crate::workloads::{self, Mode};
use crate::{probes, ALLOC};

const PAGE_BYTES: u64 = 4096;

/// Everything measured around one phase, before it is turned into metrics.
struct Measured {
    phase: Phase,
    phase_wall_ns: u64,
    virt_ns: u64,
    /// Counter deltas over the phase (and the final device FLUSH).
    traffic: TrafficCounter,
    end: StatsSnapshot,
    allocs: (u64, u64),
}

/// Runs workload `name` once in `mode` and returns the report, or an error
/// for a name or mode that does not exist. A traced run also writes its
/// spans to `trace-<name>.json` in `trace_dir`, if one is given.
pub fn run(
    name: &str,
    seed: u64,
    scale: f64,
    mode: Mode,
    trace_dir: Option<&Path>,
) -> Result<Value, String> {
    let setup = Instant::now();
    let mut workload = workloads::build(name, seed, scale, mode)
        .ok_or_else(|| format!("no workload `{name}` in mode {mode:?}"))?;
    // Set-up ends with the device flushed and its cleaner idle: what set-up
    // left in the FTL write buffer and the cleaner's queue is set-up's work,
    // not the phase's.
    if let Err(e) = workload.device().try_flush() {
        eprintln!("flush after set-up: {e}");
    }
    workload.device().quiesce_cleaning();
    let setup_s = setup.elapsed().as_secs_f64();

    let traced = mode == Mode::Traced;
    let span_cost_ns = if traced {
        trace::set_enabled(true);
        trace::bookkeeping_ns(&workload.device().clock())
    } else {
        0.0
    };
    let m = measure(workload.as_mut(), traced);
    let rss_mb = peak_rss_mb();
    let audit = workload.audit();
    let recovery = traced.then(|| workload.power_cut());

    let rec = &m.phase.rec;
    let unclean = |a: &Audit| a.mismatches + a.fsck_violations + a.device_violations;
    let failed = m.phase.failed
        + rec.flush_errors
        + unclean(&audit)
        + recovery.as_ref().map_or(0, |r| unclean(&r.audit));
    let mut report = vec![
        ("workload".to_string(), Value::Str(name.into())),
        ("setup_s".into(), Value::Num(setup_s)),
        ("phase_wall_ns".into(), Value::Num(m.phase_wall_ns as f64)),
        ("virt_ns".into(), Value::Num(m.virt_ns as f64)),
        (
            "seg_wall_ns".into(),
            Value::Arr(m.phase.seg_wall_ns.iter().map(|ns| Value::Num(*ns as f64)).collect()),
        ),
        ("ops".into(), Value::Num(rec.ops as f64)),
        ("attempted".into(), Value::Num(rec.ops as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        // 48 bits survive the trip through a JSON number.
        ("op_digest".into(), Value::Num((workload.op_digest() >> 16) as f64)),
        ("peak_rss_mb".into(), Value::Num(rss_mb)),
        ("e2e".into(), num_obj(end_to_end(&m))),
        ("guard".into(), num_obj(guard_counts(&m))),
    ];
    if let Some(recovery) = recovery {
        let spans = &m.phase.spans;
        let mut layers = layers(&m, spans, span_cost_ns, &audit, &recovery);
        layers.extend(workload.extra_counts().into_iter().map(|(k, v)| (k.to_string(), v)));
        layers.extend(probe_layers(name));
        report.push(("layers".into(), num_obj(layers)));
        if let Some(dir) = trace_dir {
            write_trace_file(dir, name, seed, spans);
        }
    }
    Ok(Value::Obj(report))
}

fn measure(workload: &mut dyn Workload, traced: bool) -> Measured {
    let device = std::sync::Arc::clone(workload.device());
    let start = device.snapshot();
    let allocs_before = ALLOC.totals();
    trace::set_enabled(traced);
    ALLOC.set_counting(traced);
    let wall = Instant::now();
    let mut phase = workload.run();
    let phase_wall_ns = wall.elapsed().as_nanos() as u64;
    trace::set_enabled(false);
    ALLOC.set_counting(false);
    let allocs_after = ALLOC.totals();
    // NVMe FLUSH closes the accounting window: pages still in the FTL write
    // buffer are programmed now, so flash writes of this phase are counted in
    // this phase and not left to whoever runs next.
    if device.try_flush().is_err() {
        phase.rec.flush_errors += 1;
    }
    device.quiesce_cleaning();
    let end = device.snapshot();
    Measured {
        phase,
        phase_wall_ns,
        virt_ns: (end.now_ns - start.now_ns).max(1),
        traffic: end.traffic.delta_since(&start.traffic),
        end,
        allocs: (allocs_after.0 - allocs_before.0, allocs_after.1 - allocs_before.1),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn num_obj(pairs: impl IntoIterator<Item = (String, f64)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k, Value::Num(v))).collect())
}

/// The end-to-end metrics one repeat can state by itself (all on the
/// modelled device's clock and counters).
fn end_to_end(m: &Measured) -> Vec<(String, f64)> {
    let rec = &m.phase.rec;
    let (read, write) = (rec.read_stats(), rec.write_stats());
    let app_read = rec.app_read_bytes as f64;
    let app_write = rec.app_write_bytes as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    vec![
        ("virt_kops_s".into(), rec.ops as f64 / m.virt_ns as f64 * 1e6),
        ("virt_read_avg_us".into(), read.avg_ns / 1e3),
        ("virt_read_p99_us".into(), us(read.p99_ns)),
        ("virt_write_avg_us".into(), write.avg_ns / 1e3),
        ("virt_write_p99_us".into(), us(write.p99_ns)),
        ("host_write_amp".into(), ratio(m.traffic.host_write_bytes() as f64, app_write)),
        // Counts the application's own copy, so a phase served wholly from
        // the host page cache reads 1.0 and not 0 (a metric that is 0 has
        // no relative bound).
        ("host_read_amp".into(), ratio(m.traffic.host_read_bytes() as f64 + app_read, app_read)),
        (
            "flash_write_amp".into(),
            ratio(m.traffic.flash_write_bytes(PAGE_BYTES as usize) as f64, app_write),
        ),
    ]
}

/// Counts the payload guard looks at, reported by every repeat.
fn guard_counts(m: &Measured) -> Vec<(String, f64)> {
    vec![
        (
            "flash_read_pages_per_op".into(),
            ratio(m.traffic.flash_read_pages as f64, m.phase.rec.ops as f64),
        ),
        ("log_cleanings".into(), m.traffic.log_cleanings as f64),
        ("erase_blocks".into(), m.traffic.flash_erase_blocks as f64),
    ]
}

fn percentile(mut values: Vec<u64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// Per-layer metrics of the traced repeat that need nothing from other
/// processes.
fn layers(
    m: &Measured,
    threads: &[Vec<Span>],
    span_cost_ns: f64,
    audit: &Audit,
    recovery: &Recovery,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let rec = &m.phase.rec;
    let ops = rec.ops as f64;
    let t = &m.traffic;

    // Spans: totals per name over all client threads.
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for spans in threads {
        for (name, one) in trace::totals(spans) {
            let sum = by_name.entry(name).or_default();
            sum.calls += one.calls;
            sum.wall_ns += one.wall_ns;
            sum.virt_ns += one.virt_ns;
            sum.self_wall_ns += one.self_wall_ns;
            sum.children += one.children;
        }
    }
    let phase_wall = by_name.get("harness.phase").map_or(0, |p| p.wall_ns) as f64;
    let self_of = |prefixes: &[&str]| {
        by_name
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, n)| n.self_wall_ns)
            .sum::<u64>() as f64
    };
    // The harness's spans are the parents of every layer call, so their raw
    // self time carries the tracer's bookkeeping for each of those calls.
    let harness = ["harness.phase", "op."];
    let harness_children = by_name
        .iter()
        .filter(|(name, _)| harness.iter().any(|p| name.starts_with(p)))
        .map(|(_, n)| n.children)
        .sum::<u64>() as f64;
    let harness_self = (self_of(&harness) - harness_children * span_cost_ns).max(0.0);
    put("harness.self_wall_share", ratio(harness_self, phase_wall));
    put("host.allocs_per_op", ratio(m.allocs.0 as f64, ops));
    put("host.alloc_bytes_per_op", ratio(m.allocs.1 as f64, ops));

    let durations_of = |name: &str| -> (Vec<u64>, Vec<u64>) {
        threads.iter().flat_map(|spans| trace::durations(spans, name)).unzip()
    };
    let fs_calls = by_name.iter().filter(|(n, _)| n.starts_with("bytefs.")).map(|(_, n)| n.calls);
    let fs_calls = fs_calls.sum::<u64>() as f64;
    let mut kv_ops = 0;
    for call in ["get", "put"] {
        let (wall, virt) = durations_of(&format!("kvstore.{call}"));
        kv_ops += wall.len();
        put(&format!("kvstore.{call}.wall_ns_p50"), percentile(wall, 0.5));
        put(&format!("kvstore.{call}.virt_ns_p50"), percentile(virt, 0.5));
    }
    put("kvstore.self_wall_share", ratio(self_of(&["kvstore."]), phase_wall));
    put("kvstore.fs_calls_per_op", if kv_ops > 0 { fs_calls / kv_ops as f64 } else { 0.0 });

    put("bytefs.wall_share", ratio(self_of(&["bytefs."]), phase_wall));
    for (call, span_names) in FS_CALLS {
        let sum = span_names.iter().filter_map(|n| by_name.get(n)).fold(
            NameTotals::default(),
            |mut acc, n| {
                acc.calls += n.calls;
                acc.wall_ns += n.wall_ns;
                acc.virt_ns += n.virt_ns;
                acc
            },
        );
        put(&format!("bytefs.{call}.calls"), sum.calls as f64);
        put(&format!("bytefs.{call}.wall_ns_mean"), ratio(sum.wall_ns as f64, sum.calls as f64));
        put(&format!("bytefs.{call}.virt_ns_mean"), ratio(sum.virt_ns as f64, sum.calls as f64));
    }
    put("bytefs.fsck_violations", (audit.fsck_violations + recovery.audit.fsck_violations) as f64);

    for call in DEVICE_CALLS {
        let (wall, virt) = durations_of(&format!("mssd.{call}"));
        let virt_mean = ratio(virt.iter().sum::<u64>() as f64, virt.len() as f64);
        put(&format!("mssd.device.{call}.wall_ns_p50"), percentile(wall.clone(), 0.5));
        put(&format!("mssd.device.{call}.wall_ns_p99"), percentile(wall, 0.99));
        put(&format!("mssd.device.{call}.virt_ns_mean"), virt_mean);
    }

    // Counters, taken at the same boundaries as the phase span.
    let data_read = t.host_data_bytes(Direction::Read) as f64;
    let went_through_fs = fs_calls > 0.0;
    put(
        "fskit.pagecache.read_hit_ratio",
        if went_through_fs {
            1.0 - ratio(data_read, rec.app_read_bytes as f64).min(1.0)
        } else {
            0.0
        },
    );
    let byte_written = t.host_bytes_by_interface(Direction::Write, Interface::Byte) as f64;
    put("mssd.device.byte_requests_per_op", ratio(t.byte_requests as f64, ops));
    put("mssd.device.block_requests_per_op", ratio(t.block_requests as f64, ops));
    put("mssd.device.byte_write_share", ratio(byte_written, t.host_write_bytes() as f64));
    put(
        "mssd.device.meta_write_bytes_per_op",
        ratio(t.host_metadata_bytes(Direction::Write) as f64, ops),
    );
    put(
        "mssd.device.data_write_bytes_per_op",
        ratio(t.host_data_bytes(Direction::Write) as f64, ops),
    );
    put("mssd.device.busy_virt_share", ratio(t.device_busy_ns as f64, m.virt_ns as f64));
    put("mssd.device.tx_commits_per_op", ratio(t.tx_commits as f64, ops));
    put("mssd.recover.virt_ms", recovery.virt_ms);
    put("mssd.recover.wall_ms", recovery.wall_ms);
    put("mssd.recover.lost_acked_writes", recovery.lost_acked_writes as f64);

    put("mssd.log.cleanings", t.log_cleanings as f64);
    put("mssd.log.fg_stalls", t.log_fg_stalls as f64);
    put("mssd.log.bg_cleaned_pages", t.log_bg_cleaned_pages as f64);
    put(
        "mssd.log.flush_bytes_per_byte_in",
        ratio((t.log_bg_cleaned_pages * PAGE_BYTES) as f64, byte_written),
    );
    put("mssd.log.used_bytes_end", m.end.log_used_bytes as f64);
    put("mssd.log.entries_end", m.end.log_entries as f64);
    put("mssd.log.cleaner_wait_wall_share", ratio(self_of(&["mssd.cleaner_wait"]), phase_wall));
    put("virt_write_p999_us", rec.write_stats().p999_ns as f64 / 1e3);
    put("virt_read_p999_us", rec.read_stats().p999_ns as f64 / 1e3);

    let programmed = (t.flash_write_pages + t.flash_internal_write_pages) as f64;
    let block_read_pages =
        t.host_bytes_by_interface(Direction::Read, Interface::Block) as f64 / PAGE_BYTES as f64;
    put("mssd.ftl.flash_read_pages_per_op", ratio(t.flash_read_pages as f64, ops));
    put("mssd.ftl.flash_write_pages_per_op", ratio(t.flash_write_pages as f64, ops));
    put("mssd.ftl.gc_write_share", ratio(t.flash_internal_write_pages as f64, programmed));
    put(
        "mssd.ftl.buffer_hit_share",
        if block_read_pages > 0.0 {
            1.0 - ratio(t.flash_read_pages as f64, block_read_pages).min(1.0)
        } else {
            0.0
        },
    );
    put("mssd.ftl.internal_read_pages", t.flash_internal_read_pages as f64);
    put("mssd.flash.erase_blocks", t.flash_erase_blocks as f64);

    let queues = t.queues.values();
    let queue_ops: u64 = queues.clone().map(|q| q.ops).sum();
    put("mssd.queue.ops", queue_ops as f64);
    put("mssd.queue.batches", queues.clone().map(|q| q.batches).sum::<u64>() as f64);
    put("mssd.queue.coalesced_cmds", queues.clone().map(|q| q.coalesced_cmds).sum::<u64>() as f64);
    put(
        "mssd.queue.lat_avg_virt_ns",
        ratio(queues.clone().map(|q| q.lat_total_ns).sum::<u64>() as f64, queue_ops as f64),
    );
    put("mssd.queue.lat_max_virt_ns", queues.map(|q| q.lat_max_ns).max().unwrap_or(0) as f64);

    put("model.virt_fingerprint", fingerprint(m) as f64);
    out
}

/// A 48-bit hash of everything the model decided: virtual time, latency
/// distributions, host bytes by category and by interface, request counts.
/// A change that only makes the simulator faster must leave it as it was.
/// (The `(category, interface)` cells themselves are private to `mssd`, so
/// the two marginals stand in for them.)
fn fingerprint(m: &Measured) -> u64 {
    let mut d = Digest::default();
    let t = &m.traffic;
    let rec = &m.phase.rec;
    d.push(m.virt_ns);
    d.push(rec.ops);
    for stats in [rec.read_stats(), rec.write_stats(), rec.meta_stats()] {
        for v in [stats.count, stats.p50_ns, stats.p99_ns, stats.max_ns] {
            d.push(v);
        }
    }
    for dir in [Direction::Read, Direction::Write] {
        for cat in mssd::Category::ALL {
            d.push(t.host_bytes_by_category(dir, cat));
        }
        for iface in [Interface::Byte, Interface::Block] {
            d.push(t.host_bytes_by_interface(dir, iface));
        }
    }
    for v in [t.byte_requests, t.block_requests, t.tx_commits] {
        d.push(v);
    }
    d.value() >> 16
}

/// The direct probes, each reported under the workloads whose host time it
/// explains.
fn probe_layers(workload: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if workload == "web_read_miss" {
        let (get_hit, insert_evict) = probes::pagecache_read_side();
        out.push(("fskit.pagecache.get_hit.wall_ns".to_string(), get_hit));
        out.push(("fskit.pagecache.insert_evict.wall_ns".to_string(), insert_evict));
    }
    if workload == "oltp_sync" {
        let (write_cow, take_dirty) = probes::pagecache_write_side();
        out.push(("fskit.pagecache.write_cow.wall_ns".to_string(), write_cow));
        out.push(("fskit.pagecache.take_dirty.wall_ns".to_string(), take_dirty));
    }
    if workload == "dev_bytelog" || workload == "mail_fsync_mt2" {
        out.push(("mssd.clock.advance.wall_ns".to_string(), probes::clock_advance()));
        out.push(("mssd.stats.snapshot.wall_ns".to_string(), probes::stats_snapshot()));
    }
    out
}

fn write_trace_file(dir: &Path, workload: &str, seed: u64, threads: &[Vec<Span>]) {
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(workload, seed, threads).to_string()));
    if let Err(e) = written {
        eprintln!("trace file {}: {e}", path.display());
    }
}
