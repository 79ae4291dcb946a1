//! The six workloads. Each builds its inputs from the seed in this crate's
//! own code, drives only public APIs, and keeps a shadow of what it wrote.

mod dev;
mod kv;
mod mail;
mod oltp;
mod web;

use crate::harness::{Backend, Workload};

/// How a child process runs its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No spans, no allocation counting: the end-to-end measurement.
    Plain,
    /// Spans around every call into a layer, allocation counting, power cut
    /// and probes afterwards: the per-layer measurement.
    Traced,
    /// [`Mode::Plain`] with the device's own event tracing switched on
    /// (`Mssd::set_tracing`), to price it.
    DeviceTracing,
    /// [`Mode::Plain`] on the Ext4-like baseline at a tenth of the length.
    Ext4Tenth,
}

/// The workloads that also run, a tenth as long, on the Ext4-like baseline.
pub const HAS_EXT4_RUN: [&str; 2] = ["mail_fsync", "oltp_sync"];

/// Builds (sets up) workload `name`, or `None` for an unknown name or a mode
/// the workload does not have.
pub fn build(name: &str, seed: u64, scale: f64, mode: Mode) -> Option<Box<dyn Workload>> {
    let traced = mode == Mode::Traced;
    let backend = match mode {
        Mode::Ext4Tenth => Backend::Ext4,
        _ => Backend::ByteFs { traced },
    };
    if mode == Mode::Ext4Tenth && !HAS_EXT4_RUN.contains(&name) {
        return None;
    }
    let scale = if mode == Mode::Ext4Tenth { scale / 10.0 } else { scale };
    Some(match name {
        "mail_fsync" => Box::new(mail::Mail::build(seed, scale, 1, backend)),
        "mail_fsync_mt2" => Box::new(mail::Mail::build(seed, scale, 2, backend)),
        "oltp_sync" => Box::new(oltp::Oltp::build(seed, scale, backend)),
        "web_read_miss" => Box::new(web::Web::build(seed, scale, backend)),
        "kv_ycsb_a" => Box::new(kv::Kv::build(seed, scale, backend)),
        "dev_bytelog" => Box::new(dev::Dev::build(seed, scale, mode == Mode::DeviceTracing)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Pool;
    use crate::metrics::WORKLOADS;

    /// Digest of the op list `name` generates for `seed`, without setting
    /// the workload up.
    fn op_digest(name: &str, seed: u64, scale: f64) -> u64 {
        let pool = Pool::new(seed);
        match name {
            "mail_fsync" => mail::plan(seed, scale, &pool, 1).1,
            "mail_fsync_mt2" => mail::plan(seed, scale, &pool, 2).1,
            "oltp_sync" => oltp::plan(seed, scale, &pool).1,
            "web_read_miss" => web::plan(seed, scale, &pool).1,
            "kv_ycsb_a" => kv::plan(seed, scale, &pool).1,
            "dev_bytelog" => dev::plan(seed, scale, &pool).1,
            other => panic!("no workload {other}"),
        }
    }

    #[test]
    fn op_lists_repeat_per_seed_and_differ_across_seeds_workloads_and_lengths() {
        let mut seen = Vec::new();
        for (name, _) in WORKLOADS {
            let a = op_digest(name, 13, 0.1);
            assert_eq!(a, op_digest(name, 13, 0.1), "{name}: same seed, same list");
            assert_ne!(a, op_digest(name, 14, 0.1), "{name}: other seed, other list");
            assert_ne!(a, op_digest(name, 13, 0.2), "{name}: other length, other list");
            seen.push(a);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), WORKLOADS.len(), "workloads draw from unrelated streams");
    }

    #[test]
    fn two_mail_clients_split_the_iterations_into_whole_segments() {
        let pool = Pool::new(1);
        let (one, _) = mail::plan(1, 1.0, &pool, 1);
        let (two, _) = mail::plan(1, 1.0, &pool, 2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].len() + two[1].len(), one[0].len());
        assert!(two.iter().all(|c| c.len() % crate::harness::SEGMENTS == 0));
    }

    /// One workload end to end at a hundredth of its length, traced, with
    /// the audit and the power cut.
    #[test]
    fn a_tiny_traced_run_is_correct_and_reports_every_layer_it_uses() {
        let report = crate::child::run("oltp_sync", 5, 0.01, Mode::Traced, None).unwrap();
        assert_eq!(report.get("failed").and_then(crate::json::Value::as_f64), Some(0.0));
        let layers = report.get("layers").map(crate::json::Value::num_map).unwrap();
        assert!(layers["bytefs.fsync.calls"] > 0.0);
        assert!(layers["harness.self_wall_share"] > 0.0 && layers["harness.self_wall_share"] < 1.0);
        assert_eq!(layers["mssd.recover.lost_acked_writes"], 0.0);
        assert!(build("oltp_sync", 5, 0.01, Mode::DeviceTracing).is_some());
        assert!(build("web_read_miss", 5, 0.01, Mode::Ext4Tenth).is_none());
        assert!(build("nope", 5, 0.01, Mode::Plain).is_none());
    }
}
