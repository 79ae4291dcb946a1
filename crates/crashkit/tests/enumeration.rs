//! The acceptance sweep: crashkit must enumerate a crash-point space of at
//! least 200 distinct points on the mixed-op device stress workload and find
//! zero invariant violations at every one of them, plus seeded-random cuts
//! on further seeds. The queue, async, file-system, KV and baseline
//! scenarios ride the same driver with bounded sweeps.

use std::collections::BTreeSet;

use crashkit::{
    AppendStress, BaselineKind, BaselineStress, DeviceAsyncStress, DeviceMqStress, DeviceStress,
    Enumerator, FsStress, KvStress,
};
use mssd::FaultKind;

#[test]
fn mixed_op_stress_enumerates_at_least_200_clean_crash_points() {
    let e = Enumerator::new(DeviceStress::quick());
    let seed = 0x00A5_CE55;
    let total = e.count_steps(seed);
    assert!(total >= 200, "the mixed-op stress must expose >= 200 crash points, got {total}");
    let report = e.exhaustive(seed, 400);
    assert_eq!(report.total_steps, total);
    assert!(report.distinct_points() >= 200, "only {} points explored", report.distinct_points());
    report.assert_clean();

    // The sweep must have cut at every flavour of durability step the
    // workload produces — torn programs, lost commits, half-drained seals.
    let kinds: BTreeSet<&str> =
        report.outcomes.iter().filter_map(|o| o.cut_kind).map(FaultKind::label).collect();
    for expected in ["log-append", "tx-commit", "buffer-write", "flash-program", "seal-drain"] {
        assert!(kinds.contains(expected), "no cut landed on a {expected} step (got {kinds:?})");
    }

    let report = e.sweep(&[1, 2, 3], 20);
    assert!(report.distinct_points() >= 40);
    report.assert_clean();
}

#[test]
fn multi_queue_stress_enumerates_a_clean_crash_space() {
    // The multi-queue front end: batched doorbells, coalesced byte writes,
    // in-batch commits and per-queue block traffic. Completed-but-unpolled
    // commands must be durable, commands left in a submission queue must
    // have no durable effect; the oracle encodes both.
    let e = Enumerator::new(DeviceMqStress::quick());
    let seed = 0x00D0_0B31;
    let total = e.count_steps(seed);
    assert!(total >= 150, "multi-queue stress too small: {total} steps");
    let report = e.exhaustive(seed, 300);
    assert_eq!(report.total_steps, total);
    report.assert_clean();
    // Cuts landed on the step kinds queued traffic produces.
    let kinds: BTreeSet<&str> =
        report.outcomes.iter().filter_map(|o| o.cut_kind).map(FaultKind::label).collect();
    for expected in ["log-append", "tx-commit", "buffer-write"] {
        assert!(kinds.contains(expected), "no cut landed on a {expected} step (got {kinds:?})");
    }

    let report = e.sweep(&[7, 8, 9], 16);
    assert!(report.distinct_points() >= 30);
    report.assert_clean();
}

#[test]
fn async_runtime_stress_enumerates_a_clean_crash_space() {
    // Futures over shared reactor lanes: the cut lands with commands
    // resolved-but-unread, in coalesced groups mid-execution, stranded in
    // SQs and *parked for capacity* — every one must resolve to a typed
    // outcome and the durable state must honour it.
    let e = Enumerator::new(DeviceAsyncStress::quick());
    let seed = 0x00A5_0CC5;
    let total = e.count_steps(seed);
    assert!(total >= 150, "async stress too small: {total} steps");
    let report = e.exhaustive(seed, 250);
    assert_eq!(report.total_steps, total);
    report.assert_clean();
    let kinds: BTreeSet<&str> =
        report.outcomes.iter().filter_map(|o| o.cut_kind).map(FaultKind::label).collect();
    for expected in ["log-append", "tx-commit", "buffer-write"] {
        assert!(kinds.contains(expected), "no cut landed on a {expected} step (got {kinds:?})");
    }

    let report = e.sweep(&[21, 22], 12);
    assert!(report.distinct_points() >= 20);
    report.assert_clean();
}

#[test]
fn bytefs_stress_survives_an_exhaustive_sweep() {
    let e = Enumerator::new(FsStress::quick());
    let report = e.exhaustive(0xF5, 120);
    assert!(report.total_steps > 120, "fs workload too small: {}", report.total_steps);
    report.assert_clean();
    e.sweep(&[0xF6, 0xF7], 15).assert_clean();
}

#[test]
fn unsynced_appends_recover_a_prefix_at_every_crash_point_inside_a_pass_too() {
    // A 32-page cache: the dirty limit's writeback pass runs every few
    // appends, so the space holds cuts inside passes, not only in fsyncs.
    let scenario = AppendStress::quick();
    let seed = 0xA99E;
    let passes = scenario.pass_steps(seed);
    assert!(passes.len() >= 3, "only {} passes ran", passes.len());
    let e = Enumerator::new(scenario);
    let report = e.exhaustive(seed, 240);
    assert!(report.distinct_points() >= 200, "only {} points explored", report.distinct_points());
    report.assert_clean();
    let in_pass =
        report.outcomes.iter().filter(|o| passes.iter().any(|p| p.contains(&o.cut))).count();
    assert!(in_pass >= 1, "no cut landed inside a pass (passes at steps {passes:?})");

    e.sweep(&[0xA1, 0xA2], 12).assert_clean();
}

#[test]
fn kv_store_recovers_at_every_crash_point() {
    // Pins the WAL-tail contract: Db::open must succeed (torn final record
    // truncated, not an error) and flushed puts must survive, at every cut.
    let e = Enumerator::new(KvStress::quick());
    let report = e.exhaustive(0xDB, 100);
    assert!(report.total_steps > 60);
    report.assert_clean();
}

#[test]
fn baseline_engines_stay_consistent_across_crash_points() {
    for kind in [BaselineKind::Ext4, BaselineKind::Nova] {
        let e = Enumerator::new(BaselineStress::quick(kind));
        let report = e.exhaustive(0xBA5E, 60);
        assert!(report.total_steps > 60, "{}: workload too small", kind.label());
        report.assert_clean();
    }
}
