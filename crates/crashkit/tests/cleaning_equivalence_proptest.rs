//! Property sweep: for randomized seeds and cut fractions, the crash-point
//! counting must be deterministic (same seed → same space), the same cut must
//! give the same crash image and recover to the same state, and that state
//! must be invariant-clean — with log cleaning running inside the writes
//! that cross its threshold on both the injection and the recovery side.

use proptest::prelude::*;

use crashkit::{DeviceStress, Enumerator, FsStress};

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn device_crash_points_recover_identically_with_cleaning_on_and_off(
        seed in any::<u64>(),
        frac in 0u64..1000,
    ) {
        let e = Enumerator::new(DeviceStress { ops: 120 });
        let total = e.count_steps(seed);
        prop_assert!(total > 0);
        prop_assert_eq!(total, e.count_steps(seed), "counting must be deterministic");
        let cut = 1 + frac % total;
        let a = e.run_cut(seed, cut);
        let b = e.run_cut(seed, cut);
        prop_assert_eq!(a.image_digest, b.image_digest, "same seed+cut, same crash image");
        prop_assert!(a.violations.is_empty(), "{}", a.repro_line());
        prop_assert_eq!(a.recovered_digest, b.recovered_digest, "same image, same recovery");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn fs_crash_points_recover_identically_with_cleaning_on_and_off(
        seed in any::<u64>(),
        frac in 0u64..1000,
    ) {
        let e = Enumerator::new(FsStress { ops: 24 });
        let total = e.count_steps(seed);
        prop_assert!(total > 0);
        prop_assert_eq!(total, e.count_steps(seed), "counting must be deterministic");
        let cut = 1 + frac % total;
        let a = e.run_cut(seed, cut);
        let b = e.run_cut(seed, cut);
        prop_assert_eq!(a.image_digest, b.image_digest);
        prop_assert!(a.violations.is_empty(), "{}", a.repro_line());
        prop_assert_eq!(a.recovered_digest, b.recovered_digest);
    }
}
