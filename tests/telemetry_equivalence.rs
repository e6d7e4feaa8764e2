//! Telemetry is observation, not participation: enabling the span and
//! metric sink on a boot must not move the simulated timeline by a
//! single nanosecond. For arbitrary feature subsets the telemetry-on
//! and telemetry-off boots must produce identical headline times and a
//! bit-identical event trace. Core spans are written only under
//! telemetry: an untraced boot records none and reports the same.

use proptest::prelude::*;

use booting_booster::bb::{BbConfig, BootRequest};
use booting_booster::workloads::{profiles, tv_scenario, tv_scenario_with, TizenParams};

#[test]
fn core_spans_are_recorded_only_under_telemetry() {
    let large = tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 1000,
            ..TizenParams::default()
        },
    );
    for scenario in [tv_scenario(), large] {
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            let boot = |telemetry| {
                BootRequest::new(&scenario)
                    .config(cfg)
                    .telemetry(telemetry)
                    .run()
                    .expect("valid scenario")
            };
            let (off, on) = (boot(false), boot(true));
            let what = format!("{} under {cfg:?}", scenario.name);
            assert_eq!(
                format!("{:?}", off.report),
                format!("{:?}", on.report),
                "report diverged: {what}"
            );
            assert_eq!(
                off.machine.event_queue_stats(),
                on.machine.event_queue_stats(),
                "event counts diverged: {what}"
            );
            assert_eq!(
                off.machine.trace().events(),
                on.machine.trace().events(),
                "trace diverged: {what}"
            );
            assert!(off.machine.trace().spans().is_empty(), "spans off: {what}");
            assert!(!on.machine.trace().spans().is_empty(), "spans on: {what}");
        }
    }
}

fn config_from_bits(bits: u8) -> BbConfig {
    BbConfig {
        rcu_booster: bits & 0x01 != 0,
        defer_memory: bits & 0x02 != 0,
        ondemand_modularizer: bits & 0x04 != 0,
        defer_journal: bits & 0x08 != 0,
        deferred_executor: bits & 0x10 != 0,
        preparser: bits & 0x20 != 0,
        bb_group: bits & 0x40 != 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn telemetry_does_not_perturb_the_timeline(bits in any::<u8>()) {
        let cfg = config_from_bits(bits);
        let scenario = tv_scenario();
        let on = BootRequest::new(&scenario)
            .config(cfg)
            .telemetry(true)
            .run()
            .expect("valid scenario");
        let off = BootRequest::new(&scenario)
            .config(cfg)
            .telemetry(false)
            .run()
            .expect("valid scenario");

        prop_assert_eq!(on.report.boot_time(), off.report.boot_time());
        prop_assert_eq!(on.report.quiesce_time, off.report.quiesce_time);
        prop_assert_eq!(on.report.boot.init_done, off.report.boot.init_done);
        prop_assert_eq!(on.report.boot.load_done, off.report.boot.load_done);
        prop_assert_eq!(
            on.report.rcu.syncs_completed,
            off.report.rcu.syncs_completed
        );
        prop_assert_eq!(
            on.machine.trace().events(),
            off.machine.trace().events(),
            "trace diverged under config {:?}",
            cfg
        );
        // And the instrumented boot actually recorded something.
        prop_assert!(!booting_booster::bb::boot_spans(&on.report).is_empty());
    }
}
