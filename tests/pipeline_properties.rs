//! Properties of the boot-plan pass pipeline.
//!
//! 1. Every [`PlanPass`] is idempotent: once the pipeline has run,
//!    applying any enabled pass a second time must not change the plan.
//!    The executor replays the IR verbatim, so idempotence is what makes
//!    a pass safe to re-run (and the deltas trustworthy as provenance).
//! 2. The pipeline refactor is behavior-preserving: a boot through
//!    `BootRequest` reproduces the pre-refactor TV-scenario boot times
//!    exactly, for both the conventional and the full-BB configuration.
//! 3. `Pipeline::plan` + `pipeline::execute` and `BootRequest::run` are
//!    the same boot: equal reports, deltas and event-queue counters.
//!
//! [`PlanPass`]: booting_booster::bb::PlanPass

use proptest::prelude::*;

use booting_booster::bb::{pipeline, BbConfig, BootPlanIr, BootRequest, Pipeline};
use booting_booster::workloads::{
    camera_scenario, profiles, tv_scenario, tv_scenario_with, TizenParams,
};

/// The plan state passes are allowed to mutate, as one comparable
/// snapshot. (The graph, transaction, and workload tables are
/// pass-invariant inputs.)
fn snapshot(ir: &BootPlanIr) -> String {
    format!(
        "kernel={:?} modules={:?} overrides={:?} init={:?} service={:?} load={:?} rcu={:?}",
        ir.kernel,
        ir.module_strategy,
        ir.overrides,
        ir.init_tasks,
        ir.service_phase_tasks,
        ir.load,
        ir.boost_rcu,
    )
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
    #[test]
    fn every_enabled_pass_is_idempotent(bits in any::<u8>()) {
        let cfg = config_from_bits(bits);
        let scenario = camera_scenario();
        let pipeline = Pipeline::standard();
        let (mut ir, _) = pipeline.plan(&scenario, &cfg, None).unwrap();
        let once = snapshot(&ir);
        for pass in pipeline.enabled(&cfg) {
            pass.apply(&mut ir);
            prop_assert_eq!(
                &once,
                &snapshot(&ir),
                "pass {} is not idempotent under config {:?}",
                pass.name(),
                cfg
            );
        }
    }
}

#[test]
fn pipeline_reproduces_pre_refactor_tv_boot_times() {
    // The pass pipeline replaced the hand-threaded `boost_inner`; the
    // machine-op programs it emits are identical, so the calibrated
    // headline times must not move by a nanosecond.
    let scenario = tv_scenario();
    let boot = |cfg| {
        BootRequest::new(&scenario)
            .config(cfg)
            .run()
            .expect("valid")
    };
    let conv = boot(BbConfig::conventional()).report;
    let bb = boot(BbConfig::full()).report;
    assert_eq!(conv.boot_time().to_string(), "8614.474ms");
    assert_eq!(bb.boot_time().to_string(), "3200.077ms");
    // Conventional boots run zero passes; full BB runs all seven.
    assert!(conv.deltas.is_empty());
    assert_eq!(bb.deltas.len(), 7);
}

#[test]
fn pipeline_execute_is_boot_request_run() {
    // The two public ways to boot a plan: compile it and execute the IR
    // directly, or hand the scenario to `BootRequest`. Both must be the
    // same boot down to the simulator's event-queue counters.
    let large = tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: 1000,
            ..TizenParams::default()
        },
    );
    for scenario in [tv_scenario(), large] {
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            let (ir, deltas) = Pipeline::standard()
                .plan(&scenario, &cfg, None)
                .expect("plan");
            let (report, machine) = pipeline::execute(&ir, deltas);
            let boot = BootRequest::new(&scenario).config(cfg).run().expect("run");
            let what = format!("{} under {cfg:?}", scenario.name);
            assert_eq!(
                format!("{report:?}"),
                format!("{:?}", boot.report),
                "report: {what}"
            );
            assert_eq!(report.deltas, boot.report.deltas, "deltas: {what}");
            assert_eq!(
                machine.event_queue_stats(),
                boot.machine.event_queue_stats(),
                "event queue: {what}"
            );
        }
    }
}

#[test]
fn a_plan_shares_its_scenarios_unit_set() {
    // Compiling a plan copies no unit: the plan's graph holds the
    // scenario's own allocation, under every configuration.
    let scenario = tv_scenario();
    for cfg in [BbConfig::conventional(), BbConfig::full()] {
        let (ir, _) = Pipeline::standard()
            .plan(&scenario, &cfg, None)
            .expect("plan");
        assert!(
            std::ptr::eq(ir.graph.units(), scenario.units.as_slice()),
            "the plan under {cfg:?} copied the unit set"
        );
    }
}
