//! End-to-end integration tests across all crates: the calibrated TV
//! scenario booted conventionally and with the full Booting Booster.

use booting_booster::bb::{BbConfig, BootRequest, Comparison, FullBootReport, Scenario};
use booting_booster::init::{blame, critical_chain, Bootchart, UnitGraph, UnitName};
use booting_booster::workloads::{tv_scenario, tv_scenario_open_source};

fn boost(s: &Scenario, cfg: &BbConfig) -> Result<FullBootReport, booting_booster::bb::Error> {
    Ok(BootRequest::new(s).config(*cfg).run()?.report)
}

#[test]
fn headline_reproduction_bands() {
    let scenario = tv_scenario();
    let conv = boost(&scenario, &BbConfig::conventional()).expect("valid");
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");

    let conv_s = conv.boot_time().as_secs_f64();
    let bb_s = bb.boot_time().as_secs_f64();
    assert!((7.0..9.2).contains(&conv_s), "conventional {conv_s:.3} s");
    assert!((3.0..4.0).contains(&bb_s), "bb {bb_s:.3} s");
    let reduction = 100.0 * (conv_s - bb_s) / conv_s;
    assert!(
        (45.0..70.0).contains(&reduction),
        "reduction {reduction:.1}%"
    );
}

#[test]
fn bb_group_is_the_paper_seven() {
    let scenario = tv_scenario();
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");
    let names: Vec<&str> = bb.bb_group.iter().map(|n| n.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "var.mount",
            "dbus.socket",
            "dbus.service",
            "tuner.service",
            "hdmi.service",
            "demux.service",
            "fasttv.service"
        ]
    );
}

#[test]
fn boots_are_fully_deterministic() {
    let run = || {
        let scenario = tv_scenario();
        let r = boost(&scenario, &BbConfig::full()).expect("valid");
        (
            r.boot_time(),
            r.quiesce_time,
            r.rcu.syncs_completed,
            r.rcu.grace_periods,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn no_service_fails_and_everything_completes() {
    let scenario = tv_scenario();
    for cfg in [BbConfig::conventional(), BbConfig::full()] {
        let r = boost(&scenario, &cfg).expect("valid");
        assert!(r.boot.outcome.failed.is_empty(), "failed processes");
        assert!(
            r.boot.outcome.blocked.is_empty(),
            "blocked processes at quiesce: {:?}",
            r.boot.outcome.blocked
        );
        // Every launched service eventually became ready.
        for (name, rec) in &r.boot.services {
            assert!(rec.ready.is_some(), "{name} never became ready");
        }
    }
}

#[test]
fn kernel_phase_breakdown_matches_figure6a() {
    let scenario = tv_scenario();
    let conv = boost(&scenario, &BbConfig::conventional()).expect("valid");
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");
    let conv_kernel = conv.kernel.kernel_total().as_millis();
    let bb_kernel = bb.kernel.kernel_total().as_millis();
    assert!(
        (660..=740).contains(&conv_kernel),
        "conv kernel {conv_kernel}"
    );
    assert!((370..=440).contains(&bb_kernel), "bb kernel {bb_kernel}");
    // Init-phase timings are the paper's exact task table.
    assert_eq!(
        conv.boot
            .init_done
            .since(conv.boot.userspace_start)
            .as_millis(),
        195
    );
    assert_eq!(
        bb.boot.init_done.since(bb.boot.userspace_start).as_millis(),
        71
    );
}

#[test]
fn comparison_table_is_consistent() {
    let scenario = tv_scenario();
    let conv = boost(&scenario, &BbConfig::conventional()).expect("valid");
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");
    let cmp = Comparison::build(&conv, &bb);
    // Rows partition the boot exactly.
    let conv_sum: u64 = cmp.rows.iter().map(|r| r.conventional.as_nanos()).sum();
    assert_eq!(conv_sum, cmp.conventional_total.as_nanos());
    let bb_sum: u64 = cmp.rows.iter().map(|r| r.boosted.as_nanos()).sum();
    assert_eq!(bb_sum, cmp.boosted_total.as_nanos());
}

#[test]
fn deferred_work_runs_after_completion_without_breaking_it() {
    let scenario = tv_scenario();
    let bb = boost(&scenario, &BbConfig::full()).expect("valid");
    assert!(
        bb.quiesce_time > bb.boot_time(),
        "deferred kernel/init work should continue past completion"
    );
}

#[test]
fn bootchart_and_analysis_tools_work_on_real_runs() {
    let scenario = tv_scenario_open_source();
    let boot = BootRequest::new(&scenario)
        .telemetry(true)
        .run()
        .expect("valid");
    let (report, machine) = (boot.report, boot.machine);
    let chart = Bootchart::build(&report.boot, &machine);
    assert!(chart.rows.len() > 100, "chart rows {}", chart.rows.len());
    assert!(chart.to_ascii(80).contains("var.mount"));
    assert!(chart.to_svg().contains("</svg>"));

    let b = blame(&report.boot);
    assert!(!b.is_empty());
    assert!(b.windows(2).all(|w| w[0].1 >= w[1].1));

    let graph = UnitGraph::build(scenario.units.clone()).expect("valid");
    let chain = critical_chain(&report.boot, &graph, &UnitName::new("fasttv.service"));
    assert!(chain.len() >= 3, "chain {chain:?}");
    assert_eq!(chain[0].0.as_str(), "fasttv.service");
    // Ready times decrease walking back the chain.
    assert!(chain.windows(2).all(|w| w[0].1 >= w[1].1));
}

#[test]
fn rcu_booster_control_reverts_after_boot() {
    let scenario = tv_scenario();
    let boot = BootRequest::new(&scenario).run().expect("valid");
    let (report, machine) = (boot.report, boot.machine);
    assert_eq!(
        machine.rcu_mode(),
        booting_booster::sim::RcuMode::ClassicSpin
    );
    assert!(report.rcu.boosted_syncs > 0, "boot-time syncs were boosted");
    assert!(
        report.rcu.grace_periods < report.rcu.syncs_completed,
        "grace periods batch waiters"
    );
}
