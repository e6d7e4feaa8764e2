//! Fleet acceptance tests: the aggregated sweep output must be
//! byte-identical for any worker count and to the committed golden
//! documents, and one poisoned job must never take the sweep down with
//! it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use booting_booster::bb::BbConfig;
use booting_booster::fleet::{
    parse_json, run_chaos, run_sweep, CellSpec, ChaosSpec, FleetCache, PoolConfig, ScenarioSource,
    SweepSpec,
};
use booting_booster::init::UnitName;
use booting_booster::serve::{JobKind, SweepArgs};
use booting_booster::workloads::{profiles, tv_scenario_with, TizenParams};

fn small_params(seed: u64) -> TizenParams {
    TizenParams {
        services: 24,
        seed,
        ..TizenParams::open_source()
    }
}

fn two_cell_spec() -> SweepSpec {
    SweepSpec::new()
        .cell(
            CellSpec::tizen("tv-small", profiles::ue48h6200(), small_params(0))
                .seeds(0..6)
                .conventional_vs_bb(),
        )
        .cell(
            CellSpec::tizen("phone-small", profiles::galaxy_s6(), small_params(0))
                .seeds([40, 41, 42])
                .config("bb", BbConfig::full())
                .config("preparser-only", {
                    let mut cfg = BbConfig::conventional();
                    cfg.preparser = true;
                    cfg
                }),
        )
}

#[test]
fn aggregated_json_is_byte_identical_across_worker_counts() {
    let spec = two_cell_spec();
    let serial = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
    let json_serial = serial.report.to_json();
    assert_eq!(serial.report.total_boots, spec.total_boots());
    assert!(serial.report.failures.is_empty());

    for workers in [2, 3, 5] {
        let parallel = run_sweep(
            &spec,
            &PoolConfig::with_workers(workers),
            &FleetCache::fresh(),
        );
        assert_eq!(parallel.report, serial.report, "{workers} workers");
        assert_eq!(
            parallel.report.to_json(),
            json_serial,
            "JSON must be byte-identical with {workers} workers"
        );
    }
    // And the artifact is well-formed.
    parse_json(&json_serial).expect("sweep JSON parses");
}

#[test]
fn span_metrics_json_is_byte_identical_across_worker_counts() {
    let spec = two_cell_spec().with_metrics(true);
    let serial = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
    let metrics = serial
        .report
        .metrics
        .as_ref()
        .expect("metrics collection was requested");
    let json_serial = metrics.to_json();
    parse_json(&json_serial).expect("metrics JSON parses");
    // Spans cover every layer: kernel phases, init, and units.
    let spans = &metrics.cells[0].configs[0].spans;
    for prefix in ["kernel/", "init/", "unit/"] {
        assert!(
            spans.iter().any(|s| s.name.starts_with(prefix)),
            "no {prefix} span in {:?}",
            spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    for workers in [2, 4] {
        let parallel = run_sweep(
            &spec,
            &PoolConfig::with_workers(workers),
            &FleetCache::fresh(),
        );
        assert_eq!(
            parallel.report.metrics.as_ref().unwrap().to_json(),
            json_serial,
            "metrics JSON must be byte-identical with {workers} workers"
        );
    }
}

/// The job `bbsim <kind> FLAGS` describes.
fn cli_job(kind: JobKind, flags: &[&str]) -> SweepArgs {
    let mut job = SweepArgs::new(kind);
    let mut it = flags.iter().map(|s| s.to_string());
    while let Some(flag) = it.next() {
        assert_eq!(job.parse_flag(&flag, &mut || it.next()), Ok(true), "{flag}");
    }
    job
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `bbsim sweep --services 24 --seeds 3 --fork-from kernel-handoff
/// --metrics`: the report and metrics documents are pinned byte for
/// byte, at any worker count.
#[test]
fn sweep_documents_match_the_golden_bytes() {
    let mut job = cli_job(
        JobKind::Sweep,
        &[
            "--services",
            "24",
            "--seeds",
            "3",
            "--fork-from",
            "kernel-handoff",
        ],
    );
    job.metrics = true;
    let spec = job.sweep_spec().expect("golden sweep grid");
    for workers in [1, 3] {
        let outcome = run_sweep(
            &spec,
            &PoolConfig::with_workers(workers),
            &FleetCache::fresh(),
        );
        assert_eq!(
            outcome.report.to_json(),
            golden("fleet_sweep.json"),
            "{workers} workers"
        );
        let metrics = outcome.report.metrics.expect("metrics were collected");
        assert_eq!(
            metrics.to_json(),
            golden("fleet_metrics.json"),
            "{workers} workers"
        );
    }
}

/// `bbsim chaos --services 24 --seeds 2 --plans 2 --corruption 2`, plus
/// an unsupervised cell under a short supervisor deadline: the report
/// is pinned byte for byte and carries every kind of notable event.
#[test]
fn chaos_report_matches_the_golden_bytes() {
    let axes = [
        "--services",
        "24",
        "--seeds",
        "2",
        "--plans",
        "2",
        "--corruption",
        "2",
    ];
    let mut spec: ChaosSpec = cli_job(JobKind::Chaos, &axes)
        .chaos_spec()
        .expect("golden chaos grid");
    let mut unsupervised = axes.to_vec();
    unsupervised.extend([
        "--profiles",
        "galaxy-s6",
        "--restart",
        "no",
        "--deadline-ms",
        "2000",
    ]);
    spec.cells.extend(
        cli_job(JobKind::Chaos, &unsupervised)
            .chaos_spec()
            .expect("unsupervised chaos grid")
            .cells,
    );
    let want = golden("fleet_chaos.json");
    for reason in ["degraded boot", "recovered after", "artifact rejected"] {
        assert!(
            want.contains(reason),
            "golden chaos report lacks {reason:?}"
        );
    }
    for workers in [1, 3] {
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(workers));
        assert_eq!(outcome.report.to_json(), want, "{workers} workers");
    }
}

/// The sweep bench's grid (`crates/bench/benches/sweep.rs`): 15
/// ablation cells over one 136-service source, 2 seeds, 60 boots.
fn ablation_grid() -> SweepSpec {
    let params = TizenParams {
        services: 136,
        ..TizenParams::open_source()
    };
    let cell = |label: String| CellSpec::tizen(label, profiles::ue48h6200(), params).seeds(0..2);
    let mut spec = SweepSpec::new().cell(
        cell("baseline".into())
            .config("conventional", BbConfig::conventional())
            .config("bb", BbConfig::full()),
    );
    let ablations = BbConfig::single_feature_configs()
        .into_iter()
        .map(|(name, cfg)| (format!("only-{name}"), name.to_owned(), cfg))
        .chain(
            BbConfig::leave_one_out_configs()
                .into_iter()
                .map(|(name, cfg)| (format!("without-{name}"), format!("no-{name}"), cfg)),
        );
    for (label, config, cfg) in ablations {
        spec = spec.cell(
            cell(label)
                .config("conventional", BbConfig::conventional())
                .config(config, cfg),
        );
    }
    spec
}

/// On one worker the grid's work counters are exact: each seed boots
/// its 16 distinct configs once (dedup serves the other 14 grid points),
/// and the fork flag changes nothing: every boot runs plain. Neither
/// flag moves the report.
#[test]
fn ablation_grid_counters_are_exact_and_sharing_never_moves_the_report() {
    let spec = ablation_grid();
    assert_eq!((spec.cells.len(), spec.total_boots()), (15, 60));
    let pool = PoolConfig::with_workers(1);
    let forked = run_sweep(&spec.clone().with_fork(true), &pool, &FleetCache::fresh());
    assert!(forked.report.failures.is_empty());
    assert_eq!(forked.stats.kernel_sims, 32);
    assert_eq!(forked.stats.cells_deduped, 28);
    let plain = run_sweep(&spec, &pool, &FleetCache::fresh());
    let no_dedup = run_sweep(&spec.clone().with_dedup(false), &pool, &FleetCache::fresh());
    assert_eq!(no_dedup.stats.kernel_sims, 60);
    assert_eq!(no_dedup.stats.cells_deduped, 0);
    let want = forked.report.to_json();
    assert_eq!(plain.report.to_json(), want, "plain vs forked");
    assert_eq!(no_dedup.report.to_json(), want, "no-dedup vs forked");
}

#[test]
fn panicking_job_is_reported_and_sweep_completes() {
    // A scenario whose completion unit does not exist panics inside the
    // booster (identify_bb_group) when bb-group is enabled — the kind of
    // poisoned cell a big sweep must survive.
    let mut poisoned = tv_scenario_with(profiles::ue48h6200(), small_params(0));
    poisoned.completion = vec![UnitName::new("no-such-unit.service")];

    let spec = SweepSpec::new()
        .cell(
            CellSpec::tizen("healthy", profiles::ue48h6200(), small_params(0))
                .seeds([1, 2])
                .conventional_vs_bb(),
        )
        .cell(CellSpec::fixed("poisoned", poisoned).config("bb", BbConfig::full()));

    let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
    // The healthy cell aggregated fully...
    assert_eq!(outcome.report.cells[0].completed, 2);
    assert_eq!(outcome.report.total_boots, 4);
    // ...and the poisoned job is a reported failure, not a crash.
    assert_eq!(outcome.report.failures.len(), 1);
    let failure = &outcome.report.failures[0];
    assert_eq!(failure.cell, "poisoned");
    assert!(
        failure.reason.starts_with("panic:") && failure.reason.contains("no-such-unit"),
        "unexpected reason: {}",
        failure.reason
    );
}

#[test]
fn deadline_exceeded_jobs_are_isolated_failures() {
    let spec = SweepSpec::new()
        .cell(
            CellSpec::tizen("doomed", profiles::ue48h6200(), small_params(0))
                .seeds([7, 8])
                .conventional_vs_bb(),
        )
        .deadline(Duration::ZERO);
    let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
    assert_eq!(outcome.report.total_boots, 0);
    assert_eq!(outcome.report.failures.len(), 2);
    assert!(outcome
        .report
        .failures
        .iter()
        .all(|f| f.reason == "deadline exceeded"));
    // Failure order is (cell, seed) — not scheduling order.
    assert_eq!(outcome.report.failures[0].seed, 7);
    assert_eq!(outcome.report.failures[1].seed, 8);
}

#[test]
fn fixed_cells_reuse_one_template() {
    let scenario = tv_scenario_with(profiles::ue48h6200(), small_params(3));
    let spec = SweepSpec::new().cell(
        CellSpec::fixed("pinned", scenario)
            .seeds(0..4)
            .config("bb", BbConfig::full()),
    );
    match &spec.cells[0].source {
        ScenarioSource::Fixed(s) => assert!(Arc::strong_count(s) >= 1),
        other => panic!("expected fixed source, got {other:?}"),
    }
    let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
    // Identical template => identical boot time in every slot.
    let stats = &outcome.report.cells[0].configs[0];
    assert_eq!(stats.count, 4);
    assert_eq!(stats.min_ns, stats.max_ns);
    assert_eq!(stats.stddev_ns, 0.0);
}

/// The parallel-speedup acceptance target: a ≥200-boot sweep should
/// scale with the worker count. Gated at *runtime* on the hardware the
/// test actually gets: on a single-core host (this repo's CI container)
/// a parallel speedup is physically impossible and the measurement
/// part is skipped — the byte-identity half still runs everywhere. The
/// threshold is conservative to tolerate shared CI hosts: ≥2.5× on 4+
/// cores, ≥1.2× on 2–3 cores.
#[test]
fn multicore_sweep_speedup_scales_with_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 50 seeds x 2 cells x 2 configs = 200 boots.
    let spec = SweepSpec::new()
        .cell(
            CellSpec::tizen("tv", profiles::ue48h6200(), small_params(0))
                .seeds(0..50)
                .conventional_vs_bb(),
        )
        .cell(
            CellSpec::tizen("phone", profiles::galaxy_s6(), small_params(0))
                .seeds(0..50)
                .conventional_vs_bb(),
        );
    assert_eq!(spec.total_boots(), 200);

    let start = Instant::now();
    let serial = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
    let serial_wall = start.elapsed();

    let start = Instant::now();
    let parallel = run_sweep(
        &spec,
        &PoolConfig::with_workers(cores),
        &FleetCache::fresh(),
    );
    let parallel_wall = start.elapsed();

    // The determinism half holds on any hardware.
    assert_eq!(serial.report.to_json(), parallel.report.to_json());

    if cores < 2 {
        eprintln!("single-core host ({cores} core): speedup measurement skipped");
        return;
    }
    let expected = if cores >= 4 { 2.5 } else { 1.2 };
    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64();
    assert!(
        speedup >= expected,
        "expected >={expected}x speedup on {cores} cores, measured {speedup:.2}x \
         (serial {serial_wall:?}, parallel {parallel_wall:?})"
    );
}
