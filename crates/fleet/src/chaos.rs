//! Chaos runs: the grid's `{seed × fault-plan × corruption × config}`
//! axes booted under fault.
//!
//! A chaos run measures the *failure envelope* the paper's deployment
//! story depends on: with faults injected into every boot, how often
//! does supervision (`Restart=`, start limits) recover the fast path,
//! how often does the BB→conventional fallback fire, and what does boot
//! time under fault look like? It is the plain grid ([`ChaosSpec`] is
//! [`crate::SweepSpec`]) with its failure axes armed. Fault-plan slot
//! `None` is the fault-free control, slot `Some(seed)` derives a
//! [`FaultPlan`] from that seed and the scenario's own fault targets
//! (see [`bb_core::fault_targets`]), so the same plan seed means the
//! same faults for every config — the ablation comparison stays paired.
//!
//! The corruption axis targets the *artifacts*: slot `None` is the
//! pristine control (no artifact read is staged, so the integrity chain
//! never runs), slot `Some(seed)` derives a [`CorruptionPlan`] from that
//! seed, damages the scenario's encoded pre-parse blob with it, and
//! marks the read transiently flaky (both derived from the same seed),
//! driving the boot through [`bb_core::recovery`]. Per-config
//! statistics then carry recovery counts, artifact rejection rates, and
//! recovery-cost percentiles; degraded boots surface their
//! [`bb_core::FallbackReason`].
//!
//! Chaos tickets ([`WorkItem::Chaos`]) share the sweep's job index,
//! runner, slot store and scenario materializer: a job boots the
//! scenario its ticket shares across the plan and corruption slots of
//! one seed, with the cell's supervision overlay applied. Only the boot
//! strategy (`boot_job`) and the report differ, and no chaos boot reads
//! or writes the [`crate::FleetCache`]. Statistics and notable events
//! are derived in slot order at finalize, and the JSON report (schema
//! `bb-fleet-chaos-v2`) is byte-identical for any worker count.

use std::fmt::Write as _;

use crate::aggregate::Aggregator;
use crate::json;
use crate::pool::{BootSample, FailureKind, FleetCache, JobOutput, PoolConfig, PoolStats};
use crate::service::{run_one_shot, ServiceReport, WorkItem};
use crate::spec::{CellSpec, ChaosSpec, Job};
use bb_core::booster::Scenario;
use bb_core::{
    fault_targets, run_with_fallback_recovering, ArtifactRead, BootOutcome, FallbackPolicy,
    PreParser,
};
use bb_init::encode_units;
use bb_sim::telemetry::percentile_of;
use bb_sim::{CorruptionPlan, FaultPlan, SimDuration};

fn plan_label(plan_seed: Option<u64>) -> String {
    match plan_seed {
        None => "none".to_owned(),
        Some(s) => format!("plan-{s}"),
    }
}

fn corr_label(corr_seed: Option<u64>) -> String {
    match corr_seed {
        None => "pristine".to_owned(),
        Some(s) => format!("corrupt-{s}"),
    }
}

/// Aggregated statistics for one `(cell, plan, corruption, config)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfigStats {
    /// Config label.
    pub label: String,
    /// Completed boots (degraded ones included — they completed via the
    /// fallback).
    pub count: usize,
    /// Mean user-visible boot time, simulated ns.
    pub mean_ns: f64,
    /// Median (nearest-rank), simulated ns.
    pub p50_ns: u64,
    /// 95th percentile, simulated ns.
    pub p95_ns: u64,
    /// 99th percentile, simulated ns.
    pub p99_ns: u64,
    /// Boots that fell back to the conventional shape.
    pub degraded: usize,
    /// Boots that crashed but recovered on the fast path (restarts > 0,
    /// no fallback).
    pub recovered: usize,
    /// Total supervised respawns.
    pub restarts: u64,
    /// Artifact recovery events across these boots (retried reads
    /// included; see [`bb_core::recovery`]).
    pub recoveries: u64,
    /// Artifacts the integrity chain rejected outright.
    pub artifacts_rejected: u64,
    /// Median priced recovery cost over recovering boots, simulated ns
    /// (0 when no boot recovered).
    pub recovery_cost_p50_ns: u64,
    /// 95th percentile priced recovery cost over recovering boots.
    pub recovery_cost_p95_ns: u64,
}

impl ChaosConfigStats {
    /// Degraded-boot rate over completed boots.
    pub fn degraded_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.degraded as f64 / self.count as f64
        }
    }

    /// Of the boots a fault actually hit (recovered or degraded), the
    /// fraction supervision rescued without a fallback.
    pub fn recovery_rate(&self) -> f64 {
        let hit = self.recovered + self.degraded;
        if hit == 0 {
            1.0
        } else {
            self.recovered as f64 / hit as f64
        }
    }

    /// Fraction of boots whose artifact the integrity chain rejected
    /// (every one of them still completed, via re-parse or cold boot).
    pub fn artifact_rejection_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.artifacts_rejected as f64 / self.count as f64
        }
    }
}

/// Aggregated results for one corruption slot within one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCorruptionReport {
    /// Corruption label (`pristine` or `corrupt-<seed>`).
    pub label: String,
    /// Per-config statistics, in config order.
    pub configs: Vec<ChaosConfigStats>,
}

/// Aggregated results for one fault plan within one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlanReport {
    /// Plan label (`none` or `plan-<seed>`).
    pub label: String,
    /// Per-corruption results, in corruption-slot order.
    pub corruptions: Vec<ChaosCorruptionReport>,
}

/// Aggregated results for one chaos cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCellReport {
    /// Cell label.
    pub label: String,
    /// Per-plan results, in plan order.
    pub plans: Vec<ChaosPlanReport>,
}

/// One notable per-boot event (degraded, fault-recovered, or
/// artifact-rejected) or one failed job, in slot order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Cell label.
    pub cell: String,
    /// Plan label.
    pub plan: String,
    /// Corruption label.
    pub corruption: String,
    /// Scenario seed.
    pub seed: u64,
    /// Stable reason line (a [`FailureKind`] rendering; degraded boots
    /// append their [`bb_core::FallbackReason`]).
    pub reason: String,
}

/// One failed chaos job: the same row as a notable event.
pub type ChaosFailure = ChaosEvent;

/// The deterministic output of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Per-cell results, in spec order.
    pub cells: Vec<ChaosCellReport>,
    /// Notable events (degraded / recovered boots), in slot order.
    pub events: Vec<ChaosEvent>,
    /// Failed jobs, in slot order.
    pub failures: Vec<ChaosFailure>,
    /// Completed boots across all cells.
    pub total_boots: usize,
}

impl ChaosReport {
    /// Deterministic JSON: fixed key order, `{:.3}` ms floats, no
    /// host-time fields. Byte-identical for any worker count.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_CHAOS);
        out.push_str("  \"cells\": ");
        json::array(&mut out, 2, &self.cells, |out, cell| {
            let _ = write!(
                out,
                "{{\"label\": \"{}\", \"plans\": ",
                json::escape(&cell.label)
            );
            json::array(out, 4, &cell.plans, |out, plan| {
                let _ = write!(
                    out,
                    "{{\"label\": \"{}\", \"corruptions\": ",
                    json::escape(&plan.label)
                );
                json::array(out, 6, &plan.corruptions, |out, corr| {
                    let _ = write!(
                        out,
                        "{{\"label\": \"{}\", \"configs\": ",
                        json::escape(&corr.label)
                    );
                    json::array(out, 8, &corr.configs, |out, c| {
                        let _ = write!(
                            out,
                            "{{\"label\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \"degraded\": {}, \"degraded_pct\": {:.3}, \"recovered\": {}, \"recovery_pct\": {:.3}, \"restarts\": {}, \"recoveries\": {}, \"artifacts_rejected\": {}, \"rejected_pct\": {:.3}, \"recovery_cost_p50_ms\": {}, \"recovery_cost_p95_ms\": {}}}",
                            json::escape(&c.label),
                            c.count,
                            json::ms(c.mean_ns),
                            json::ms(c.p50_ns as f64),
                            json::ms(c.p95_ns as f64),
                            json::ms(c.p99_ns as f64),
                            c.degraded,
                            100.0 * c.degraded_rate(),
                            c.recovered,
                            100.0 * c.recovery_rate(),
                            c.restarts,
                            c.recoveries,
                            c.artifacts_rejected,
                            100.0 * c.artifact_rejection_rate(),
                            json::ms(c.recovery_cost_p50_ns as f64),
                            json::ms(c.recovery_cost_p95_ns as f64),
                        );
                    });
                    out.push('}');
                });
                out.push('}');
            });
            out.push('}');
        });
        let row = |out: &mut String, e: &ChaosEvent| {
            let _ = write!(
                out,
                "{{\"cell\": \"{}\", \"plan\": \"{}\", \"corruption\": \"{}\", \"seed\": {}, \"reason\": \"{}\"}}",
                json::escape(&e.cell),
                json::escape(&e.plan),
                json::escape(&e.corruption),
                e.seed,
                json::escape(&e.reason)
            );
        };
        out.push_str(",\n  \"events\": ");
        json::array(&mut out, 2, &self.events, row);
        out.push_str(",\n  \"failures\": ");
        json::array(&mut out, 2, &self.failures, row);
        let _ = write!(out, ",\n  \"total_boots\": {}\n}}\n", self.total_boots);
        out
    }

    /// Human-readable table for terminals.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            let _ = writeln!(out, "{}", cell.label);
            for plan in &cell.plans {
                for corr in &plan.corruptions {
                    let _ = writeln!(out, "  plan {} × {}", plan.label, corr.label);
                    let _ = writeln!(
                        out,
                        "    {:<16} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>11}",
                        "config",
                        "boots",
                        "mean",
                        "p95",
                        "p99",
                        "degraded",
                        "recovered",
                        "restarts",
                        "rejected",
                        "recov p95"
                    );
                    for c in &corr.configs {
                        let _ = writeln!(
                            out,
                            "    {:<16} {:>6} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.1}% {:>8.1}% {:>9} {:>8.1}% {:>9.1}ms",
                            c.label,
                            c.count,
                            c.mean_ns / 1e6,
                            c.p95_ns as f64 / 1e6,
                            c.p99_ns as f64 / 1e6,
                            100.0 * c.degraded_rate(),
                            100.0 * c.recovery_rate(),
                            c.restarts,
                            100.0 * c.artifact_rejection_rate(),
                            c.recovery_cost_p95_ns as f64 / 1e6,
                        );
                    }
                }
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "failures ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(
                    out,
                    "  {} {} {} seed {}: {}",
                    f.cell, f.plan, f.corruption, f.seed, f.reason
                );
            }
        }
        let _ = writeln!(out, "total boots aggregated: {}", self.total_boots);
        out
    }
}

/// Everything a chaos run returns.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Aggregated, deterministic results (JSON-stable).
    pub report: ChaosReport,
    /// Pool observability (host-time, nondeterministic) — plus the
    /// deterministic restart and recovery totals.
    pub stats: PoolStats,
}

/// Runs the chaos grid to completion on a private one-shot
/// [`crate::FleetService`] of `pool.workers` threads. Output is
/// byte-identical for any worker count. Long-lived callers wanting
/// `submit`/`poll`/`cancel` should hold a [`crate::FleetService`] and
/// submit [`WorkItem::Chaos`] tickets instead.
pub fn run_chaos(spec: &ChaosSpec, pool: &PoolConfig) -> ChaosOutcome {
    match run_one_shot(WorkItem::Chaos(spec.clone()), pool, FleetCache::fresh()) {
        ServiceReport::Chaos(outcome) => outcome,
        ServiceReport::Sweep(_) => unreachable!("chaos tickets finalize into chaos reports"),
    }
}

impl Aggregator {
    /// Computes the chaos report, walking slots in job order: per
    /// `(cell, plan, corruption)` the seed slots, per seed the configs.
    pub(crate) fn chaos_report(&self, spec: &ChaosSpec) -> ChaosReport {
        let mut total_boots = 0;
        let mut events = Vec::new();
        let mut failures = Vec::new();
        let mut cells = Vec::new();
        for (cell, slots) in self.by_cell(spec) {
            let seeds = cell.seeds.len();
            let mut groups = slots.chunks(seeds.max(1));
            let mut plans = Vec::new();
            for &plan_seed in &cell.plan_seeds {
                let plan = plan_label(plan_seed);
                let mut corruptions = Vec::new();
                for &corr_seed in &cell.corruption_seeds {
                    let corruption = corr_label(corr_seed);
                    let group = groups.next().unwrap_or_default();
                    let row = |seed_idx: usize, reason: String| ChaosEvent {
                        cell: cell.label.clone(),
                        plan: plan.clone(),
                        corruption: corruption.clone(),
                        seed: cell.seeds[seed_idx],
                        reason,
                    };
                    let mut done: Vec<(usize, &[BootSample])> = Vec::new();
                    for (si, slot) in group.iter().enumerate() {
                        match slot {
                            Some(Ok(samples)) => done.push((si, samples)),
                            Some(Err(reason)) => failures.push(row(si, reason.clone())),
                            None => {}
                        }
                    }
                    let configs = cell
                        .configs
                        .iter()
                        .enumerate()
                        .map(|(k, (label, _))| {
                            let samples: Vec<&BootSample> =
                                done.iter().map(|(_, by_config)| &by_config[k]).collect();
                            total_boots += samples.len();
                            config_stats(label, &samples)
                        })
                        .collect();
                    // Notable per-boot events, in (seed, config) slot order.
                    for &(si, by_config) in &done {
                        for (s, (label, _)) in by_config.iter().zip(&cell.configs) {
                            if s.artifacts_rejected > 0 {
                                let kind = FailureKind::ArtifactRejected {
                                    config: label.clone(),
                                    detail: s.artifact_detail.clone().unwrap_or_default(),
                                };
                                events.push(row(si, kind.reason()));
                            }
                            if let Some(fb) = &s.fallback {
                                let kind = FailureKind::Degraded {
                                    config: label.clone(),
                                };
                                events.push(row(si, format!("{} ({fb})", kind.reason())));
                            } else if s.restarts > 0 {
                                let kind = FailureKind::FaultRecovered {
                                    config: label.clone(),
                                    restarts: s.restarts,
                                };
                                events.push(row(si, kind.reason()));
                            }
                        }
                    }
                    corruptions.push(ChaosCorruptionReport {
                        label: corruption,
                        configs,
                    });
                }
                plans.push(ChaosPlanReport {
                    label: plan,
                    corruptions,
                });
            }
            cells.push(ChaosCellReport {
                label: cell.label.clone(),
                plans,
            });
        }
        ChaosReport {
            cells,
            events,
            failures,
            total_boots,
        }
    }
}

/// One `(cell, plan, corruption, config)`'s statistics over its
/// completed boots in seed order.
fn config_stats(label: &str, samples: &[&BootSample]) -> ChaosConfigStats {
    let mut sorted: Vec<u64> = samples.iter().map(|s| s.boot_ns).collect();
    sorted.sort_unstable();
    let count = samples.len();
    let sum = |f: fn(&BootSample) -> u32| samples.iter().map(|s| u64::from(f(s))).sum::<u64>();
    // Recovery-cost percentiles over the boots that actually recovered
    // something.
    let mut costs: Vec<u64> = samples
        .iter()
        .filter(|s| s.recoveries > 0)
        .map(|s| s.recovery_cost_ns)
        .collect();
    costs.sort_unstable();
    ChaosConfigStats {
        label: label.to_owned(),
        count,
        mean_ns: if count == 0 {
            0.0
        } else {
            sorted.iter().map(|&n| n as f64).sum::<f64>() / count as f64
        },
        p50_ns: percentile_of(&sorted, 50).unwrap_or(0),
        p95_ns: percentile_of(&sorted, 95).unwrap_or(0),
        p99_ns: percentile_of(&sorted, 99).unwrap_or(0),
        degraded: samples.iter().filter(|s| s.fallback.is_some()).count(),
        recovered: samples
            .iter()
            .filter(|s| s.fallback.is_none() && s.restarts > 0)
            .count(),
        restarts: sum(|s| s.restarts),
        recoveries: sum(|s| s.recoveries),
        artifacts_rejected: sum(|s| s.artifacts_rejected),
        recovery_cost_p50_ns: percentile_of(&costs, 50).unwrap_or(0),
        recovery_cost_p95_ns: percentile_of(&costs, 95).unwrap_or(0),
    }
}

/// Transient read failures derived from a corruption seed (splitmix64
/// finalizer, `% 6`): values above [`bb_core::MAX_ARTIFACT_RETRIES`]
/// exhaust the retry budget and reject the artifact on flakiness alone.
fn transient_reads(seed: u64) -> u32 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 6) as u32
}

/// The chaos strategy: derives the job's fault plan and damaged
/// artifact from its slots, and boots every config of `scenario` (the
/// cell's supervision overlay already applied, see
/// [`crate::spec::job_scenario`]) through the supervised,
/// artifact-validating fallback boot.
pub(crate) fn boot_job(
    cell: &CellSpec,
    job: Job,
    scenario: &Scenario,
    pre: &PreParser,
) -> Result<JobOutput, FailureKind> {
    let plan = match cell.plan_seeds[job.plan_idx] {
        None => FaultPlan::none(),
        Some(ps) => FaultPlan::seeded(ps, &fault_targets(scenario)),
    };
    // Corruption slot `None` supplies no artifact (the pristine
    // control: identical to a boot that never had a cache). A seeded
    // slot damages the scenario's own encoded blob and makes the read
    // transiently flaky, both derived from the seed.
    let artifact = cell.corruption_seeds[job.corr_idx].map(|cs| {
        ArtifactRead::corrupted(encode_units(&scenario.units), &CorruptionPlan::seeded(cs))
            .flaky(transient_reads(cs))
    });
    let policy = FallbackPolicy {
        deadline: SimDuration::from_millis(cell.deadline_ms),
    };
    let mut samples = Vec::with_capacity(cell.configs.len());
    for (_, cfg) in &cell.configs {
        let (boot, recoveries) = run_with_fallback_recovering(
            scenario,
            cfg,
            Some(pre),
            artifact.as_ref(),
            &plan,
            &policy,
        )
        .map_err(|e| FailureKind::Boost(e.to_string()))?;
        samples.push(BootSample {
            boot_ns: boot.user_boot_time().as_nanos(),
            spans: None,
            restarts: boot.restarts(),
            fallback: match &boot {
                BootOutcome::Degraded(d) => Some(d.reason.to_string()),
                BootOutcome::Completed(_) => None,
            },
            recoveries: recoveries.len() as u32,
            artifacts_rejected: recoveries.iter().filter(|e| e.rejected()).count() as u32,
            recovery_cost_ns: recoveries.iter().map(|e| e.total_cost().as_nanos()).sum(),
            artifact_detail: recoveries
                .iter()
                .find(|e| e.rejected())
                .map(bb_core::RecoveryEvent::describe),
        });
    }
    Ok(JobOutput {
        samples,
        ..JobOutput::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Supervision;
    use bb_core::BbConfig;
    use bb_workloads::{profiles, TizenParams};

    fn tiny_cell() -> CellSpec {
        CellSpec::tizen(
            "tiny",
            profiles::ue48h6200(),
            TizenParams {
                services: 24,
                ..TizenParams::open_source()
            },
        )
        .seeds([1, 2])
        .supervision(Some(Supervision::default()))
    }

    fn tiny_chaos(plans: u64) -> ChaosSpec {
        ChaosSpec::new().cell(tiny_cell().fault_plans(plans, 100).conventional_vs_bb())
    }

    fn tiny_corruption(corruptions: u64) -> ChaosSpec {
        ChaosSpec::new().cell(
            tiny_cell()
                .corruption_plans(corruptions, 500)
                .conventional_vs_bb(),
        )
    }

    #[test]
    fn chaos_sweep_completes_the_grid() {
        let spec = tiny_chaos(2);
        assert_eq!(spec.total_boots(), 2 * 3 * 2);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        assert!(outcome.report.failures.is_empty(), "no job should fail");
        assert_eq!(outcome.report.total_boots, 12);
        let cell = &outcome.report.cells[0];
        assert_eq!(cell.plans.len(), 3);
        assert_eq!(cell.plans[0].label, "none");
        assert_eq!(cell.plans[0].corruptions.len(), 1);
        assert_eq!(cell.plans[0].corruptions[0].label, "pristine");
        // The control plan is fault-free and the control corruption
        // slot supplies no artifact: nothing degrades, restarts, or
        // recovers.
        for c in &cell.plans[0].corruptions[0].configs {
            assert_eq!(c.degraded, 0);
            assert_eq!(c.restarts, 0);
            assert_eq!(c.recovery_rate(), 1.0);
            assert_eq!(c.recoveries, 0);
            assert_eq!(c.artifacts_rejected, 0);
        }
    }

    #[test]
    fn chaos_json_is_identical_across_worker_counts() {
        let spec = tiny_chaos(2);
        let one = run_chaos(&spec, &PoolConfig::with_workers(1));
        let three = run_chaos(&spec, &PoolConfig::with_workers(3));
        assert_eq!(one.report, three.report);
        assert_eq!(one.report.to_json(), three.report.to_json());
        assert_eq!(one.stats.restarts, three.stats.restarts);
    }

    #[test]
    fn corruption_sweep_json_is_identical_across_worker_counts() {
        let spec = tiny_corruption(3);
        let one = run_chaos(&spec, &PoolConfig::with_workers(1));
        let four = run_chaos(&spec, &PoolConfig::with_workers(4));
        assert_eq!(one.report, four.report);
        assert_eq!(one.report.to_json(), four.report.to_json());
        assert_eq!(one.stats.recoveries, four.stats.recoveries);
        assert_eq!(one.stats.artifacts_rejected, four.stats.artifacts_rejected);
    }

    #[test]
    fn chaos_json_parses_and_carries_the_schema() {
        let spec = tiny_chaos(1);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        let parsed = crate::json::parse(&outcome.report.to_json()).expect("chaos JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(crate::json::Json::as_str),
            Some("bb-fleet-chaos-v2")
        );
        assert_eq!(
            parsed
                .get("total_boots")
                .and_then(crate::json::Json::as_f64),
            Some(8.0)
        );
    }

    #[test]
    fn seeded_plans_inject_observable_faults() {
        // Across a handful of plan seeds, at least one boot must show a
        // fault symptom (a restart, a degraded boot, or a slower boot
        // than the control) — otherwise the injection axis is dead.
        let spec = tiny_chaos(4);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        let cell = &outcome.report.cells[0];
        let control_mean: f64 = cell.plans[0].corruptions[0]
            .configs
            .iter()
            .map(|c| c.mean_ns)
            .sum();
        let symptom = cell.plans[1..].iter().any(|p| {
            p.corruptions[0]
                .configs
                .iter()
                .any(|c| c.restarts > 0 || c.degraded > 0 || c.mean_ns > control_mean)
        });
        assert!(symptom, "no fault plan produced any observable symptom");
    }

    #[test]
    fn corruption_axis_never_fails_a_boot_and_prices_recoveries() {
        // Seeded corruption must never lose a sample: every damaged
        // artifact either survives validation, is retried, or is
        // rejected and the boot re-parses — no panics, no failures.
        let spec = tiny_corruption(4);
        assert_eq!(spec.total_boots(), 2 * 5 * 2);
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        assert!(outcome.report.failures.is_empty(), "no job should fail");
        assert_eq!(outcome.report.total_boots, 20);

        let plan = &outcome.report.cells[0].plans[0];
        assert_eq!(plan.corruptions.len(), 5);
        // Conventional boots never consult the artifact, so the
        // integrity chain must never bill them a recovery.
        for corr in &plan.corruptions {
            let conv = &corr.configs[0];
            assert_eq!(conv.label, "conventional");
            assert_eq!(conv.recoveries, 0);
            assert_eq!(conv.artifacts_rejected, 0);
        }
        // Across the seeded slots, at least one BB boot must hit the
        // recovery chain — otherwise the corruption axis is dead.
        let bb_recoveries: u64 = plan.corruptions[1..]
            .iter()
            .map(|corr| corr.configs[1].recoveries)
            .sum();
        assert!(bb_recoveries > 0, "no corruption plan triggered recovery");
        // Every rejection is priced: the p95 recovery cost over slots
        // with a rejection must be nonzero.
        for corr in &plan.corruptions[1..] {
            let bb = &corr.configs[1];
            if bb.artifacts_rejected > 0 {
                assert!(
                    bb.recovery_cost_p95_ns > 0,
                    "rejected artifact recoveries must carry a cost"
                );
            }
        }
    }

    #[test]
    fn rejected_artifacts_land_on_the_reparse_timeline() {
        // The acceptance property at sweep scale: a boot whose artifact
        // the chain rejects re-parses and lands on the *same simulated
        // timeline* as a BB boot that never had the cache (the artifact
        // read and its retries are host-side ledger items, not
        // simulated events).
        let spec = ChaosSpec::new().cell(
            tiny_cell()
                .corruption_plans(4, 500)
                .config("bb", BbConfig::full())
                .config(
                    "bb-sans-preparse",
                    BbConfig {
                        preparser: false,
                        ..BbConfig::full()
                    },
                ),
        );
        let outcome = run_chaos(&spec, &PoolConfig::with_workers(2));
        assert!(outcome.report.failures.is_empty());
        let plan = &outcome.report.cells[0].plans[0];
        let mut checked = 0;
        for corr in &plan.corruptions[1..] {
            let bb = &corr.configs[0];
            let baseline = &corr.configs[1];
            // The no-preparse config never consults the artifact.
            assert_eq!(baseline.recoveries, 0);
            if bb.artifacts_rejected as usize == bb.count {
                assert_eq!(
                    bb.p50_ns, baseline.p50_ns,
                    "rejected-artifact boots must match the re-parse timeline"
                );
                assert_eq!(bb.p95_ns, baseline.p95_ns);
                checked += 1;
            }
        }
        assert!(checked > 0, "no corruption slot rejected every artifact");
    }

    /// A `Fixed` cell boots its scenario with the supervision overlay
    /// applied, exactly as a `Tizen` cell boots the same generated
    /// scenario: one materializer serves both sources.
    #[test]
    fn fixed_cells_boot_with_the_supervision_overlay() {
        let params = TizenParams {
            services: 24,
            seed: 3,
            ..TizenParams::open_source()
        };
        let scenario = bb_workloads::tv_scenario_with(profiles::ue48h6200(), params);
        let generated = tiny_cell().seeds([3]);
        let fixed = CellSpec {
            source: crate::spec::ScenarioSource::Fixed(std::sync::Arc::new(scenario)),
            ..generated.clone()
        };
        let run = |cell: CellSpec| {
            let spec = ChaosSpec::new().cell(cell.fault_plans(2, 100).conventional_vs_bb());
            run_chaos(&spec, &PoolConfig::with_workers(2))
                .report
                .to_json()
        };
        assert_eq!(run(fixed), run(generated));
    }

    #[test]
    fn transient_reads_spread_across_the_retry_budget() {
        // The derived flakiness must exercise both sides of the retry
        // bound over a small seed range, or the retry path never runs.
        let counts: Vec<u32> = (0..32).map(transient_reads).collect();
        assert!(counts
            .iter()
            .any(|&c| c > 0 && c <= bb_core::MAX_ARTIFACT_RETRIES));
        assert!(counts.iter().any(|&c| c > bb_core::MAX_ARTIFACT_RETRIES));
    }
}
