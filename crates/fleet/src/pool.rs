//! Job execution and the boot-outcome cache.
//!
//! The long-lived executor lives in [`crate::service`]: a
//! [`crate::FleetService`] owns the worker threads, the bounded work
//! queue, and the per-client fairness machinery. This module keeps the
//! *one-shot* entry point — [`run_sweep`] spins up a private service,
//! submits the spec as a single ticket, and waits — plus everything a
//! job needs to execute: the [`FleetCache`], the one job runner, and
//! the observability types ([`PoolStats`], [`WorkerStats`]).
//!
//! One runner serves both ticket kinds. It isolates every job under
//! [`std::panic::catch_unwind`], so one poisoned scenario cannot take
//! down a grid: the panic becomes the job's failure and the queue keeps
//! draining. A per-job wall-clock deadline (from [`SweepSpec::deadline`])
//! is checked after the job runs — the simulator has no preemption
//! points, so overruns are detected post-hoc and the result discarded.
//! The ticket kind picks the boot strategy: sweep jobs boot fault-free
//! through the dedup cache below, chaos jobs through the supervised
//! fallback boot of [`crate::chaos`].
//!
//! Determinism: results are identified by their flat job index and
//! stored into index-addressed slots, so the *output* of a grid is
//! identical for any worker count even though execution order is not.
//!
//! # What is shared, and for how long
//!
//! A ticket is the only scope that shares scenarios: its plan
//! fingerprints every job once ([`crate::spec`]) and keeps a
//! use-counted share per fingerprint two or more of its jobs boot. The
//! plan queues the jobs of one fingerprint back to back, so a share is
//! built by the first job of its run and dropped by the last: a ticket
//! holds at most one built scenario per job in flight, plus one,
//! however many seeds, plans or cells its grid has. Finalize or cancel
//! drops whatever is left. Every config boots plain; no fleet job
//! forks from a checkpoint (see [`SweepSpec::fork`]).
//!
//! What outlives a ticket is the [`FleetCache`]: the boot outcomes that
//! let [`SweepSpec::dedup`] serve an identical grid point without
//! re-simulating it — within a sweep, across sweeps, and across clients
//! of one [`crate::FleetService`]. Outcomes are a few integers each, so
//! the cache holds no scenario, plan or snapshot. Simulation is
//! deterministic, so a served outcome is bit-identical to a fresh one
//! and sharing never changes a report. [`run_sweep`] takes the cache
//! explicitly; pass [`FleetCache::fresh`] for a private per-call cache,
//! or hold one `Arc` across calls to carry outcomes across sweeps.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::aggregate::SweepReport;
use crate::service::{run_one_shot, ServiceReport, WorkItem};
use crate::spec::{cell_fingerprint, job_fingerprint, job_scenario, Job, SweepSpec};
use bb_core::booster::Scenario;
use bb_core::{BootRequest, PreParser};

/// Pool sizing for the one-shot entry points ([`run_sweep`],
/// [`crate::run_chaos`]). The persistent service has its own
/// [`crate::ServiceConfig`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker thread count. Defaults to available parallelism.
    pub workers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl PoolConfig {
    /// A pool with exactly `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PoolConfig {
            workers: workers.max(1),
        }
    }
}

/// Entries above which the boot-outcome cache is reset.
const BOOT_CACHE_CAP: usize = 65536;

/// One memoized boot outcome (everything a job extracts from a boot),
/// fanned out to every grid point that requests the same
/// (scenario-fingerprint, config) pair.
#[derive(Debug, Clone)]
enum CachedBoot {
    /// The boot completed; these values are deterministic functions of
    /// the (scenario, config) pair, so replaying them is bit-identical
    /// to re-simulating.
    Done {
        boot_ns: u64,
        /// The machine's event-queue high-water mark (simulated state,
        /// deterministic), replayed into `PoolStats::peak_events`.
        peak_events: usize,
        /// Span telemetry, present only if the simulating sweep had
        /// [`SweepSpec::metrics`] on. A metrics sweep treats a
        /// span-less entry as a miss and re-simulates.
        spans: Option<Vec<(String, u64)>>,
    },
    /// The boot never met its completion definition; every requesting
    /// slot reports the failure under its own config label.
    Incomplete,
}

/// Boot outcomes shared by one or more sweeps: the dedup map (see the
/// module docs).
///
/// The map is behind a lock, so one cache can back any number of
/// concurrent workers — and, through [`crate::FleetService`], any
/// number of concurrent clients: two clients submitting overlapping
/// grids share boot outcomes. Every entry is derived deterministically
/// from scenario content, so sharing never changes a report.
#[derive(Debug, Default)]
pub struct FleetCache {
    boots: Mutex<HashMap<(u64, u8), CachedBoot>>,
}

impl FleetCache {
    /// An empty cache behind the `Arc` the fleet APIs take — the
    /// fresh-cache convenience default:
    /// `run_sweep(&spec, &pool, &FleetCache::fresh())`.
    pub fn fresh() -> Arc<Self> {
        Arc::default()
    }

    /// Drops every cached outcome.
    pub fn clear(&self) {
        lock(&self.boots).clear();
    }

    /// The cached outcome for (`fp`, config `bits`), if one exists and
    /// carries the telemetry this sweep needs.
    fn boot_lookup(&self, fp: u64, bits: u8, metrics: bool) -> Option<CachedBoot> {
        let map = lock(&self.boots);
        let hit = map.get(&(fp, bits))?;
        if metrics {
            // A span-less entry (cached by a metrics-off sweep) cannot
            // serve a metrics sweep; re-simulate and upgrade it.
            if let CachedBoot::Done { spans: None, .. } = hit {
                return None;
            }
        }
        Some(hit.clone())
    }

    /// Stores (or upgrades) the outcome for (`fp`, config `bits`).
    fn boot_insert(&self, fp: u64, bits: u8, outcome: CachedBoot) {
        let mut map = lock(&self.boots);
        if map.len() >= BOOT_CACHE_CAP {
            map.clear();
        }
        map.insert((fp, bits), outcome);
    }
}

/// Locks a cache map, recovering from poisoning: worker panics are
/// caught per job and these maps are only ever mutated whole-entry, so
/// a poisoned lock cannot hide a half-written state.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One boot's measurement. Sweep boots fill `boot_ns` and, when the
/// sweep collects metrics, `spans`; chaos boots fill the fault fields.
#[derive(Debug, Clone, Default)]
pub(crate) struct BootSample {
    /// User-visible boot time, simulated nanoseconds (fallback
    /// detection and reboot included for degraded chaos boots).
    pub(crate) boot_ns: u64,
    /// `(span name, duration ns)` telemetry; `Some` only when the sweep
    /// collects metrics ([`SweepSpec::metrics`]).
    pub(crate) spans: Option<Vec<(String, u64)>>,
    /// Supervised respawns the boot took.
    pub(crate) restarts: u32,
    /// Why the supervisor fell back to the conventional shape,
    /// rendered; `Some` exactly for degraded boots.
    pub(crate) fallback: Option<String>,
    /// Artifact recoveries the boot went through (retried reads
    /// included).
    pub(crate) recoveries: u32,
    /// Artifacts the integrity chain rejected (subset of `recoveries`).
    pub(crate) artifacts_rejected: u32,
    /// Total priced recovery cost (retry backoff + degraded-path
    /// delta), simulated nanoseconds.
    pub(crate) recovery_cost_ns: u64,
    /// Stable description of the first rejection, for the event stream.
    pub(crate) artifact_detail: Option<String>,
}

/// A completed job: every config of one grid slot, plus the
/// deterministic work counters the ticket's [`PoolStats`] sum.
#[derive(Debug, Default)]
pub(crate) struct JobOutput {
    /// One sample per config, in config order.
    pub(crate) samples: Vec<BootSample>,
    /// Kernel-phase simulations this job executed: one per config it
    /// booted. Boots served from the dedup cache simulate nothing.
    pub(crate) kernel_sims: usize,
    /// Deepest simulator event queue observed across this job's boots
    /// (the machine's high-water mark, a sizing signal for
    /// `EventQueue::with_capacity`).
    pub(crate) peak_events: usize,
    /// Boots served from the dedup cache instead of simulated (see
    /// [`SweepSpec::dedup`]).
    pub(crate) deduped: usize,
}

/// Why a job produced no samples. The workspace-level
/// [`bb_core::JobError`], re-exported under the historical fleet name.
pub use bb_core::JobError as FailureKind;

/// Per-worker observability counters.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: usize,
    /// Wall-clock time spent executing jobs.
    pub busy: Duration,
}

/// Pool-level observability for the sweep summary. Host-time based and
/// therefore *never* part of the deterministic JSON output.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Worker thread count.
    pub workers: usize,
    /// Wall-clock duration of the whole sweep (submit to finalize).
    pub wall: Duration,
    /// Jobs executed (completed + failed).
    pub jobs: usize,
    /// Maximum service work-queue depth observed while this sweep's
    /// jobs were completing (at least this sweep's own job count).
    pub max_queue_depth: usize,
    /// Supervised respawns observed across all boots. Always 0 for
    /// fault-free sweeps; chaos sweeps count every `Restart=` respawn.
    pub restarts: usize,
    /// Kernel-phase simulations executed across all completed jobs:
    /// one per simulated boot, so boots served from the dedup cache
    /// are not counted.
    pub kernel_sims: usize,
    /// Deepest simulator event queue observed across all completed
    /// boots. Deterministic (simulated state, not host time), but kept
    /// out of the JSON report so sweep documents stay byte-stable
    /// across simulator sizing changes.
    pub peak_events: usize,
    /// Boots served from the dedup cache instead of simulated (see
    /// [`SweepSpec::dedup`]). Like everything in `PoolStats` this is
    /// execution observability, not part of the JSON report: racing
    /// workers may simulate a grid point twice, so the count can vary
    /// run to run even though the report never does.
    pub cells_deduped: usize,
    /// Artifact recoveries across all boots (retried reads included).
    /// Always 0 for sweeps without a corruption axis; see
    /// [`bb_core::recovery`].
    pub recoveries: usize,
    /// Artifacts the integrity chain rejected outright (subset of
    /// `recoveries`): corrupt, stale, or unreadable.
    pub artifacts_rejected: usize,
    /// Per-worker counters, snapshotted when this sweep finalized.
    /// On a long-lived service these are service-lifetime totals, not
    /// per-ticket ones.
    pub per_worker: Vec<WorkerStats>,
}

impl PoolStats {
    /// Jobs per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.jobs as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of the sweep wall time worker `w` spent executing jobs.
    pub fn utilization(&self, w: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.per_worker[w].busy.as_secs_f64() / wall
        } else {
            0.0
        }
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool: {} workers, {} jobs in {:.3}s ({:.1} jobs/s), peak queue depth {}",
            self.workers,
            self.jobs,
            self.wall.as_secs_f64(),
            self.jobs_per_sec(),
            self.max_queue_depth,
        );
        if self.peak_events > 0 {
            let _ = writeln!(
                out,
                "  peak simulator event-queue depth {}",
                self.peak_events
            );
        }
        if self.kernel_sims > 0 {
            let _ = writeln!(out, "  kernel phase simulated {} time(s)", self.kernel_sims);
        }
        if self.cells_deduped > 0 {
            let _ = writeln!(
                out,
                "  {} boot(s) deduplicated (identical grid points served from cache)",
                self.cells_deduped,
            );
        }
        if self.recoveries > 0 {
            let _ = writeln!(
                out,
                "  {} artifact recover(ies), {} artifact(s) rejected by the integrity chain",
                self.recoveries, self.artifacts_rejected,
            );
        }
        for (w, ws) in self.per_worker.iter().enumerate() {
            let _ = writeln!(
                out,
                "  worker {w}: {} jobs, {:.0}% utilized",
                ws.jobs,
                100.0 * self.utilization(w),
            );
        }
        out
    }
}

/// Everything a sweep returns: the deterministic report and the
/// host-time pool statistics.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Aggregated, deterministic results (JSON-stable).
    pub report: SweepReport,
    /// Pool observability (host-time, nondeterministic).
    pub stats: PoolStats,
}

/// Runs `spec` to completion on a private [`crate::FleetService`] of
/// `pool.workers` threads, over the given [`FleetCache`].
///
/// Pass [`FleetCache::fresh`] for a private per-call cache, or hold one
/// `Arc<FleetCache>` across calls to carry deduplicated boot outcomes
/// between sweeps. Reports are unaffected by cache state — a warm cache
/// only changes how much work the sweep skips (visible in
/// [`PoolStats`]).
///
/// The aggregated report is byte-identical for any worker count: result
/// slots are addressed by flat job index and finalized in slot order,
/// and nothing host-time-dependent enters the report. Long-lived
/// callers wanting `submit`/`poll`/`cancel` and cross-client sharing
/// should hold a [`crate::FleetService`] instead.
pub fn run_sweep(spec: &SweepSpec, pool: &PoolConfig, cache: &Arc<FleetCache>) -> SweepOutcome {
    match run_one_shot(WorkItem::Sweep(spec.clone()), pool, Arc::clone(cache)) {
        ServiceReport::Sweep(outcome) => outcome,
        ServiceReport::Chaos(_) => unreachable!("sweep tickets finalize into sweep reports"),
    }
}

/// A ticket's expanded grid, shared with the workers: the spec, its job
/// list (a job's position is its slot index), the order the jobs run
/// in, the boot strategy the ticket kind selects, and the ticket's
/// scenario share.
pub(crate) struct Plan {
    pub(crate) spec: SweepSpec,
    /// Chaos tickets boot every job supervised under its fault and
    /// corruption slots; sweep tickets boot fault-free through the
    /// dedup cache.
    pub(crate) chaos: bool,
    pub(crate) jobs: Vec<Job>,
    /// The order the service queues the jobs in: flat order, except
    /// that the jobs sharing a fingerprint follow the first of them.
    /// Workers pop in this order, so a share is built by the first job
    /// of its run and released by the last, and a ticket holds at most
    /// one built scenario per job in flight, plus one.
    pub(crate) order: Vec<usize>,
    /// Each job's fingerprint, index-aligned with `jobs`.
    fps: Vec<u64>,
    /// One entry per fingerprint two or more of this ticket's jobs
    /// boot: the jobs yet to release it, and the scenario once built.
    share: Mutex<HashMap<u64, Share>>,
}

/// One fingerprint's entry in a ticket's scenario share. The first job
/// to need the scenario builds it; a job racing it waits for that build
/// instead of repeating it.
#[derive(Default)]
struct Share {
    uses: usize,
    built: Arc<OnceLock<(Arc<Scenario>, PreParser)>>,
}

impl Plan {
    pub(crate) fn new(item: WorkItem) -> Self {
        let (spec, chaos) = match item {
            WorkItem::Sweep(spec) => (spec, false),
            WorkItem::Chaos(spec) => (spec, true),
        };
        let jobs = spec.jobs();
        let cell_fps: Vec<_> = spec.cells.iter().map(cell_fingerprint).collect();
        let fps: Vec<u64> = jobs
            .iter()
            .map(|job| {
                let (base, seed_dependent) = cell_fps[job.cell];
                let seed = spec.cells[job.cell].seeds[job.seed_idx];
                job_fingerprint(base, seed_dependent, seed)
            })
            .collect();
        let mut first = HashMap::new();
        let mut share = HashMap::<_, Share>::new();
        for (index, &fp) in fps.iter().enumerate() {
            first.entry(fp).or_insert(index);
            share.entry(fp).or_default().uses += 1;
        }
        share.retain(|_, s| s.uses >= 2);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&index| first[&fps[index]]);
        Plan {
            jobs,
            spec,
            chaos,
            order,
            fps,
            share: Mutex::new(share),
        }
    }

    /// Executes job `index` with panic isolation and the post-hoc
    /// wall-clock deadline check, then releases its scenario share.
    pub(crate) fn run_job(
        &self,
        index: usize,
        cache: &FleetCache,
        builder: &mut bb_sim::MachineBuilder,
    ) -> Result<JobOutput, FailureKind> {
        let job = self.jobs[index];
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self.chaos {
                let (scenario, pre) = self.scenario(index);
                crate::chaos::boot_job(&self.spec.cells[job.cell], job, &scenario, &pre)
            } else {
                self.boot_shared(index, cache, builder)
            }
        }));
        let elapsed = started.elapsed();
        self.release(index);
        let out = outcome.map_err(|payload| FailureKind::Panic(panic_message(payload)))??;
        match self.spec.deadline {
            Some(deadline) if elapsed > deadline => Err(FailureKind::DeadlineExceeded { elapsed }),
            _ => Ok(out),
        }
    }

    /// The scenario job `index` boots, and its Pre-parser: from the
    /// ticket share if its fingerprint has one (built there by the
    /// first job to ask), else built for this job alone.
    fn scenario(&self, index: usize) -> (Arc<Scenario>, PreParser) {
        let job = self.jobs[index];
        let cell = &self.spec.cells[job.cell];
        let build = || job_scenario(cell, cell.seeds[job.seed_idx]);
        let shared = lock(&self.share)
            .get(&self.fps[index])
            .map(|s| Arc::clone(&s.built));
        match shared {
            Some(built) => built.get_or_init(build).clone(),
            None => build(),
        }
    }

    /// Releases job `index`'s use of its share; the last use drops it.
    fn release(&self, index: usize) {
        if let Entry::Occupied(mut entry) = lock(&self.share).entry(self.fps[index]) {
            entry.get_mut().uses -= 1;
            if entry.get().uses == 0 {
                entry.remove();
            }
        }
    }

    /// Drops the whole share when the ticket finalizes or is cancelled;
    /// a job still in flight keeps the scenario it already holds.
    pub(crate) fn drop_share(&self) {
        lock(&self.share).clear();
    }

    /// The sweep strategy: replays every config the dedup cache holds
    /// and boots the rest from the job's scenario, materialized on the
    /// first miss.
    fn boot_shared(
        &self,
        index: usize,
        cache: &FleetCache,
        builder: &mut bb_sim::MachineBuilder,
    ) -> Result<JobOutput, FailureKind> {
        let spec = &self.spec;
        let job = self.jobs[index];
        let cell = &spec.cells[job.cell];
        if cell.plan_seeds[job.plan_idx].is_some()
            || cell.corruption_seeds[job.corr_idx].is_some()
            || cell.supervision.is_some()
        {
            return Err(FailureKind::Boost(
                "fault axes and supervision need a chaos ticket".into(),
            ));
        }
        let fp = self.fps[index];
        let mut built = None;
        let mut out = JobOutput {
            samples: Vec::with_capacity(cell.configs.len()),
            ..JobOutput::default()
        };
        for (label, cfg) in &cell.configs {
            // Dedup first: an identical grid point that already ran
            // anywhere (an earlier config of this job included) replays
            // its deterministic outcome.
            let hit = (spec.dedup)
                .then(|| cache.boot_lookup(fp, cfg.bits(), spec.metrics))
                .flatten();
            match hit {
                Some(CachedBoot::Incomplete) => {
                    return Err(FailureKind::Incomplete {
                        config: label.clone(),
                    })
                }
                Some(CachedBoot::Done {
                    boot_ns,
                    peak_events,
                    spans,
                }) => {
                    out.samples.push(BootSample {
                        boot_ns,
                        spans: spans.filter(|_| spec.metrics),
                        ..BootSample::default()
                    });
                    out.peak_events = out.peak_events.max(peak_events);
                    out.deduped += 1;
                    continue;
                }
                None => {}
            }
            let (scenario, pre) = &*built.get_or_insert_with(|| self.scenario(index));
            out.kernel_sims += 1;
            let boot = BootRequest::new(scenario)
                .config(*cfg)
                .prepared(pre)
                .machine_builder(&mut *builder)
                .run()
                .map_err(|e| FailureKind::Boost(e.to_string()))?;
            let peak = boot.machine.event_queue_stats().peak_depth;
            out.peak_events = out.peak_events.max(peak);
            builder.recycle(boot.machine);
            let report = boot.report;
            // A boot that never met its completion definition is a
            // reported failure, not a worker panic (`try_boot_time`).
            let Some(boot_time) = report.try_boot_time() else {
                if spec.dedup {
                    cache.boot_insert(fp, cfg.bits(), CachedBoot::Incomplete);
                }
                return Err(FailureKind::Incomplete {
                    config: label.clone(),
                });
            };
            let spans: Option<Vec<(String, u64)>> = spec.metrics.then(|| {
                bb_core::boot_spans(&report)
                    .into_iter()
                    .map(|s| (s.name, s.end.since(s.start).as_nanos()))
                    .collect()
            });
            if spec.dedup {
                cache.boot_insert(
                    fp,
                    cfg.bits(),
                    CachedBoot::Done {
                        boot_ns: boot_time.as_nanos(),
                        peak_events: peak,
                        spans: spans.clone(),
                    },
                );
            }
            out.samples.push(BootSample {
                boot_ns: boot_time.as_nanos(),
                spans,
                ..BootSample::default()
            });
        }
        Ok(out)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CellSpec;
    use bb_core::BbConfig;
    use bb_workloads::{profiles, TizenParams};

    fn tiny_spec(seeds: impl IntoIterator<Item = u64>) -> SweepSpec {
        SweepSpec::new().cell(
            CellSpec::tizen(
                "tiny",
                profiles::ue48h6200(),
                TizenParams {
                    services: 24,
                    ..TizenParams::open_source()
                },
            )
            .seeds(seeds)
            .conventional_vs_bb(),
        )
    }

    #[test]
    fn sweep_completes_and_counts_jobs() {
        let spec = tiny_spec([1, 2, 3]);
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
        assert_eq!(outcome.stats.jobs, 3);
        assert_eq!(outcome.stats.workers, 2);
        assert_eq!(outcome.report.total_boots, 6);
        assert!(outcome.report.failures.is_empty());
        let jobs_done: usize = outcome.stats.per_worker.iter().map(|w| w.jobs).sum();
        assert_eq!(jobs_done, 3);
        assert!(outcome.stats.summary().contains("pool: 2 workers"));
        // The event-queue high-water mark made it up from the machines.
        assert!(outcome.stats.peak_events > 0);
        assert!(outcome
            .stats
            .summary()
            .contains("peak simulator event-queue depth"));
    }

    #[test]
    fn zero_deadline_fails_every_job_but_sweep_survives() {
        let spec = tiny_spec([1, 2]).deadline(Duration::ZERO);
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
        assert_eq!(outcome.report.failures.len(), 2);
        assert_eq!(outcome.report.total_boots, 0);
        assert!(outcome
            .report
            .failures
            .iter()
            .all(|f| f.reason == "deadline exceeded"));
    }

    /// A sweep ticket boots fault-free: a slot on an armed fault axis
    /// fails instead of silently booting as a repeat of the pristine
    /// slot.
    #[test]
    fn sweep_tickets_fail_slots_on_armed_fault_axes() {
        let mut spec = tiny_spec([1]);
        spec.cells[0] = spec.cells[0].clone().fault_plans(1, 100);
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
        assert_eq!(
            outcome.report.cells[0].completed, 1,
            "the control slot boots"
        );
        assert_eq!(outcome.report.total_boots, 2);
        assert_eq!(outcome.report.failures.len(), 1);
        assert_eq!(
            outcome.report.failures[0].reason,
            "boost: fault axes and supervision need a chaos ticket"
        );
    }

    #[test]
    fn incomplete_boot_is_a_reported_failure_not_a_panic() {
        use bb_init::ServiceBody;
        use bb_sim::{FlagId, Op};
        use bb_workloads::tv_scenario_with;

        let mut scenario = tv_scenario_with(
            profiles::ue48h6200(),
            TizenParams {
                services: 24,
                ..TizenParams::open_source()
            },
        );
        // Deadlock the completion unit: its body waits on the
        // boot-complete gate (flag 0, the first flag the executor
        // creates), which in turn waits on this unit's readiness. With
        // no start timeout the boot can never complete.
        let name = scenario.completion[0].clone();
        let exec = scenario
            .units
            .iter()
            .find(|u| u.name == name)
            .and_then(|u| u.exec.exec_start.clone())
            .expect("completion unit has an ExecStart");
        std::sync::Arc::make_mut(&mut scenario.workloads).insert(
            exec,
            ServiceBody {
                pre_ready: vec![Op::WaitFlag(FlagId::from_raw(0))],
                post_ready: Vec::new(),
            },
        );

        let spec = SweepSpec::new().cell(
            CellSpec::fixed("hung", scenario)
                .seeds([0, 1])
                .conventional_vs_bb(),
        );
        let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
        assert_eq!(outcome.report.total_boots, 0);
        assert_eq!(outcome.report.failures.len(), 2);
        assert!(outcome
            .report
            .failures
            .iter()
            .all(|f| f.reason == "incomplete boot: conventional"));
    }

    /// `SweepSpec::fork` is accepted and changes nothing: the fleet
    /// boots every config plain, so a forked sweep reports the same
    /// bytes and simulates the kernel once per boot, also where two
    /// configs share a kernel prefix.
    #[test]
    fn fork_is_accepted_and_boots_every_config_plain() {
        // Full BB vs BB-without-bb_group boot the same kernel prefix.
        let shared_prefix = tiny_spec([1, 2]).cell(
            CellSpec::tizen(
                "tiny",
                profiles::ue48h6200(),
                TizenParams {
                    services: 24,
                    ..TizenParams::open_source()
                },
            )
            .seeds([1, 2])
            .config("bb", BbConfig::full())
            .config(
                "bb-no-group",
                BbConfig {
                    bb_group: false,
                    ..BbConfig::full()
                },
            ),
        );
        let pool = PoolConfig::with_workers(1);
        let plain = run_sweep(&shared_prefix, &pool, &FleetCache::fresh());
        let forked = run_sweep(
            &shared_prefix.clone().with_fork(true),
            &pool,
            &FleetCache::fresh(),
        );
        assert_eq!(plain.report.to_json(), forked.report.to_json());
        // 2 seeds x {conventional, full, full without bb_group}; the
        // second cell's full-BB boots are served by the first's.
        assert_eq!(plain.stats.kernel_sims, 6);
        assert_eq!(forked.stats.kernel_sims, 6);
        assert_eq!(forked.stats.cells_deduped, 2);
    }

    /// Two configs of one job with the same feature bits (what
    /// `sweep --features none` builds: conventional vs an all-off
    /// "bb") simulate once: the second is served by the outcome the
    /// first just cached.
    #[test]
    fn a_job_dedups_its_own_repeated_configs() {
        let spec = SweepSpec::new().cell(
            CellSpec::tizen(
                "tiny",
                profiles::ue48h6200(),
                TizenParams {
                    services: 24,
                    ..TizenParams::open_source()
                },
            )
            .seeds([1, 2])
            .config("conventional", BbConfig::conventional())
            .config("bb", BbConfig::conventional()),
        );
        let pool = PoolConfig::with_workers(1);
        let deduped = run_sweep(&spec, &pool, &FleetCache::fresh());
        assert_eq!(deduped.stats.jobs, 2);
        assert_eq!(deduped.stats.kernel_sims, 2);
        assert_eq!(deduped.stats.cells_deduped, 2);
        let plain = run_sweep(&spec.clone().with_dedup(false), &pool, &FleetCache::fresh());
        assert_eq!(plain.stats.kernel_sims, 4);
        assert_eq!(deduped.report.to_json(), plain.report.to_json());
    }

    #[test]
    fn pool_config_default_is_at_least_one_worker() {
        assert!(PoolConfig::default().workers >= 1);
        assert_eq!(PoolConfig::with_workers(0).workers, 1);
    }

    /// The acceptance property of grid dedup: identical grid points are
    /// simulated once, results fan out, and the JSON report is
    /// byte-identical with dedup on or off.
    #[test]
    fn dedup_serves_identical_grid_points_once_and_keeps_json_identical() {
        // Two cells with the same source and seeds: the whole second
        // cell duplicates the first.
        let spec = SweepSpec::new()
            .cell(
                CellSpec::tizen(
                    "a",
                    profiles::ue48h6200(),
                    TizenParams {
                        services: 24,
                        ..TizenParams::open_source()
                    },
                )
                .seeds([1, 2])
                .conventional_vs_bb(),
            )
            .cell(
                CellSpec::tizen(
                    "b",
                    profiles::ue48h6200(),
                    TizenParams {
                        services: 24,
                        ..TizenParams::open_source()
                    },
                )
                .seeds([1, 2])
                .conventional_vs_bb(),
            );
        // One worker makes the dedup count deterministic: each seed's
        // cell-a job runs first, so cell b's 4 boots are all cache hits.
        let deduped = run_sweep(&spec, &PoolConfig::with_workers(1), &FleetCache::fresh());
        let plain = run_sweep(
            &spec.clone().with_dedup(false),
            &PoolConfig::with_workers(2),
            &FleetCache::fresh(),
        );
        assert_eq!(deduped.report.to_json(), plain.report.to_json());
        assert_eq!(plain.stats.cells_deduped, 0);
        assert_eq!(deduped.stats.cells_deduped, 4);
        assert_eq!(deduped.stats.kernel_sims, 4, "only cell a simulates");
        assert!(deduped.stats.summary().contains("deduplicated"));
    }

    /// A caller-owned cache carries boot outcomes across sweeps: an
    /// identical second sweep simulates nothing and reports the same
    /// bytes.
    #[test]
    fn a_shared_fleet_cache_carries_results_across_sweeps() {
        let spec = tiny_spec([1]);
        let pool = PoolConfig::with_workers(1);
        let cache = FleetCache::fresh();
        let first = run_sweep(&spec, &pool, &cache);
        let second = run_sweep(&spec, &pool, &cache);
        assert_eq!(first.report.to_json(), second.report.to_json());
        assert_eq!(first.stats.cells_deduped, 0);
        assert_eq!(second.stats.cells_deduped, 2);
        assert_eq!(second.stats.kernel_sims, 0);
        cache.clear();
        let third = run_sweep(&spec, &pool, &cache);
        assert_eq!(third.stats.cells_deduped, 0, "clear() really clears");
    }

    /// The ticket share lives exactly as long as the jobs that use it:
    /// two cells over one source share each seed's scenario, and once
    /// every job ran — completed or past its deadline — the share is
    /// empty again.
    #[test]
    fn the_ticket_share_empties_when_its_jobs_end() {
        for deadline in [None, Some(Duration::ZERO)] {
            let mut spec = tiny_spec([1, 2]);
            spec.cells.push(spec.cells[0].clone());
            spec.deadline = deadline;
            let plan = Plan::new(WorkItem::Sweep(spec));
            assert_eq!(lock(&plan.share).len(), 2, "one entry per seed");
            assert_eq!(
                plan.order,
                [0, 2, 1, 3],
                "each seed's jobs run back to back"
            );
            let cache = FleetCache::default();
            let mut builder = bb_sim::MachineBuilder::new();
            let mut results = vec![plan.run_job(0, &cache, &mut builder)];
            {
                let share = lock(&plan.share);
                let first = &share[&plan.fps[0]];
                assert_eq!(first.uses, 1, "job 0 released its use");
                assert!(
                    first.built.get().is_some(),
                    "and left the scenario for job 2"
                );
            }
            results.extend(
                plan.order[1..]
                    .iter()
                    .map(|&i| plan.run_job(i, &cache, &mut builder)),
            );
            assert!(lock(&plan.share).is_empty(), "{deadline:?}");
            assert_eq!(
                results.iter().filter(|r| r.is_ok()).count(),
                if deadline.is_some() { 0 } else { 4 }
            );
        }
    }

    /// A chaos ticket's seed axis is innermost, so in flat order every
    /// seed's scenario would stay built until the last plan and
    /// corruption slot reached it. In the plan's order one worker holds
    /// at most one built scenario, however many seeds the grid has.
    #[test]
    fn a_ticket_holds_one_built_scenario_per_job_in_flight() {
        let spec = SweepSpec::new().cell(
            CellSpec::tizen(
                "tiny",
                profiles::ue48h6200(),
                TizenParams {
                    services: 24,
                    ..TizenParams::open_source()
                },
            )
            .seeds(1..=8)
            .fault_plans(2, 100)
            .corruption_plans(1, 200)
            .supervision(Some(Default::default()))
            .conventional_vs_bb(),
        );
        let plan = Plan::new(WorkItem::Chaos(spec));
        assert_eq!(plan.jobs.len(), 8 * 3 * 2);
        assert_eq!(lock(&plan.share).len(), 8, "one entry per seed");
        let cache = FleetCache::default();
        let mut builder = bb_sim::MachineBuilder::new();
        let mut peak = 0;
        for &index in &plan.order {
            plan.run_job(index, &cache, &mut builder)
                .expect("chaos boots complete");
            let share = lock(&plan.share);
            peak = peak.max(share.values().filter(|s| s.built.get().is_some()).count());
        }
        assert_eq!(peak, 1);
        assert!(lock(&plan.share).is_empty());
    }

    /// A metrics sweep must not be served span-less outcomes cached by
    /// a metrics-off sweep — it re-simulates and upgrades the entry.
    #[test]
    fn metrics_sweeps_do_not_reuse_spanless_cached_boots() {
        let spec = tiny_spec([1]);
        let pool = PoolConfig::with_workers(1);
        let cache = FleetCache::fresh();
        run_sweep(&spec, &pool, &cache);
        let with_metrics = run_sweep(&spec.clone().with_metrics(true), &pool, &cache);
        assert_eq!(with_metrics.stats.cells_deduped, 0);
        assert!(with_metrics.report.metrics.is_some());
        // The upgraded entries now serve metrics sweeps.
        let again = run_sweep(&spec.clone().with_metrics(true), &pool, &cache);
        assert_eq!(again.stats.cells_deduped, 2);
        assert_eq!(
            with_metrics.report.to_json(),
            again.report.to_json(),
            "cached boots replay byte-identically"
        );
        assert_eq!(
            with_metrics.report.metrics.as_ref().map(|m| m.to_json()),
            again.report.metrics.as_ref().map(|m| m.to_json()),
            "cached spans replay byte-identically"
        );
    }
}
