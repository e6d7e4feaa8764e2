//! # bb-fleet — boot-simulation sweep engine and fleet service
//!
//! The evaluation sections of the paper (and this repo's EXPERIMENTS.md)
//! are built from *sweeps*: thousands of independent boot simulations
//! across seeds, workload parameters, machine profiles, and
//! [`bb_core::BbConfig`] feature sets. Serially those dominate
//! experiment turnaround; bb-fleet executes them on a persistent
//! work-queue service while keeping the one property the experiments
//! depend on — **deterministic output**.
//!
//! * [`spec`] — [`SweepSpec`]: one grid of cells for sweeps and chaos
//!   runs alike, each cell a scenario source × seed list × config list
//!   plus fault-plan and corruption axes and a supervision overlay. One
//!   job boots every config of one `(cell, plan, corruption, seed)`
//!   slot, sharing one generated scenario and one [`bb_core::PreParser`]
//!   measurement across the config axis. A plain sweep is the grid with
//!   both failure axes at their pristine slot; [`ChaosSpec`] is the
//!   same type.
//! * [`service`] — [`FleetService`]: the persistent executor. Long-lived
//!   workers, a central bounded work queue with per-client round-robin
//!   fairness, `submit`/`poll`/`wait`/`cancel` tickets, per-client
//!   quotas, and one service-wide [`FleetCache`] of boot outcomes every
//!   sweep ticket shares. The ticket kind ([`WorkItem`]) picks the boot
//!   strategy. This is what `bbsim serve` runs.
//! * [`pool`] — the one job runner (per-job panic isolation, wall-clock
//!   deadlines, failures), the ticket's scenario share (one scenario per
//!   fingerprint two of its jobs boot, whose jobs run back to back and
//!   the last of which drops it), the
//!   sweep strategy — dedup first ([`SweepSpec::dedup`]), then a plain
//!   boot of every config the cache missed — the one-shot entry point
//!   [`run_sweep`],
//!   and the observability counters ([`PoolStats`]).
//! * [`aggregate`] — the slot store every ticket streams results into,
//!   addressed by flat job index and finalized in slot order, and the
//!   sweep report: count/mean/stddev/min/max and nearest-rank
//!   p50/p95/p99 per (cell, config), savings vs the cell's
//!   `"conventional"` config, baseline-comparison mode against a saved
//!   report (schema `bb-fleet-v1`), and — when
//!   [`SweepSpec::with_metrics`] is on — per-span telemetry percentiles
//!   as a [`MetricsReport`] (`bb-metrics-v1`).
//! * [`chaos`] — [`run_chaos`]: the chaos strategy, booting every job's
//!   shared scenario through the supervised
//!   [`bb_core::run_with_fallback_recovering`]
//!   boot, and its report: recovery rate, restart counts,
//!   degraded-boot rate, artifact rejection rates, recovery-cost
//!   percentiles, and boot-time-under-fault percentiles (schema
//!   `bb-fleet-chaos-v2`).
//! * [`json`] — the hand-rolled JSON codec (same auditable-codec policy
//!   as `bb-init::preparse`; DESIGN.md §4 keeps serde out), the one
//!   array-row writer every report emitter uses, and the schema
//!   constants every emitter stamps its document with via
//!   [`json::open_document`].
//!
//! The aggregated report — including its JSON serialization — is
//! byte-identical for any worker count, any cache state, and any
//! interleaving of concurrent clients: results land in slots addressed
//! by flat job index, statistics are computed in slot order at
//! finalize, and nothing host-time-dependent (worker timings, queue
//! depths) enters the report. Pool observability lives separately in
//! [`PoolStats`] and [`ServiceStats`].
//!
//! ```
//! use bb_fleet::{CellSpec, FleetCache, PoolConfig, SweepSpec, run_sweep};
//! use bb_workloads::{profiles, TizenParams};
//!
//! let spec = SweepSpec::new().cell(
//!     CellSpec::tizen(
//!         "open-source",
//!         profiles::ue48h6200(),
//!         TizenParams { services: 24, ..TizenParams::open_source() },
//!     )
//!     .seeds(0..4)
//!     .conventional_vs_bb(),
//! );
//! let outcome = run_sweep(&spec, &PoolConfig::with_workers(2), &FleetCache::fresh());
//! assert_eq!(outcome.report.total_boots, 8);
//! println!("{}", outcome.report.summary());
//! println!("{}", outcome.stats.summary());
//! ```

pub mod aggregate;
pub mod chaos;
pub mod json;
pub mod pool;
pub mod service;
pub mod spec;

pub use aggregate::{
    diff_baseline_json, CellMetrics, CellReport, ConfigMetrics, ConfigStats, DiffEntry,
    DiffVerdict, FailureReport, MetricsReport, SpanStats, SweepReport,
};
pub use chaos::{run_chaos, ChaosConfigStats, ChaosEvent, ChaosFailure, ChaosOutcome, ChaosReport};
pub use json::{parse as parse_json, Json, JsonError};
pub use pool::{
    run_sweep, FailureKind, FleetCache, PoolConfig, PoolStats, SweepOutcome, WorkerStats,
};
pub use service::{
    ClientId, FleetService, ServiceConfig, ServiceReport, ServiceStats, SubmitError, TicketId,
    TicketStatus, WaitError, WorkItem,
};
pub use spec::{CellSpec, ChaosSpec, Job, ScenarioSource, Supervision, SweepSpec};
