//! `cold-plan-large`: one client looping cold boots of a 4000-service
//! TV scenario. Every boot generates a new scenario, builds a new
//! Pre-parser and compiles a new plan; configurations alternate between
//! conventional and full BB, two boots per scenario seed. No fleet,
//! serve, snapshot or cache is involved.

use std::hint::black_box;
use std::time::Instant;

use bb_core::pipeline::{self, Pipeline};
use bb_core::{BbConfig, BootRequest, PreParser, Scenario};
use bb_init::{Transaction, UnitGraph};
use bb_workloads::{profiles, tv_scenario, tv_scenario_with, TizenParams};

use crate::metrics::{self, Outcome};
use crate::trace::{Recorder, SpanId};
use crate::{splitmix, RunCfg};

/// Services per generated scenario.
pub const SERVICES: usize = 4000;
/// Boots a run must time before it may stop, so that the reported p75
/// has ten samples beyond it.
const MIN_BOOTS: usize = 40;
/// Traced boots a traced run must record (a p50 of every layer).
const MIN_TRACED: usize = 20;
/// Boots at the start of a traced run whose work counters must repeat
/// exactly.
const COUNTED: usize = 4;
/// In a traced run, every `UNTRACED_EVERY`-th boot runs untraced as the
/// end-to-end reference the layers reconcile against.
const UNTRACED_EVERY: usize = 4;

/// Scenario seed of boot pair `pair`.
pub fn pair_seed(seed: u64, pair: u64) -> u64 {
    splitmix(seed ^ splitmix(pair))
}

fn scenario(seed: u64) -> Scenario {
    tv_scenario_with(
        profiles::ue48h6200(),
        TizenParams {
            services: SERVICES,
            seed,
            ..TizenParams::default()
        },
    )
}

/// The configuration of the `i`-th boot: conventional, then full BB.
fn config(i: usize) -> BbConfig {
    if i.is_multiple_of(2) {
        BbConfig::conventional()
    } else {
        BbConfig::full()
    }
}

/// Simulated result of one boot: boot and quiesce time (ns).
type BootTimes = Option<(u64, u64)>;

/// One untraced cold boot, exactly as a user runs it.
fn cold_boot(seed: u64, cfg: BbConfig) -> Result<BootTimes, String> {
    let s = scenario(seed);
    let pre = PreParser::build(&s.units);
    let boot = BootRequest::new(&s)
        .config(cfg)
        .prepared(&pre)
        .run()
        .map_err(|e| e.to_string())?;
    let r = &boot.report;
    Ok(black_box(
        r.try_boot_time()
            .map(|t| (t.as_nanos(), r.quiesce_time.as_nanos())),
    ))
}

/// Work counters of one traced boot.
struct Counted {
    times: BootTimes,
    events: u64,
    peak_depth: usize,
}

/// One traced cold boot: the same calls `BootRequest::run` makes, each
/// wrapped in its layer's span, then the plan split probed.
fn traced_boot(
    rec: &mut Recorder,
    request: u64,
    seed: u64,
    cfg: BbConfig,
) -> Result<Counted, String> {
    let root = rec.open("op", None, request);
    let (_, s) = rec.span("scenario", root, || scenario(seed));
    let (_, pre) = rec.span("preparse", root, || PreParser::build(&s.units));
    let (plan_id, planned) = rec.span("plan.passes", root, || {
        Pipeline::standard().plan(&s, &cfg, Some(&pre))
    });
    let (ir, deltas) = planned.map_err(|e| e.to_string())?;
    let (_, (report, machine)) = rec.span("execute", root, || pipeline::execute(&ir, deltas));
    rec.close(root);
    probe_plan(rec, plan_id, &s)?;
    let q = machine.event_queue_stats();
    Ok(Counted {
        times: report
            .try_boot_time()
            .map(|t| (t.as_nanos(), report.quiesce_time.as_nanos())),
        events: q.scheduled,
        peak_depth: q.peak_depth,
    })
}

/// Splits plan compile: re-runs graph build, transaction build and
/// ordering on `s` as probes of `parent` (which must cover exactly one
/// `Pipeline::plan` of `s`).
pub fn probe_plan(rec: &mut Recorder, parent: SpanId, s: &Scenario) -> Result<(), String> {
    let (_, graph) = rec.probe("plan.graph", parent, || UnitGraph::build(s.units.clone()));
    let graph = graph.map_err(|e| e.to_string())?;
    let (_, txn) = rec.probe("plan.transaction", parent, || {
        Transaction::build(&graph, &s.target)
    });
    let txn = txn.map_err(|e| e.to_string())?;
    let (_, order) = rec.probe("plan.order", parent, || txn.execution_order(&graph));
    black_box(order);
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: one warm boot, repeated; its median is `setup_s`.
    let mut setups = Vec::new();
    for r in 0..if cfg.trace { 1 } else { metrics::SETUPS as u64 } {
        let t = Instant::now();
        cold_boot(pair_seed(cfg.seed, u64::MAX - r), BbConfig::full())?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut rec = Recorder::new();
    let mut latencies = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut kernel = Vec::new();
    let mut times: Vec<BootTimes> = Vec::new();
    let (mut events, mut peak, mut counted_digest) = (0u64, 0usize, 0u64);
    let (mut all_events, mut traced) = (0u64, 0usize);
    let ticks = metrics::CpuTicks::now();
    let started = Instant::now();
    let cap = cfg.seconds * 3;
    loop {
        let i = times.len();
        let elapsed = started.elapsed();
        let enough = if cfg.trace {
            traced >= MIN_TRACED
        } else {
            latencies.len() >= MIN_BOOTS
        };
        // Stop between pairs, so every seed has both configurations.
        if i.is_multiple_of(2) && ((elapsed >= cfg.seconds && enough) || elapsed >= cap) {
            break;
        }
        let seed = pair_seed(cfg.seed, (i / 2) as u64);
        if !cfg.trace {
            kernel.push(metrics::kernel_ms());
        }
        out.attempted += 1;
        let t = Instant::now();
        let result = if cfg.trace && i % UNTRACED_EVERY != UNTRACED_EVERY - 1 {
            traced_boot(&mut rec, i as u64, seed, config(i)).map(|c| {
                traced += 1;
                all_events += c.events;
                if traced <= COUNTED {
                    events += c.events;
                    peak = peak.max(c.peak_depth);
                    let (b, q) = c.times.unwrap_or((0, 0));
                    for x in [b, q, c.events] {
                        counted_digest = metrics::digest(counted_digest, &x.to_le_bytes());
                    }
                }
                c.times
            })
        } else {
            let r = cold_boot(seed, config(i));
            if cfg.trace {
                untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            r
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(Some(bt)) => {
                latencies.push(ms);
                times.push(Some(bt));
            }
            Ok(None) => {
                out.fail(format!("boot {i} (seed {seed}) never completed"));
                times.push(None);
            }
            Err(e) => {
                out.fail(format!("boot {i} (seed {seed}): {e}"));
                times.push(None);
            }
        }
    }
    let elapsed = started.elapsed();
    let stolen = metrics::stolen_since(ticks);

    check_outputs(&mut out, &times, cfg.seed);

    if cfg.trace {
        let (layers_ns, root_ns) = metrics::layer_metrics(&rec, &mut out, &["op"]);
        let per = |ns: u64| ns as f64 / 1e6 / traced.max(1) as f64;
        let reference = untraced_ms.iter().sum::<f64>() / untraced_ms.len().max(1) as f64;
        let root_self = per(root_ns) - per(layers_ns);
        metrics::reconcile(
            &mut out,
            per(layers_ns),
            reference,
            &[
                ("time inside the traced boot between layer calls", root_self),
                (
                    "traced boot vs untraced BootRequest::run",
                    reference - per(root_ns),
                ),
            ],
        );
        let exec_s = metrics::layer_seconds(&rec, "execute");
        out.set("sim.events", events as f64, "count");
        out.set("sim.peak_depth", peak as f64, "count");
        out.set(
            "sim.events_per_s",
            if exec_s > 0.0 {
                all_events as f64 / exec_s
            } else {
                0.0
            },
            "1/s",
        );
        out.set(
            "report.digest",
            metrics::digest_value(counted_digest),
            "hash",
        );
        out.set("trace.requests", traced as f64, "count");
        metrics::overhead(&mut out, &rec, root_ns);
        out.set_zero(&[
            "snapshot.bytes",
            "plan_cache.compiled",
            "plan_cache.hits",
            "plan_cache.hit_ratio",
            "recovery.events",
            "recovery.rejected",
            "fallback.degraded_frac",
            "fleet.worker.busy_frac",
            "fleet.kernel_sims",
            "fleet.dedup_ratio",
            "fleet.queue_peak",
            "fleet.plan_cache_hits",
            "emit.bytes",
            "wire.bytes",
        ]);
        out.note(format!(
            "{traced} traced boots; counters cover the first {COUNTED}; {} untraced reference boots",
            untraced_ms.len()
        ));
    } else {
        // The kernel runs between boots; its time is not the workload's.
        let secs = elapsed.as_secs_f64() - kernel.iter().fold(0.0, |a, k| a + k) / 1e3;
        metrics::E2e {
            request_ms: latencies.clone(),
            boots_per_request: 1.0,
            secs,
            setups,
            rss_mb: metrics::peak_rss_mb(),
            kernel_ms: kernel,
            stolen,
        }
        .record(&mut out);
        out.note(format!(
            "{} cold boots of {SERVICES} services in {secs:.3} s; a ticket here is one boot request",
            latencies.len()
        ));
    }
    Ok(out)
}

/// Output checks, outside the timed region: BB beats conventional on
/// every seed, and the calibration scenario still boots at the pinned
/// times.
fn check_outputs(out: &mut Outcome, times: &[BootTimes], seed: u64) {
    for (pair, chunk) in times.chunks_exact(2).enumerate() {
        if let [Some((conv, _)), Some((bb, _))] = chunk {
            out.attempted += 1;
            if bb >= conv {
                let s = pair_seed(seed, pair as u64);
                out.fail(format!(
                    "seed {s}: BB {bb} ns is not faster than conventional {conv} ns"
                ));
            }
        }
    }
    let s = tv_scenario();
    for (cfg, want) in [
        (BbConfig::conventional(), "8614.474"),
        (BbConfig::full(), "3200.077"),
    ] {
        out.attempted += 1;
        let got = BootRequest::new(&s)
            .config(cfg)
            .run()
            .ok()
            .and_then(|b| b.report.try_boot_time())
            .map(|t| format!("{:.3}", t.as_nanos() as f64 / 1e6));
        if got.as_deref() != Some(want) {
            out.fail(format!("tv_scenario boot: want {want} ms, got {got:?}"));
        }
    }
}
