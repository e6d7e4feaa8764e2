//! `sweep-served` and `chaos-served`: two closed-loop clients submit
//! tickets to one `bb-serve` server on a Unix socket, with as many
//! fleet workers as clients.
//!
//! A sweep ticket boots every device profile at 136 services under
//! conventional and full BB with fork and dedup on, over a window of
//! seeds that slides by half its width per ticket: half the seeds were
//! booted by the previous ticket, half are new. A chaos ticket grids
//! fault plans × corruption plans × {conventional, BB} on seeds no
//! earlier ticket used.
//!
//! The traced run first serves tickets exactly as the untraced run does
//! (for the service-wide counters), then replays tickets on this thread
//! through the same public calls the fleet workers make, each wrapped
//! in its layer's span, and reconciles the replay against the same
//! ticket on a one-worker in-process `FleetService`.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bb_core::{
    fault_targets, run_with_fallback_recovering, validate_preparse_blob, with_supervision,
    ArtifactRead, BbConfig, BootRequest, Checkpoint, CheckpointPhase, FallbackPolicy, Pipeline,
    PlanCache, PreParser, Scenario,
};
use bb_fleet::{
    json, run_chaos, run_sweep, ChaosSpec, FleetCache, FleetService, PoolConfig, ScenarioSource,
    ServiceConfig, ServiceReport, SweepSpec, TicketStatus,
};
use bb_init::encode_units;
use bb_serve::{
    parse_request, render_ok, BindAddr, Client, JobKind, JobResult, Request, Server, SweepArgs,
};
use bb_sim::{snapshot, CorruptionPlan, FaultPlan, SimDuration};
use bb_workloads::{tv_scenario_with, TizenParams};

use crate::cold::probe_plan;
use crate::metrics::{self, Outcome};
use crate::trace::{Recorder, SpanId};
use crate::{splitmix, RunCfg};

/// Which grid the tickets carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sweep-served`.
    Sweep,
    /// `chaos-served`.
    Chaos,
}

/// Client connections and fleet workers (the container's `nproc`).
const CLIENTS: usize = 2;
/// Services per generated scenario.
const SERVICES: usize = 136;
/// Seeds per sweep ticket; the window slides by half of it.
const SWEEP_SEEDS: u64 = 4;
/// Seeds, fault plans and corruption plans per chaos ticket.
const CHAOS_SEEDS: u64 = 1;
const CHAOS_PLANS: u64 = 3;
const CHAOS_CORRUPTION: u64 = 2;
/// Tickets a run must time before it may stop (a p75 with ten beyond).
const MIN_TICKETS: usize = 40;
/// Replayed tickets a traced run must record (a p50 of fleet.ticket).
const MIN_REPLAYED: u64 = 20;
/// Tickets at the start of the replay whose work counters must repeat
/// exactly.
const COUNTED: u64 = 4;
/// Interval between calibration kernel runs during the timed loop.
const KERNEL_EVERY: Duration = Duration::from_millis(200);
/// Of every `SAMPLE_EVERY` tickets, the first one per client has its
/// report checked against an in-process run of the same job.
const SAMPLE_EVERY: u64 = 32;

/// The ticket sequence of one run, derived from its seed. Ticket `k`
/// belongs to client `k % CLIENTS`, which submits its tickets in order
/// on seeds no other client uses: a sweep ticket's older half is then
/// always the newer half of the same client's previous ticket, already
/// booted, so every ticket has the same mix of cache reads and fresh
/// boots whatever the interleaving. Tickets `0..CLIENTS` are the
/// warm-ups every set-up submits.
#[derive(Debug, Clone, Copy)]
pub struct Tickets {
    kind: Kind,
    base: u64,
    plan_seed: u64,
    corruption_seed: u64,
}

impl Tickets {
    /// The ticket sequence for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let h = splitmix(seed);
        Tickets {
            kind,
            base: h >> 24,
            plan_seed: splitmix(h ^ 1) >> 24,
            corruption_seed: splitmix(h ^ 2) >> 24,
        }
    }

    /// Job of ticket `k`.
    pub fn args(&self, k: u64) -> SweepArgs {
        let lane = self.base + ((k % CLIENTS as u64) << 32);
        let j = k / CLIENTS as u64;
        match self.kind {
            Kind::Sweep => SweepArgs {
                profiles: "all".into(),
                services: Some(SERVICES),
                seeds: SWEEP_SEEDS,
                seed: Some(lane + j * SWEEP_SEEDS / 2),
                fork: true,
                dedup: true,
                ..SweepArgs::new(JobKind::Sweep)
            },
            Kind::Chaos => SweepArgs {
                services: Some(SERVICES),
                seeds: CHAOS_SEEDS,
                seed: Some(lane + j * CHAOS_SEEDS),
                plans: CHAOS_PLANS,
                plan_seed: self.plan_seed,
                corruption: CHAOS_CORRUPTION,
                corruption_seed: self.corruption_seed,
                ..SweepArgs::new(JobKind::Chaos)
            },
        }
    }

    /// Boots in every ticket's report.
    pub fn boots(&self) -> Result<usize, String> {
        let args = self.args(0);
        Ok(match self.kind {
            Kind::Sweep => args
                .sweep_spec()?
                .cells
                .iter()
                .map(|c| c.seeds.len() * c.configs.len())
                .sum(),
            Kind::Chaos => args.chaos_spec()?.total_boots(),
        })
    }
}

/// A running server on a Unix socket inside the checkout.
struct Live {
    addr: BindAddr,
    service: Arc<FleetService>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Live {
    fn start(n: usize) -> Result<Live, String> {
        let dir = Path::new("perfbench");
        if !dir.is_dir() {
            return Err("run from the repository root (no perfbench/ here)".into());
        }
        let path: PathBuf = dir.join(format!(".serve-{}-{n}.sock", std::process::id()));
        let addr = BindAddr::Unix(path);
        let server = Server::bind(&addr, ServiceConfig::with_workers(CLIENTS))
            .map_err(|e| format!("bind {addr}: {e}"))?;
        let service = Arc::clone(server.service());
        let stop = server.stop_flag();
        let thread = std::thread::spawn(move || server.run());
        Ok(Live {
            addr,
            service,
            stop,
            thread: Some(thread),
        })
    }

    fn connect(&self) -> Result<Vec<Client>, String> {
        (0..CLIENTS)
            .map(|_| Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr)))
            .collect()
    }

    /// Stops the accept loop and waits for the server thread, its
    /// connection threads and (with the last service handle) the
    /// fleet workers.
    fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// One served ticket.
struct Served {
    k: u64,
    ms: f64,
    result: Result<JobResult, String>,
}

/// Whether ticket `k`'s report is kept for checking: each client's
/// warm-up and every `SAMPLE_EVERY`-th ticket after.
fn sampled(k: u64) -> bool {
    k % SAMPLE_EVERY < CLIENTS as u64
}

/// The closed loop: each client submits its next ticket when the last
/// one returns, until `seconds` have passed and at least `min` tickets
/// completed. Returns every ticket, the measured wall time, and the
/// memory high-water mark (MB) when the `min`-th ticket completed — a
/// fixed amount of work, so it does not grow with host speed.
fn serve_loop(
    clients: Vec<Client>,
    tickets: &Tickets,
    seconds: Duration,
    min: usize,
    keep: impl Fn(u64) -> bool + Sync,
    kernel: &mut Vec<f64>,
) -> (Vec<Served>, f64, f64) {
    let completed = AtomicUsize::new(0);
    let rss_mb = AtomicU64::new(0);
    let started = Instant::now();
    let cap = seconds * 3;
    let served = std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (completed, keep, rss_mb) = (&completed, &keep, &rss_mb);
                sc.spawn(move || {
                    let mut done = Vec::new();
                    for j in 1.. {
                        let e = started.elapsed();
                        if (e >= seconds && completed.load(Ordering::SeqCst) >= min) || e >= cap {
                            break;
                        }
                        let k = j * CLIENTS as u64 + c as u64;
                        let args = tickets.args(k);
                        let t = Instant::now();
                        let result = client.run(&args).map_err(|e| e.to_string());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if completed.fetch_add(1, Ordering::SeqCst) + 1 == min {
                            rss_mb.store(metrics::peak_rss_mb().to_bits(), Ordering::SeqCst);
                        }
                        let result = result.map(|mut r| {
                            if !keep(k) {
                                r.report = String::new();
                            }
                            r
                        });
                        done.push(Served { k, ms, result });
                    }
                    done
                })
            })
            .collect();
        // Host speed, sampled beside the load on this otherwise idle
        // thread.
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(KERNEL_EVERY);
            kernel.push(metrics::kernel_ms());
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let secs = started.elapsed().as_secs_f64();
    let rss = match rss_mb.load(Ordering::SeqCst) {
        0 => metrics::peak_rss_mb(),
        bits => f64::from_bits(bits),
    };
    (served, secs, rss)
}

/// Counts a served ticket: errors, refusals and reports with failed
/// jobs are failed operations.
fn judge(out: &mut Outcome, s: &Served) -> bool {
    out.attempted += 1;
    match &s.result {
        Ok(r) if r.failures == 0 => true,
        Ok(r) => {
            out.fail(format!("ticket {}: {} failed job(s)", s.k, r.failures));
            false
        }
        Err(e) => {
            out.fail(format!("ticket {}: {e}", s.k));
            false
        }
    }
}

/// The report the in-process one-shot entry point produces for `args`.
fn in_process(args: &SweepArgs) -> Result<String, String> {
    let pool = PoolConfig::with_workers(1);
    match args.kind {
        JobKind::Sweep => Ok(run_sweep(&args.sweep_spec()?, &pool, &FleetCache::fresh())
            .report
            .to_json()),
        JobKind::Chaos => Ok(run_chaos(&args.chaos_spec()?, &pool).report.to_json()),
        JobKind::Suspend => Err("suspend jobs are not served".into()),
    }
}

/// Output check: `got` must equal `want` byte for byte.
pub fn check_report(out: &mut Outcome, what: &str, got: &str, want: &str) {
    out.attempted += 1;
    if got != want {
        out.fail(format!(
            "{what}: report differs from the reference ({} vs {} bytes)",
            got.len(),
            want.len()
        ));
    }
}

/// Starts a server, connects the clients and runs each client's
/// warm-up ticket.
fn set_up(
    out: &mut Outcome,
    tickets: &Tickets,
    n: usize,
) -> Result<(Live, Vec<Client>, Vec<Served>), String> {
    let live = Live::start(n)?;
    let mut clients = live.connect()?;
    let mut warm = Vec::new();
    for (k, client) in clients.iter_mut().enumerate() {
        let k = k as u64;
        let t = Instant::now();
        let result = client.run(&tickets.args(k)).map_err(|e| e.to_string());
        let served = Served {
            k,
            ms: t.elapsed().as_secs_f64() * 1e3,
            result,
        };
        judge(out, &served);
        warm.push(served);
    }
    Ok((live, clients, warm))
}

/// Checks the warm-up tickets and every sampled ticket against the
/// in-process run of the same job, outside the timed region.
fn check_sampled(out: &mut Outcome, tickets: &Tickets, served: &[Served]) -> Result<(), String> {
    for s in served {
        if let Ok(r) = &s.result {
            if sampled(s.k) {
                let want = in_process(&tickets.args(s.k))?;
                check_report(out, &format!("ticket {}", s.k), &r.report, &want);
            }
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(kind: Kind, cfg: &RunCfg) -> Result<Outcome, String> {
    let tickets = Tickets::new(kind, cfg.seed);
    if cfg.trace {
        return traced(kind, cfg, &tickets);
    }
    let mut out = Outcome::default();
    let boots = tickets.boots()? as f64;
    // Set-up, repeated: bind, start workers, connect, warm-up ticket.
    let mut setups = Vec::new();
    let mut kept = None;
    for n in 0..metrics::SETUPS {
        let t = Instant::now();
        let (live, clients, warm) = set_up(&mut out, &tickets, n)?;
        setups.push(t.elapsed().as_secs_f64());
        match kept {
            None if n + 1 == metrics::SETUPS => kept = Some((live, clients, warm)),
            _ => {
                drop(clients);
                live.stop()?;
            }
        }
    }
    let (live, clients, warm) = kept.expect("the last set-up is kept");
    let mut kernel = Vec::new();
    let ticks = metrics::CpuTicks::now();
    let (mut served, secs, rss_mb) = serve_loop(
        clients,
        &tickets,
        cfg.seconds,
        MIN_TICKETS,
        sampled,
        &mut kernel,
    );
    let stolen = metrics::stolen_since(ticks);
    live.stop()?;

    let mut ok_ms = Vec::new();
    for s in &served {
        if judge(&mut out, s) {
            ok_ms.push(s.ms);
        }
    }
    served.extend(warm);
    check_sampled(&mut out, &tickets, &served)?;
    let tickets_ok = ok_ms.len();
    metrics::E2e {
        request_ms: ok_ms,
        boots_per_request: boots,
        secs,
        setups,
        rss_mb,
        kernel_ms: kernel,
        stolen,
    }
    .record(&mut out);
    out.note(format!(
        "{tickets_ok} tickets of {boots} boots in {secs:.3} s from {CLIENTS} clients; \
         boot_ms is ticket latency per boot; peak_rss_mb is taken after {MIN_TICKETS} tickets"
    ));
    Ok(out)
}

/// Work counters of replayed tickets.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    events: u64,
    peak_depth: usize,
    snapshot_bytes: u64,
    recovery_events: u64,
    recovery_rejected: u64,
    boots: u64,
    degraded: u64,
    emit_bytes: u64,
    wire_bytes: u64,
    digest: u64,
}

/// A probe to run once the ticket's root span has closed.
enum Probe {
    /// `Pipeline::plan` (split into graph, transaction and order).
    Plan {
        parent: SpanId,
        scenario: Arc<Scenario>,
        cfg: BbConfig,
        pre: PreParser,
    },
    /// `snapshot::save` of the checkpoint's machine.
    Save { parent: SpanId, bytes: Vec<u8> },
    /// `snapshot::restore` of the checkpoint image.
    Restore { parent: SpanId, bytes: Vec<u8> },
    /// `validate_preparse_blob` of the staged artifact.
    Validate {
        parent: SpanId,
        scenario: Arc<Scenario>,
        pre: PreParser,
        read: ArtifactRead,
    },
}

fn run_probes(rec: &mut Recorder, probes: Vec<Probe>) -> Result<(), String> {
    for p in probes {
        match p {
            Probe::Plan {
                parent,
                scenario,
                cfg,
                pre,
            } => {
                let (id, planned) = rec.probe("plan.passes", parent, || {
                    Pipeline::standard().plan(&scenario, &cfg, Some(&pre))
                });
                black_box(planned.map_err(|e| e.to_string())?);
                probe_plan(rec, id, &scenario)?;
            }
            Probe::Save { parent, bytes } => {
                let machine = snapshot::restore(&bytes).map_err(|e| e.to_string())?;
                let (_, saved) = rec.probe("snapshot.save", parent, || snapshot::save(&machine));
                black_box(saved.map_err(|e| e.to_string())?);
            }
            Probe::Restore { parent, bytes } => {
                let (_, m) = rec.probe("snapshot.restore", parent, || snapshot::restore(&bytes));
                black_box(m.map_err(|e| e.to_string())?);
            }
            Probe::Validate {
                parent,
                scenario,
                pre,
                read,
            } => {
                let s = &*scenario;
                let (_, v) = rec.probe("preparse.blob", parent, || {
                    validate_preparse_blob(&read, &s.units, &pre, &s.parse_params, &s.storage)
                });
                black_box(v);
            }
        }
    }
    Ok(())
}

type PrefixKey = (bool, bool, bool, bool);

/// The sweep worker's shared artifacts, replayed: scenario memo, plan
/// cache, boot dedup and kernel checkpoints, keyed like the fleet
/// cache (cell, seed).
#[derive(Default)]
struct SweepReplay {
    plans: PlanCache,
    scenarios: HashMap<(usize, u64), (Arc<Scenario>, PreParser)>,
    booted: HashMap<(usize, u64, u8), ()>,
    checkpoints: HashMap<(usize, u64, PrefixKey), Checkpoint>,
}

impl SweepReplay {
    /// Replays one sweep ticket's jobs in job order under `root`.
    fn ticket(
        &mut self,
        rec: &mut Recorder,
        root: SpanId,
        spec: &SweepSpec,
        c: &mut Counts,
        probes: &mut Vec<Probe>,
    ) -> Result<(), String> {
        // Each client's seeds slide forward: artifacts of its seeds below
        // this ticket's window are never asked for again. Other clients'
        // seeds lie 2^32 apart and are kept.
        let low = spec
            .cells
            .iter()
            .flat_map(|c| c.seeds.iter())
            .min()
            .copied()
            .unwrap_or(0);
        let live = |seed: u64| seed >= low || low - seed >= 1 << 31;
        self.scenarios.retain(|k, _| live(k.1));
        self.booted.retain(|k, _| live(k.1));
        self.checkpoints.retain(|k, _| live(k.1));
        for job in spec.jobs() {
            let cell = &spec.cells[job.cell];
            let seed = cell.seeds[job.seed_idx];
            let ScenarioSource::Tizen { profile, params } = &cell.source else {
                return Err("served sweeps generate Tizen scenarios".into());
            };
            let key = (job.cell, seed);
            let (s, pre) = self
                .scenarios
                .entry(key)
                .or_insert_with(|| {
                    let (_, s) = rec.span("scenario", root, || {
                        tv_scenario_with(*profile, TizenParams { seed, ..*params })
                    });
                    let (_, pre) = rec.span("preparse", root, || PreParser::build(&s.units));
                    (Arc::new(s), pre)
                })
                .clone();
            for (_, cfg) in &cell.configs {
                let bits = cfg.bits();
                c.boots += 1;
                if self.booted.contains_key(&(key.0, key.1, bits)) {
                    continue;
                }
                let ck_key = (key.0, key.1, cfg.prefix_key());
                if !self.checkpoints.contains_key(&ck_key) {
                    let before = self.plans.stats().plans_compiled;
                    let (id, ck) = rec.span("prefix", root, || {
                        BootRequest::new(&s)
                            .config(*cfg)
                            .prepared(&pre)
                            .plan_cache(&self.plans, &s)
                            .checkpoint_at(CheckpointPhase::KernelHandoff)
                    });
                    let ck = ck.map_err(|e| e.to_string())?;
                    if self.plans.stats().plans_compiled > before {
                        probes.push(plan_probe(id, &s, *cfg, pre));
                    }
                    probes.push(Probe::Save {
                        parent: id,
                        bytes: ck.bytes().to_vec(),
                    });
                    c.snapshot_bytes += ck.bytes().len() as u64;
                    self.checkpoints.insert(ck_key, ck);
                }
                let ck = &self.checkpoints[&ck_key];
                let before = self.plans.stats().plans_compiled;
                let (id, boot) = rec.span("suffix", root, || {
                    BootRequest::new(&s)
                        .config(*cfg)
                        .prepared(&pre)
                        .plan_cache(&self.plans, &s)
                        .resume(ck)
                });
                let boot = boot.map_err(|e| e.to_string())?;
                if self.plans.stats().plans_compiled > before {
                    probes.push(plan_probe(id, &s, *cfg, pre));
                }
                probes.push(Probe::Restore {
                    parent: id,
                    bytes: ck.bytes().to_vec(),
                });
                let q = boot.machine.event_queue_stats();
                c.events += q.scheduled;
                c.peak_depth = c.peak_depth.max(q.peak_depth);
                let t = boot
                    .report
                    .try_boot_time()
                    .ok_or_else(|| format!("seed {seed}: boot never completed"))?;
                c.digest = metrics::digest(c.digest, &t.as_nanos().to_le_bytes());
                self.booted.insert((key.0, key.1, bits), ());
            }
        }
        Ok(())
    }
}

fn plan_probe(parent: SpanId, s: &Arc<Scenario>, cfg: BbConfig, pre: PreParser) -> Probe {
    Probe::Plan {
        parent,
        scenario: Arc::clone(s),
        cfg,
        pre,
    }
}

/// Transient read failures the chaos grid derives from a corruption
/// seed (the fleet's splitmix64 finalizer, `% 6`).
fn transient_reads(seed: u64) -> u32 {
    (splitmix(seed) % 6) as u32
}

/// Replays one chaos ticket's jobs in job order under `root`: every
/// job rebuilds its scenario and Pre-parser and runs each config
/// through the supervised, artifact-validating boot.
fn chaos_ticket(
    rec: &mut Recorder,
    root: SpanId,
    spec: &ChaosSpec,
    c: &mut Counts,
    probes: &mut Vec<Probe>,
) -> Result<(), String> {
    for job in spec.jobs() {
        let cell = &spec.cells[job.cell];
        let seed = cell.seeds[job.seed_idx];
        let ScenarioSource::Tizen { profile, params } = &cell.source else {
            return Err("served chaos grids generate Tizen scenarios".into());
        };
        let (_, s) = rec.span("scenario", root, || {
            let s = tv_scenario_with(*profile, TizenParams { seed, ..*params });
            match cell.supervision {
                Some(sv) => {
                    with_supervision(&s, sv.restart, sv.restart_sec_ms, sv.start_limit_burst)
                }
                None => s,
            }
        });
        let s = Arc::new(s);
        let (_, pre) = rec.span("preparse", root, || PreParser::build(&s.units));
        let faults = match cell.plan_seeds[job.plan_idx] {
            None => FaultPlan::none(),
            Some(ps) => FaultPlan::seeded(ps, &fault_targets(&s)),
        };
        let artifact = match cell.corruption_seeds[job.corr_idx] {
            None => None,
            Some(cs) => {
                let (_, blob) = rec.span("preparse.blob", root, || encode_units(&s.units));
                Some(
                    ArtifactRead::corrupted(blob, &CorruptionPlan::seeded(cs))
                        .flaky(transient_reads(cs)),
                )
            }
        };
        let policy = FallbackPolicy {
            deadline: SimDuration::from_millis(cell.deadline_ms),
        };
        for (_, cfg) in &cell.configs {
            let (id, r) = rec.span("recovery", root, || {
                run_with_fallback_recovering(
                    &s,
                    cfg,
                    Some(&pre),
                    artifact.as_ref(),
                    &faults,
                    &policy,
                )
            });
            let (outcome, events) = r.map_err(|e| e.to_string())?;
            let rejected = events.iter().filter(|e| e.rejected()).count() as u64;
            c.boots += 1;
            c.recovery_events += events.len() as u64;
            c.recovery_rejected += rejected;
            c.degraded += u64::from(outcome.is_degraded());
            let user = outcome.user_boot_time().as_nanos();
            c.digest = metrics::digest(c.digest, &user.to_le_bytes());
            let mut planned = *cfg;
            planned.preparser &= rejected == 0;
            probes.push(plan_probe(id, &s, planned, pre));
            if outcome.is_degraded() {
                probes.push(plan_probe(id, &s, BbConfig::conventional(), pre));
            }
            if let (true, Some(read)) = (cfg.preparser, &artifact) {
                probes.push(Probe::Validate {
                    parent: id,
                    scenario: Arc::clone(&s),
                    pre,
                    read: read.clone(),
                });
            }
        }
    }
    Ok(())
}

/// The traced run.
fn traced(kind: Kind, cfg: &RunCfg, tickets: &Tickets) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let boots = tickets.boots()? as u64;
    let half = cfg.seconds / 2;

    // Phase 1: served exactly as untraced, for the service counters.
    let (live, clients, warm) = set_up(&mut out, tickets, 0)?;
    let (mut served, _, _) = serve_loop(
        clients,
        tickets,
        half,
        0,
        |k| k < 4 * MIN_REPLAYED,
        &mut Vec::new(),
    );
    let stats = live.service.stats();
    live.stop()?;
    for s in &served {
        judge(&mut out, s);
    }
    served.extend(warm);
    let served_reports: HashMap<u64, String> = served
        .into_iter()
        .filter_map(|s| s.result.ok().map(|r| (s.k, r.report)))
        .collect();
    let total_boots = stats.tickets_completed * boots;
    out.set("fleet.kernel_sims", stats.kernel_sims as f64, "count");
    out.set(
        "fleet.plan_cache_hits",
        stats.plan_cache_hits as f64,
        "count",
    );
    out.set("fleet.queue_peak", stats.queue_peak as f64, "count");
    out.set(
        "fleet.dedup_ratio",
        stats.cells_deduped as f64 / total_boots.max(1) as f64,
        "frac",
    );

    // Phase 2: replay on this thread, reconcile against one worker.
    let mut rec = Recorder::new();
    let service = FleetService::start(ServiceConfig::with_workers(1));
    let mut replay = SweepReplay::default();
    let (mut all, mut counted) = (Counts::default(), Counts::default());
    let mut counted_plans = None;
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    let mut k = 0u64;
    while k < MIN_REPLAYED || started.elapsed() < half {
        if started.elapsed() > cfg.seconds * 3 && k >= COUNTED {
            break;
        }
        let args = tickets.args(k);
        out.attempted += 1;
        let mut c = Counts::default();
        let mut probes = Vec::new();
        let root = rec.open("ticket", None, k);
        let replayed = match kind {
            Kind::Sweep => replay.ticket(&mut rec, root, &args.sweep_spec()?, &mut c, &mut probes),
            Kind::Chaos => chaos_ticket(&mut rec, root, &args.chaos_spec()?, &mut c, &mut probes),
        };
        rec.close(root);
        if let Err(e) = replayed.and_then(|()| run_probes(&mut rec, probes)) {
            out.fail(format!("replay of ticket {k}: {e}"));
        }

        let line = format!(
            "{{\"id\": {k}, \"method\": \"submit\", \"job\": {}}}",
            args.to_wire_json()
        );
        let id = rec.open("wire.decode", None, k);
        let request = parse_request(&line);
        rec.close(id);
        match request {
            Ok(Request::Submit { job, .. }) if *job == args => {}
            other => out.fail(format!("ticket {k}: submit decodes as {other:?}")),
        }

        let item = args.to_work_item()?;
        let ticket_span = rec.open("fleet.ticket", None, k);
        let first_span = rec.open("fleet.ticket.first_job", None, k);
        let ticket = service
            .submit(1, item)
            .map_err(|e| format!("in-process submit: {e}"))?;
        while let Some(TicketStatus::Queued { .. }) = service.poll(ticket) {
            std::thread::sleep(Duration::from_micros(50));
        }
        rec.close(first_span);
        let report = service
            .wait(ticket)
            .map_err(|e| format!("in-process wait: {e}"))?;
        rec.close(ticket_span);

        let id = rec.open("emit", None, k);
        let (doc, failures, summary, pool) = match &report {
            ServiceReport::Sweep(o) => (
                o.report.to_json(),
                o.report.failures.len(),
                o.report.summary(),
                &o.stats,
            ),
            ServiceReport::Chaos(o) => (
                o.report.to_json(),
                o.report.failures.len(),
                o.report.summary(),
                &o.stats,
            ),
        };
        rec.close(id);
        let pool_summary = pool.summary();
        busy = pool.per_worker.iter().map(|w| w.busy).sum();
        let id = rec.open("wire.encode", None, k);
        let response = render_ok(
            k,
            &format!(
                "\"kind\": \"{}\", \"failures\": {failures}, \"summary\": \"{}\", \
                 \"pool_summary\": \"{}\", \"metrics\": null, \"report\": \"{}\"",
                args.kind.as_str(),
                json::escape(&summary),
                json::escape(&pool_summary),
                json::escape(&doc),
            ),
        );
        rec.close(id);

        if failures > 0 {
            out.fail(format!("in-process ticket {k}: {failures} failed job(s)"));
        }
        if let Some(got) = served_reports.get(&k) {
            check_report(
                &mut out,
                &format!("served ticket {k} vs one worker"),
                got,
                &doc,
            );
        }
        c.emit_bytes = doc.len() as u64;
        c.wire_bytes = response.len() as u64;
        c.digest = metrics::digest(c.digest, doc.as_bytes());
        add(&mut all, &c);
        if k < COUNTED {
            add(&mut counted, &c);
            if k + 1 == COUNTED {
                counted_plans = Some(replay.plans.stats());
            }
        }
        k += 1;
    }
    drop(service);

    let (layers_ns, root_ns) = metrics::layer_metrics(&rec, &mut out, &["ticket"]);
    let per = |ns: u64| ns as f64 / 1e6 / k.max(1) as f64;
    let fleet_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == "fleet.ticket")
        .map(|s| s.duration())
        .sum();
    metrics::reconcile(
        &mut out,
        per(layers_ns),
        per(fleet_ns),
        &[
            (
                "replay time between layer calls (memo and dedup lookups, fault plans)",
                per(root_ns) - per(layers_ns),
            ),
            (
                "one-worker service time beyond the replay (queueing, dispatch, aggregation)",
                per(fleet_ns) - per(root_ns),
            ),
        ],
    );
    metrics::overhead(&mut out, &rec, root_ns);
    let suffix_s = metrics::layer_seconds(&rec, "suffix");
    out.set("sim.events", counted.events as f64, "count");
    out.set("sim.peak_depth", counted.peak_depth as f64, "count");
    out.set(
        "sim.events_per_s",
        if suffix_s > 0.0 {
            all.events as f64 / suffix_s
        } else {
            0.0
        },
        "1/s",
    );
    out.set("snapshot.bytes", counted.snapshot_bytes as f64, "bytes");
    let plans = counted_plans.unwrap_or_else(|| replay.plans.stats());
    out.set("plan_cache.compiled", plans.plans_compiled as f64, "count");
    out.set("plan_cache.hits", plans.hits as f64, "count");
    let lookups = plans.plans_compiled + plans.hits;
    out.set(
        "plan_cache.hit_ratio",
        plans.hits as f64 / lookups.max(1) as f64,
        "frac",
    );
    out.set("recovery.events", counted.recovery_events as f64, "count");
    out.set(
        "recovery.rejected",
        counted.recovery_rejected as f64,
        "count",
    );
    out.set(
        "fallback.degraded_frac",
        counted.degraded as f64 / counted.boots.max(1) as f64,
        "frac",
    );
    out.set(
        "fleet.worker.busy_frac",
        busy.as_secs_f64() / (fleet_ns as f64 / 1e9).max(1e-9),
        "frac",
    );
    out.set("emit.bytes", counted.emit_bytes as f64, "bytes");
    out.set("wire.bytes", counted.wire_bytes as f64, "bytes");
    out.set(
        "report.digest",
        metrics::digest_value(counted.digest),
        "hash",
    );
    out.set("trace.requests", k as f64, "count");
    out.note(format!(
        "phase 1: {} tickets served by {CLIENTS} workers; phase 2: {k} tickets replayed, \
         counters cover the first {COUNTED} ({} boots)",
        stats.tickets_completed, counted.boots
    ));
    out.note(
        "fleet.kernel_sims, fleet.dedup_ratio, fleet.plan_cache_hits and fleet.queue_peak total \
         the tickets phase 1 served in its time, on two racing workers, so they do not repeat \
         exactly; wire.bytes carries host timings in its pool summary",
    );
    Ok(out)
}

fn add(total: &mut Counts, c: &Counts) {
    total.events += c.events;
    total.peak_depth = total.peak_depth.max(c.peak_depth);
    total.snapshot_bytes += c.snapshot_bytes;
    total.recovery_events += c.recovery_events;
    total.recovery_rejected += c.recovery_rejected;
    total.boots += c.boots;
    total.degraded += c.degraded;
    total.emit_bytes += c.emit_bytes;
    total.wire_bytes += c.wire_bytes;
    total.digest = metrics::digest(total.digest, &c.digest.to_le_bytes());
}
