//! The `bb-serve-v1` wire format: job descriptions, request envelopes,
//! and response envelopes.
//!
//! One job description — [`SweepArgs`] — backs three surfaces at once:
//!
//! 1. the `bbsim sweep` / `bbsim chaos` / `bbsim suspend` CLI flags
//!    (via [`SweepArgs::parse_flag`]),
//! 2. the single-line JSON a client sends to `bbsim serve`
//!    ([`SweepArgs::to_wire_json`] / [`SweepArgs::from_wire`]), and
//! 3. the [`SweepSpec`] grid the fleet service executes
//!    ([`SweepArgs::to_work_item`]).
//!
//! The grid builder admits a job before it allocates anything: seed
//! ranges must not overflow, generated scenarios are bounded in size,
//! and a job may expand to at most 2^20 boots. A job past
//! any limit is an `Err` — which the server renders as a `bb-serve-v1`
//! error line and the CLI as a one-line error.
//!
//! Because every surface funnels through the same grid builder, a
//! `bbsim submit` round trip produces byte-identical report JSON to the
//! in-process `bbsim sweep --json` for the same flags — the serve
//! acceptance invariant.
//!
//! The framing is newline-delimited JSON (NDJSON): every request and
//! every response is exactly one line. Requests carry a client-chosen
//! `id` that the matching response echoes; responses additionally lead
//! with the [`json::SCHEMA_SERVE`] stamp, `"ok"`, and either
//! `"result"` or `"error"`.

use std::time::Duration;

use bb_core::{BbConfig, FallbackPolicy};
use bb_fleet::json::{self, Json};
use bb_fleet::{CellSpec, ChaosSpec, Supervision, SweepSpec, TicketId, WorkItem};
use bb_init::RestartPolicy;
use bb_workloads::{profiles, MachineProfile, TizenParams};

// ---------------------------------------------------------------------
// Job description
// ---------------------------------------------------------------------

/// Which grid a job expands to (or, for `Suspend`, which local
/// command shares the parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A plain boot sweep (`bbsim sweep`, [`WorkItem::Sweep`]).
    Sweep,
    /// A fault-injection sweep (`bbsim chaos`, [`WorkItem::Chaos`]).
    Chaos,
    /// The local suspend-to-RAM comparison (`bbsim suspend`). Not
    /// submittable: it boots and snapshots one machine in-process.
    Suspend,
}

impl JobKind {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Sweep => "sweep",
            JobKind::Chaos => "chaos",
            JobKind::Suspend => "suspend",
        }
    }
}

impl std::str::FromStr for JobKind {
    type Err = String;

    /// Parses the wire spelling.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sweep" => Ok(JobKind::Sweep),
            "chaos" => Ok(JobKind::Chaos),
            "suspend" => Ok(JobKind::Suspend),
            other => Err(format!("unknown job kind {other:?} (sweep|chaos|suspend)")),
        }
    }
}

/// One job description: every knob of the sweep/chaos/suspend grid,
/// with the CLI defaults baked in. Field meanings and defaults match
/// the historical `bbsim` flags exactly (seeds defaults to 20 for
/// sweeps and 10 for chaos; chaos' deadline defaults to the
/// [`FallbackPolicy`] supervisor deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Job kind; gates which flags/fields apply.
    pub kind: JobKind,
    /// `--profiles NAMES|all` (sweep/chaos).
    pub profiles: String,
    /// `--scenario tv|tv136|camera` (suspend).
    pub scenario: String,
    /// `--services N`; `None` means the scenario default (136 for
    /// generated grids).
    pub services: Option<usize>,
    /// `--cores N` (suspend).
    pub cores: Option<usize>,
    /// `--seeds N`: seeds per cell (sweep/chaos).
    pub seeds: u64,
    /// `--seed N`: the seed base (sweep/chaos) or the scenario seed
    /// (suspend).
    pub seed: Option<u64>,
    /// `--features all|none|LIST` (sweep).
    pub features: String,
    /// `--deadline-ms N`: per-job wall-clock deadline (sweep) or the
    /// boot-supervisor deadline (chaos).
    pub deadline_ms: Option<u64>,
    /// `--fork-from kernel-handoff` (sweep; accepted, see
    /// [`bb_fleet::SweepSpec::fork`]).
    pub fork: bool,
    /// Negated `--no-dedup` (sweep).
    pub dedup: bool,
    /// Whether to collect span metrics (sweep; the CLI sets this when
    /// `--metrics FILE|-` is given).
    pub metrics: bool,
    /// `--plans N` (chaos).
    pub plans: u64,
    /// `--plan-seed N` (chaos).
    pub plan_seed: u64,
    /// `--corruption N` (chaos).
    pub corruption: u64,
    /// `--corruption-seed N` (chaos).
    pub corruption_seed: u64,
    /// `--restart no|on-failure|always` (chaos).
    pub restart: String,
    /// `--restart-sec-ms N` (chaos).
    pub restart_sec_ms: u64,
    /// `--burst N` (chaos).
    pub burst: u32,
}

impl SweepArgs {
    /// The CLI defaults for `kind`.
    pub fn new(kind: JobKind) -> Self {
        SweepArgs {
            kind,
            profiles: "ue48h6200".into(),
            scenario: "tv".into(),
            services: None,
            cores: None,
            seeds: match kind {
                JobKind::Chaos => 10,
                _ => 20,
            },
            seed: None,
            features: "all".into(),
            deadline_ms: None,
            fork: false,
            dedup: true,
            metrics: false,
            plans: 4,
            plan_seed: 1000,
            corruption: 0,
            corruption_seed: 5000,
            restart: "on-failure".into(),
            restart_sec_ms: 100,
            burst: 3,
        }
    }

    /// Consumes one CLI flag if it belongs to this job kind's wire
    /// fields. Returns `Ok(true)` when consumed, `Ok(false)` when the
    /// flag is not a wire flag for this kind (the caller may still
    /// handle it as a client-side flag), and `Err` on a malformed or
    /// missing value.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        next: &mut dyn FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        let mut value = |name: &str| next().ok_or_else(|| format!("missing value for {name}"));
        fn num<T: std::str::FromStr>(name: &str, raw: String) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("bad value {raw:?} for {name}"))
        }
        let grid = matches!(self.kind, JobKind::Sweep | JobKind::Chaos);
        match (flag, self.kind) {
            ("--profiles", _) if grid => self.profiles = value("--profiles")?,
            ("--scenario", JobKind::Suspend) => self.scenario = value("--scenario")?,
            ("--services", _) => self.services = Some(num("--services", value("--services")?)?),
            ("--cores", JobKind::Suspend) => self.cores = Some(num("--cores", value("--cores")?)?),
            ("--seeds", _) if grid => self.seeds = num("--seeds", value("--seeds")?)?,
            ("--seed", _) => self.seed = Some(num("--seed", value("--seed")?)?),
            ("--features", JobKind::Sweep) => self.features = value("--features")?,
            ("--deadline-ms", _) if grid => {
                self.deadline_ms = Some(num("--deadline-ms", value("--deadline-ms")?)?)
            }
            ("--fork-from", JobKind::Sweep) => match value("--fork-from")?.as_str() {
                "kernel" | "kernel-handoff" => self.fork = true,
                other => {
                    return Err(format!(
                        "unknown --fork-from phase {other:?} (kernel-handoff)"
                    ))
                }
            },
            ("--no-dedup", JobKind::Sweep) => self.dedup = false,
            ("--plans", JobKind::Chaos) => self.plans = num("--plans", value("--plans")?)?,
            ("--plan-seed", JobKind::Chaos) => {
                self.plan_seed = num("--plan-seed", value("--plan-seed")?)?
            }
            ("--corruption", JobKind::Chaos) => {
                self.corruption = num("--corruption", value("--corruption")?)?
            }
            ("--corruption-seed", JobKind::Chaos) => {
                self.corruption_seed = num("--corruption-seed", value("--corruption-seed")?)?
            }
            ("--restart", JobKind::Chaos) => self.restart = value("--restart")?,
            ("--restart-sec-ms", JobKind::Chaos) => {
                self.restart_sec_ms = num("--restart-sec-ms", value("--restart-sec-ms")?)?
            }
            ("--burst", JobKind::Chaos) => self.burst = num("--burst", value("--burst")?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Renders the job as one wire line (no trailing newline). Key
    /// order is fixed, so identical jobs serialize identically.
    pub fn to_wire_json(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            match v {
                Some(x) => x.to_string(),
                None => "null".into(),
            }
        }
        format!(
            "{{\"kind\": \"{}\", \"profiles\": \"{}\", \"scenario\": \"{}\", \
             \"services\": {}, \"cores\": {}, \"seeds\": {}, \"seed\": {}, \
             \"features\": \"{}\", \"deadline_ms\": {}, \"fork\": {}, \"dedup\": {}, \
             \"metrics\": {}, \"plans\": {}, \"plan_seed\": {}, \"corruption\": {}, \
             \"corruption_seed\": {}, \"restart\": \"{}\", \"restart_sec_ms\": {}, \
             \"burst\": {}}}",
            self.kind.as_str(),
            json::escape(&self.profiles),
            json::escape(&self.scenario),
            opt(&self.services),
            opt(&self.cores),
            self.seeds,
            opt(&self.seed),
            json::escape(&self.features),
            opt(&self.deadline_ms),
            self.fork,
            self.dedup,
            self.metrics,
            self.plans,
            self.plan_seed,
            self.corruption,
            self.corruption_seed,
            json::escape(&self.restart),
            self.restart_sec_ms,
            self.burst,
        )
    }

    /// Decodes a wire job object. Missing fields take the `new(kind)`
    /// defaults, so older clients can omit knobs they don't set.
    pub fn from_wire(v: &Json) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("job is missing \"kind\"")?
            .parse::<JobKind>()?;
        let mut args = SweepArgs::new(kind);
        let str_field = |key: &str, into: &mut String| {
            if let Some(s) = v.get(key).and_then(Json::as_str) {
                *into = s.to_owned();
            }
        };
        // JSON numbers decode as f64, which holds integers exactly only
        // below 2^53: anything larger would silently round.
        fn uint(v: &Json, key: &str) -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Num(n)) if (0.0..MAX_WIRE_INT).contains(n) && n.fract() == 0.0 => {
                    Ok(Some(*n as u64))
                }
                Some(_) => Err(format!(
                    "job field {key:?} must be a non-negative integer below 2^53"
                )),
            }
        }
        fn flag(v: &Json, key: &str, into: &mut bool) -> Result<(), String> {
            match v.get(key) {
                None => Ok(()),
                Some(Json::Bool(b)) => {
                    *into = *b;
                    Ok(())
                }
                Some(_) => Err(format!("job field {key:?} must be a boolean")),
            }
        }
        str_field("profiles", &mut args.profiles);
        str_field("scenario", &mut args.scenario);
        str_field("features", &mut args.features);
        str_field("restart", &mut args.restart);
        args.services = uint(v, "services")?.map(|n| n as usize);
        args.cores = uint(v, "cores")?.map(|n| n as usize);
        if let Some(n) = uint(v, "seeds")? {
            args.seeds = n;
        }
        args.seed = uint(v, "seed")?;
        args.deadline_ms = uint(v, "deadline_ms")?;
        flag(v, "fork", &mut args.fork)?;
        flag(v, "dedup", &mut args.dedup)?;
        flag(v, "metrics", &mut args.metrics)?;
        if let Some(n) = uint(v, "plans")? {
            args.plans = n;
        }
        if let Some(n) = uint(v, "plan_seed")? {
            args.plan_seed = n;
        }
        if let Some(n) = uint(v, "corruption")? {
            args.corruption = n;
        }
        if let Some(n) = uint(v, "corruption_seed")? {
            args.corruption_seed = n;
        }
        if let Some(n) = uint(v, "restart_sec_ms")? {
            args.restart_sec_ms = n;
        }
        if let Some(n) = uint(v, "burst")? {
            args.burst = u32::try_from(n).map_err(|_| "job field \"burst\" must fit in 32 bits")?;
        }
        Ok(args)
    }

    /// The sweep grid of this job (see [`SweepArgs::to_work_item`]).
    pub fn sweep_spec(&self) -> Result<SweepSpec, String> {
        self.grid(false)
    }

    /// The chaos grid of this job (see [`SweepArgs::to_work_item`]).
    pub fn chaos_spec(&self) -> Result<ChaosSpec, String> {
        self.grid(true)
    }

    /// The submittable [`WorkItem`] this job expands to.
    pub fn to_work_item(&self) -> Result<WorkItem, String> {
        match self.kind {
            JobKind::Sweep => Ok(WorkItem::Sweep(self.grid(false)?)),
            JobKind::Chaos => Ok(WorkItem::Chaos(self.grid(true)?)),
            JobKind::Suspend => {
                Err("suspend runs locally; the serve queue accepts sweep and chaos jobs".into())
            }
        }
    }

    /// The one grid builder — the grid `bbsim sweep` and `bbsim chaos`
    /// have always built: one cell per profile labeled
    /// `{profile}-s{services}`, seeds `seed..seed + seeds`. A sweep
    /// boots `conventional` against the boosted feature set; a chaos
    /// grid boots `conventional` against full BB under `plans` fault
    /// plans and `corruption` corruption plans (each plus its control
    /// slot) with the requested supervision.
    ///
    /// Every limit is checked before any axis is allocated.
    fn grid(&self, chaos: bool) -> Result<SweepSpec, String> {
        let services = self.services.unwrap_or(136);
        if services < MIN_SERVICES {
            return Err("--services must be at least 24 (the TV backbone alone needs that)".into());
        }
        if services > MAX_SERVICES {
            return Err(format!("--services must be at most {MAX_SERVICES}"));
        }
        let profiles = resolve_profiles(&self.profiles)?;
        let (plans, corruption) = if chaos {
            (self.plans, self.corruption)
        } else {
            (0, 0)
        };
        let seed = self.seed.unwrap_or(0);
        for (flag, base, n) in [
            ("--seed", seed, self.seeds),
            ("--plan-seed", self.plan_seed, plans),
            ("--corruption-seed", self.corruption_seed, corruption),
        ] {
            if base.checked_add(n).is_none() {
                return Err(format!("{flag} {base} plus {n} seeds overflows 64 bits"));
            }
        }
        let boots = [
            profiles.len() as u64,
            self.seeds,
            plans.saturating_add(1),
            corruption.saturating_add(1),
            2,
        ]
        .into_iter()
        .try_fold(1u64, u64::checked_mul);
        if boots.is_none_or(|b| b > MAX_GRID_BOOTS) {
            return Err(format!(
                "grid too large: profiles x seeds x (plans + 1) x (corruption + 1) x 2 configs \
                 must be at most {MAX_GRID_BOOTS} boots"
            ));
        }

        let mut spec = SweepSpec::new();
        let cell_of: Box<dyn Fn(CellSpec) -> CellSpec> = if chaos {
            let restart = match self.restart.as_str() {
                "no" | "none" => RestartPolicy::No,
                "on-failure" => RestartPolicy::OnFailure,
                "always" => RestartPolicy::Always,
                other => {
                    return Err(format!(
                        "unknown --restart policy {other:?} (no|on-failure|always)"
                    ))
                }
            };
            let supervision = (restart != RestartPolicy::No).then_some(Supervision {
                restart,
                restart_sec_ms: self.restart_sec_ms,
                start_limit_burst: self.burst,
            });
            let deadline_ms = self
                .deadline_ms
                .unwrap_or_else(|| FallbackPolicy::default().deadline.as_millis());
            Box::new(move |cell| {
                cell.fault_plans(plans, self.plan_seed)
                    .corruption_plans(corruption, self.corruption_seed)
                    .supervision(supervision)
                    .deadline_ms(deadline_ms)
                    .conventional_vs_bb()
            })
        } else {
            let boosted = BbConfig::from_feature_list(&self.features)?;
            let boosted_label = if self.features == "all" || self.features == "full" {
                "bb".to_string()
            } else {
                self.features.clone()
            };
            spec = spec
                .with_metrics(self.metrics)
                .with_dedup(self.dedup)
                .with_fork(self.fork);
            if let Some(ms) = self.deadline_ms {
                spec = spec.deadline(Duration::from_millis(ms));
            }
            Box::new(move |cell| {
                cell.config("conventional", BbConfig::conventional())
                    .config(boosted_label.clone(), boosted)
            })
        };
        for profile in profiles {
            let params = TizenParams {
                services,
                ..TizenParams::default()
            };
            let cell = CellSpec::tizen(format!("{}-s{services}", profile.name), profile, params)
                .seeds(seed..seed + self.seeds);
            spec = spec.cell(cell_of(cell));
        }
        Ok(spec)
    }
}

/// Fewest services a generated grid scenario may have: the TV backbone.
const MIN_SERVICES: usize = 24;

/// Most services a generated grid scenario may have. Every job builds
/// its scenario up front (`tv_scenario_with` sizes its unit list from
/// this), and a 16,000-service scenario already holds ~180 MB while it
/// boots.
const MAX_SERVICES: usize = 20_000;

/// Most boots one job's grid may expand to: profiles × seeds ×
/// (plans + 1) × (corruption + 1) × configs. The seed, plan and
/// corruption axes, the job list and the result slots are all
/// allocated in proportion to it.
const MAX_GRID_BOOTS: u64 = 1 << 20;

/// Smallest f64 above every integer the JSON codec decodes exactly
/// (2^53).
const MAX_WIRE_INT: f64 = 9_007_199_254_740_992.0;

/// Resolves a `--profiles` spec (`all` or a comma list, any
/// dash/underscore/case spelling) to machine profiles.
pub fn resolve_profiles(spec: &str) -> Result<Vec<MachineProfile>, String> {
    if spec == "all" {
        return Ok(profiles::all_profiles());
    }
    fn fold(name: &str) -> String {
        name.chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect()
    }
    let all = profiles::all_profiles();
    spec.split(',')
        .map(|name| {
            all.iter()
                .find(|p| fold(p.name) == fold(name.trim()))
                .cloned()
                .ok_or_else(|| {
                    let known: Vec<&str> = all.iter().map(|p| p.name).collect();
                    format!("unknown profile {name:?} (try: {} or all)", known.join(","))
                })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Request envelope
// ---------------------------------------------------------------------

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job; the response carries the ticket id.
    Submit {
        /// Echoed request id.
        id: u64,
        /// The job to run (boxed: a full job dwarfs the other
        /// variants).
        job: Box<SweepArgs>,
    },
    /// Non-blocking ticket progress.
    Poll {
        /// Echoed request id.
        id: u64,
        /// Which ticket.
        ticket: TicketId,
    },
    /// Block until the ticket's report is ready, then stream it back.
    Wait {
        /// Echoed request id.
        id: u64,
        /// Which ticket.
        ticket: TicketId,
    },
    /// Cancel a queued/running ticket.
    Cancel {
        /// Echoed request id.
        id: u64,
        /// Which ticket.
        ticket: TicketId,
    },
    /// Service-wide counters as a `bb-serve-stats-v1` document.
    Stats {
        /// Echoed request id.
        id: u64,
    },
    /// Stop accepting connections and exit once drained.
    Shutdown {
        /// Echoed request id.
        id: u64,
    },
}

impl Request {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Submit { id, .. }
            | Request::Poll { id, .. }
            | Request::Wait { id, .. }
            | Request::Cancel { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let id = match v.get("id") {
        None => 0,
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
        Some(_) => return Err("request \"id\" must be a non-negative integer".into()),
    };
    let method = v
        .get("method")
        .and_then(Json::as_str)
        .ok_or("request is missing \"method\"")?;
    let ticket = || -> Result<TicketId, String> {
        match v.get("ticket") {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as TicketId),
            _ => Err(format!("method {method:?} needs an integer \"ticket\"")),
        }
    };
    match method {
        "submit" => {
            let job = v.get("job").ok_or("submit needs a \"job\" object")?;
            Ok(Request::Submit {
                id,
                job: Box::new(SweepArgs::from_wire(job)?),
            })
        }
        "poll" => Ok(Request::Poll {
            id,
            ticket: ticket()?,
        }),
        "wait" => Ok(Request::Wait {
            id,
            ticket: ticket()?,
        }),
        "cancel" => Ok(Request::Cancel {
            id,
            ticket: ticket()?,
        }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(format!(
            "unknown method {other:?} (submit|poll|wait|cancel|stats|shutdown)"
        )),
    }
}

// ---------------------------------------------------------------------
// Response envelope
// ---------------------------------------------------------------------

/// Renders a success response line: `fields` is the pre-rendered
/// contents of the `"result"` object (no braces).
pub fn render_ok(id: u64, fields: &str) -> String {
    format!(
        "{{\"schema\": \"{}\", \"id\": {id}, \"ok\": true, \"result\": {{{fields}}}}}",
        json::SCHEMA_SERVE
    )
}

/// Renders an error response line.
pub fn render_err(id: u64, msg: &str) -> String {
    format!(
        "{{\"schema\": \"{}\", \"id\": {id}, \"ok\": false, \"error\": \"{}\"}}",
        json::SCHEMA_SERVE,
        json::escape(msg)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_round_trip_through_the_wire() {
        let mut job = SweepArgs::new(JobKind::Chaos);
        job.profiles = "all".into();
        job.services = Some(48);
        job.seed = Some(7);
        job.corruption = 2;
        job.restart = "always".into();
        let line = job.to_wire_json();
        let back = SweepArgs::from_wire(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, job);
        // And a default job survives too.
        let dflt = SweepArgs::new(JobKind::Sweep);
        let back = SweepArgs::from_wire(&json::parse(&dflt.to_wire_json()).unwrap()).unwrap();
        assert_eq!(back, dflt);
    }

    #[test]
    fn wire_defaults_match_the_cli_defaults() {
        let sparse = json::parse(r#"{"kind": "sweep"}"#).unwrap();
        let job = SweepArgs::from_wire(&sparse).unwrap();
        assert_eq!(job, SweepArgs::new(JobKind::Sweep));
        assert_eq!(job.seeds, 20);
        assert_eq!(SweepArgs::new(JobKind::Chaos).seeds, 10);
    }

    #[test]
    fn flags_are_gated_by_kind() {
        let mut sweep = SweepArgs::new(JobKind::Sweep);
        let feed = |vals: &[&str]| {
            let mut it: Vec<String> = vals.iter().map(|s| s.to_string()).collect();
            it.reverse();
            move || it.pop()
        };
        assert_eq!(
            sweep.parse_flag("--fork-from", &mut feed(&["kernel-handoff"])),
            Ok(true)
        );
        assert!(sweep.fork);
        // A chaos-only flag is not consumed by a sweep job...
        assert_eq!(sweep.parse_flag("--plans", &mut feed(&["3"])), Ok(false));
        // ...but is by a chaos job.
        let mut chaos = SweepArgs::new(JobKind::Chaos);
        assert_eq!(chaos.parse_flag("--plans", &mut feed(&["3"])), Ok(true));
        assert_eq!(chaos.plans, 3);
        // Bad values and missing values are errors, not silent skips.
        assert!(chaos.parse_flag("--seeds", &mut feed(&["many"])).is_err());
        assert!(chaos.parse_flag("--seeds", &mut feed(&[])).is_err());
        assert!(sweep
            .parse_flag("--fork-from", &mut feed(&["userspace"]))
            .is_err());
    }

    #[test]
    fn sweep_spec_builds_the_cli_grid() {
        let mut job = SweepArgs::new(JobKind::Sweep);
        job.services = Some(24);
        job.seeds = 3;
        job.seed = Some(5);
        let spec = job.sweep_spec().unwrap();
        assert_eq!(spec.cells.len(), 1);
        assert_eq!(spec.cells[0].label, "UE48H6200-s24");
        assert_eq!(spec.cells[0].configs.len(), 2);
        assert_eq!(spec.cells[0].configs[0].0, "conventional");
        assert_eq!(spec.cells[0].configs[1].0, "bb");
        assert_eq!(spec.total_boots(), 6);
        // Feature subsets rename the boosted config after the list.
        job.features = "preparser".into();
        let spec = job.sweep_spec().unwrap();
        assert_eq!(spec.cells[0].configs[1].0, "preparser");
        // Validation failures are errors, not exits.
        job.services = Some(8);
        assert!(job.sweep_spec().is_err());
        job.services = Some(24);
        job.features = "warp-drive".into();
        assert!(job.sweep_spec().is_err());
    }

    #[test]
    fn chaos_spec_builds_the_cli_grid() {
        let mut job = SweepArgs::new(JobKind::Chaos);
        job.services = Some(24);
        job.seeds = 2;
        let spec = job.chaos_spec().unwrap();
        assert_eq!(spec.cells.len(), 1);
        // 2 seeds x (4 plans + control) x (0 corruption + pristine) x 2 configs.
        assert_eq!(spec.total_boots(), 2 * 5 * 2);
        job.restart = "sometimes".into();
        assert!(job.chaos_spec().is_err());
        // Suspend jobs never reach the queue.
        assert!(SweepArgs::new(JobKind::Suspend).to_work_item().is_err());
    }

    #[test]
    fn requests_parse_and_responses_render() {
        let req =
            parse_request(r#"{"id": 3, "method": "submit", "job": {"kind": "sweep", "seeds": 2}}"#)
                .unwrap();
        match &req {
            Request::Submit { id, job } => {
                assert_eq!(*id, 3);
                assert_eq!(job.seeds, 2);
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert_eq!(req.id(), 3);
        let req = parse_request(r#"{"id": 9, "method": "wait", "ticket": 4}"#).unwrap();
        assert_eq!(req, Request::Wait { id: 9, ticket: 4 });
        assert!(parse_request(r#"{"id": 1, "method": "wait"}"#).is_err());
        assert!(parse_request(r#"{"id": 1, "method": "launch"}"#).is_err());
        assert!(parse_request("not json").is_err());

        let ok = render_ok(7, "\"ticket\": 12");
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("bb-serve-v1"));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("ticket"))
                .and_then(Json::as_f64),
            Some(12.0)
        );
        let err = render_err(7, "queue \"full\"");
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("queue \"full\"")
        );
    }

    /// Decodes a submit line carrying `job` and expands it into its work
    /// item, the path every served ticket takes.
    fn submit(job: &str) -> Result<WorkItem, String> {
        match parse_request(&format!(r#"{{"id": 1, "method": "submit", "job": {job}}}"#))? {
            Request::Submit { job, .. } => job.to_work_item(),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn hostile_grids_are_refused_before_any_axis_is_allocated() {
        // 4e9 seeds would collect a 32 GB seed list.
        let e = submit(r#"{"kind": "sweep", "seeds": 4e9}"#).unwrap_err();
        assert!(e.starts_with("grid too large"), "{e}");
        // A seed past 2^53 cannot survive the f64 wire number, and near
        // 2^64 the seed range end would overflow.
        let e = submit(r#"{"kind": "sweep", "seed": 1.8e19, "seeds": 2}"#).unwrap_err();
        assert!(e.contains("below 2^53"), "{e}");
        // 4e9 fault plans would collect a 64 GB plan axis.
        let e = submit(r#"{"kind": "chaos", "plans": 4e9}"#).unwrap_err();
        assert!(e.starts_with("grid too large"), "{e}");
        // A trillion-service scenario would reserve its unit list up
        // front.
        let e = submit(r#"{"kind": "sweep", "services": 1e12}"#).unwrap_err();
        assert!(e.contains("at most 20000"), "{e}");
        // The same limits hold for grids built from CLI flags, where
        // u64 seeds can reach the overflow directly.
        let mut job = SweepArgs::new(JobKind::Chaos);
        job.seed = Some(u64::MAX - 1);
        job.seeds = 2;
        assert!(job.chaos_spec().unwrap_err().contains("overflows"));
        job.seed = None;
        job.plan_seed = u64::MAX;
        job.plans = 1;
        assert!(job.chaos_spec().unwrap_err().contains("--plan-seed"));
        // The largest grids the docs and CI run are still admitted.
        let mut big = SweepArgs::new(JobKind::Chaos);
        big.profiles = "all".into();
        big.plans = 4;
        big.corruption = 3;
        assert!(big.to_work_item().is_ok());
        let mut wide = SweepArgs::new(JobKind::Sweep);
        wide.profiles = "all".into();
        wide.seeds = 50;
        wide.services = Some(20_000);
        assert!(wide.to_work_item().is_ok());
    }

    #[test]
    fn deeply_nested_request_lines_are_errors_not_aborts() {
        let hostile = "[".repeat(200_000);
        let e = parse_request(&hostile).unwrap_err();
        assert!(e.starts_with("bad request JSON"), "{e}");
        let nested_job = format!(
            r#"{{"id": 1, "method": "submit", "job": {}}}"#,
            "[".repeat(200_000)
        );
        assert!(parse_request(&nested_job).is_err());
    }
}
