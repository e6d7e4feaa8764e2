//! Grid specification: one cartesian grid of boot simulations for
//! sweeps and chaos runs alike.
//!
//! A [`SweepSpec`] is a list of *cells*. Each cell names a scenario
//! source (a synthetic Tizen workload or a fixed [`Scenario`]), the
//! seeds to instantiate it with, the [`BbConfig`]s to boot each
//! instance under, and two failure axes — fault plans and artifact
//! corruption plans — plus the supervision overlay and supervisor
//! deadline a chaos run boots with. One *job* is one `(cell, plan,
//! corruption, seed)` slot: the worker builds the scenario once and
//! boots every config against it, so the expensive regeneration work is
//! amortized across the whole config axis.
//!
//! A plain sweep is the same grid with both failure axes at their
//! pristine slot (`[None]`, the default) and no supervision; the ticket
//! kind ([`crate::WorkItem`]) picks how its jobs boot.

use std::sync::Arc;
use std::time::Duration;

use bb_core::booster::Scenario;
use bb_core::{with_supervision, BbConfig, FallbackPolicy, PreParser};
use bb_init::RestartPolicy;
use bb_sim::{fnv1a, FNV1A_OFFSET, FNV1A_PRIME};
use bb_workloads::{tv_scenario_with, MachineProfile, TizenParams};

/// Where a cell's boot scenarios come from.
#[derive(Debug, Clone)]
pub enum ScenarioSource {
    /// Generate the synthetic Tizen TV workload per seed: each job
    /// regenerates units, workloads, and false-ordering edges with its
    /// own seed (the sweep's variance axis).
    Tizen {
        /// Hardware profile to run on.
        profile: MachineProfile,
        /// Workload parameters; the `seed` field is overridden per job.
        params: TizenParams,
    },
    /// One fixed scenario shared by every seed slot (the seed then only
    /// addresses the result slot). Useful for scenario types the
    /// generator cannot express, and for fault-injection tests.
    Fixed(Arc<Scenario>),
}

/// Supervision overlay a chaos cell arms on every service unit.
#[derive(Debug, Clone, Copy)]
pub struct Supervision {
    /// Restart policy to apply.
    pub restart: RestartPolicy,
    /// `RestartSec=` backoff, milliseconds.
    pub restart_sec_ms: u64,
    /// `StartLimitBurst=` respawn bound.
    pub start_limit_burst: u32,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            restart: RestartPolicy::OnFailure,
            restart_sec_ms: 100,
            start_limit_burst: 3,
        }
    }
}

/// One cell of the grid.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell label; appears in reports and JSON.
    pub label: String,
    /// Scenario source.
    pub source: ScenarioSource,
    /// Seeds to instantiate the source with; one job per seed (per
    /// plan and corruption slot).
    pub seeds: Vec<u64>,
    /// Fault-plan axis: `None` is the fault-free control, `Some(seed)`
    /// a seeded [`bb_sim::FaultPlan`] over the scenario's fault
    /// targets. `[None]` by default.
    pub plan_seeds: Vec<Option<u64>>,
    /// Corruption axis: `None` is the pristine control (no artifact
    /// read staged, so the integrity chain never runs), `Some(seed)`
    /// damages the scenario's encoded pre-parse blob with
    /// [`bb_sim::CorruptionPlan::seeded`] and derives the read's
    /// transient-failure count from the same seed. `[None]` by default.
    pub corruption_seeds: Vec<Option<u64>>,
    /// Supervision overlay; `None` (the default) boots the units as
    /// authored.
    pub supervision: Option<Supervision>,
    /// `(label, config)` pairs each instance boots under. A config
    /// labeled `"conventional"` becomes a sweep cell's savings baseline.
    pub configs: Vec<(String, BbConfig)>,
    /// Boot-supervisor deadline of chaos boots, milliseconds; the
    /// [`FallbackPolicy`] default unless set.
    pub deadline_ms: u64,
}

impl CellSpec {
    fn new(label: String, source: ScenarioSource, seed: u64) -> Self {
        CellSpec {
            label,
            source,
            seeds: vec![seed],
            plan_seeds: vec![None],
            corruption_seeds: vec![None],
            supervision: None,
            configs: Vec::new(),
            deadline_ms: FallbackPolicy::default().deadline.as_millis(),
        }
    }

    /// A cell generating Tizen TV workloads on `profile`. Starts with
    /// `params.seed` as the only seed; override with [`CellSpec::seeds`].
    pub fn tizen(label: impl Into<String>, profile: MachineProfile, params: TizenParams) -> Self {
        let seed = params.seed;
        CellSpec::new(
            label.into(),
            ScenarioSource::Tizen { profile, params },
            seed,
        )
    }

    /// A cell booting one fixed scenario. Starts with a single seed 0
    /// (one job); add more to boot the identical scenario repeatedly.
    pub fn fixed(label: impl Into<String>, scenario: Scenario) -> Self {
        CellSpec::new(label.into(), ScenarioSource::Fixed(Arc::new(scenario)), 0)
    }

    /// Replaces the seed list.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the fault-plan axis to the control plan plus `n` seeded
    /// plans starting at `base`.
    pub fn fault_plans(mut self, n: u64, base: u64) -> Self {
        self.plan_seeds = control_plus(n, base);
        self
    }

    /// Sets the corruption axis to the pristine control plus `n` seeded
    /// corruption plans starting at `base`.
    pub fn corruption_plans(mut self, n: u64, base: u64) -> Self {
        self.corruption_seeds = control_plus(n, base);
        self
    }

    /// Replaces the supervision overlay.
    pub fn supervision(mut self, s: Option<Supervision>) -> Self {
        self.supervision = s;
        self
    }

    /// Sets the boot-supervisor deadline.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Adds one config to boot under.
    pub fn config(mut self, label: impl Into<String>, cfg: BbConfig) -> Self {
        self.configs.push((label.into(), cfg));
        self
    }

    /// Adds one config selected by pipeline pass names (see
    /// [`bb_core::STANDARD_PASSES`]): the boot enables exactly those
    /// passes. Ablation cells are pass-set selections — `&[]` is the
    /// conventional boot, the full list is the full Booting Booster.
    ///
    /// # Panics
    ///
    /// Panics on a pass name the standard pipeline does not know.
    pub fn pass_selection(self, label: impl Into<String>, passes: &[&str]) -> Self {
        let cfg = bb_core::Pipeline::standard()
            .config_for(passes)
            .unwrap_or_else(|| panic!("unknown pass in selection {passes:?}"));
        self.config(label, cfg)
    }

    /// Adds the standard pair of pass selections: `"conventional"` (no
    /// passes) and `"bb"` (every pass).
    pub fn conventional_vs_bb(self) -> Self {
        self.pass_selection("conventional", &[])
            .pass_selection("bb", &bb_core::STANDARD_PASSES)
    }

    /// Jobs this cell expands to: one per `(plan, corruption, seed)`.
    pub(crate) fn jobs(&self) -> usize {
        self.plan_seeds.len() * self.corruption_seeds.len() * self.seeds.len()
    }

    /// Boots this cell contributes to the grid.
    pub fn boots(&self) -> usize {
        self.jobs() * self.configs.len()
    }
}

/// The control slot followed by `n` seeded slots from `base`.
fn control_plus(n: u64, base: u64) -> Vec<Option<u64>> {
    std::iter::once(None)
        .chain((0..n).map(|i| Some(base + i)))
        .collect()
}

/// The full grid: cells plus execution policy that belongs to the
/// *work* (not the pool), i.e. the per-job deadline.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The grid.
    pub cells: Vec<CellSpec>,
    /// Per-job wall-clock deadline. A job whose boots take longer is
    /// reported as failed and excluded from aggregation. `None` = no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Collect per-boot telemetry spans ([`bb_core::boot_spans`]) and
    /// aggregate them into a [`crate::MetricsReport`] (`bb-metrics-v1`).
    pub metrics: bool,
    /// Accepted, and changes nothing: the fleet boots every config
    /// plain. A kernel-prefix fork ([`bb_core::Checkpoint`]) pays only
    /// where its save and restore cost less than the prefix they skip,
    /// and at 136 services they do not (0.032 + 0.044 ms against a
    /// 0.029 ms prefix, p50, traced on `sweep-served`). Callers that
    /// set it (`--fork-from kernel-handoff`) get the plain sweep's
    /// report, byte for byte.
    pub fork: bool,
    /// Deduplicate identical grid points: two boots with the same
    /// (scenario identity × seed × config) — across cells, across
    /// seed slots of a [`ScenarioSource::Fixed`] cell — are simulated
    /// once and the result is fanned out to every requesting slot.
    /// Simulation is deterministic, so reports stay byte-identical
    /// with dedup on or off (see `PoolStats::cells_deduped`); on by
    /// default, opt out with [`SweepSpec::with_dedup`] to force every
    /// slot to re-simulate.
    pub dedup: bool,
}

/// The chaos grid is the sweep grid: cells whose fault-plan and
/// corruption axes hold seeded slots, submitted as
/// [`crate::WorkItem::Chaos`].
pub type ChaosSpec = SweepSpec;

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            cells: Vec::new(),
            deadline: None,
            metrics: false,
            fork: false,
            dedup: true,
        }
    }
}

impl SweepSpec {
    /// An empty grid.
    pub fn new() -> Self {
        SweepSpec::default()
    }

    /// Adds a cell.
    pub fn cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Sets the per-job deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables span metrics collection (see [`SweepSpec::metrics`]).
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets [`SweepSpec::fork`] (a no-op in the fleet).
    pub fn with_fork(mut self, fork: bool) -> Self {
        self.fork = fork;
        self
    }

    /// Enables or disables grid-point dedup (see [`SweepSpec::dedup`];
    /// on by default).
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Total boots across the grid.
    pub fn total_boots(&self) -> usize {
        self.cells.iter().map(CellSpec::boots).sum()
    }

    /// Expands the grid into jobs in deterministic (cell, plan,
    /// corruption, seed) order. A job's position in this list is its
    /// flat index — the address of its result slot.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (cell, c) in self.cells.iter().enumerate() {
            for plan_idx in 0..c.plan_seeds.len() {
                for corr_idx in 0..c.corruption_seeds.len() {
                    for seed_idx in 0..c.seeds.len() {
                        jobs.push(Job {
                            cell,
                            plan_idx,
                            corr_idx,
                            seed_idx,
                        });
                    }
                }
            }
        }
        jobs
    }
}

/// One unit of pool work: all configs of one `(cell, plan, corruption,
/// seed)` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index into [`SweepSpec::cells`].
    pub cell: usize,
    /// Index into that cell's plan list.
    pub plan_idx: usize,
    /// Index into that cell's corruption list.
    pub corr_idx: usize,
    /// Index into that cell's seed list.
    pub seed_idx: usize,
}

/// Content fingerprint of a cell's scenario *source* and supervision
/// overlay: `(hash, seed_dependent)`. Two cells with equal fingerprints
/// instantiate identical scenarios for equal seeds — the key of a
/// ticket's scenario share and of grid dedup (see [`SweepSpec::dedup`]).
/// An unsupervised cell hashes its source alone; a supervised one also
/// mixes in its [`Supervision`], which rewrites every service unit.
///
/// `Tizen` sources hash the profile and the parameters with the seed
/// field canonicalized to zero (the per-job seed is mixed in by
/// [`job_fingerprint`], because the generator derives durations, I/O
/// sizes, *and* false-ordering edges from it). `Fixed` sources hash the
/// scenario content itself and are seed-independent: every seed slot
/// boots the very same template.
pub(crate) fn cell_fingerprint(cell: &CellSpec) -> (u64, bool) {
    let overlay = cell
        .supervision
        .map_or(String::new(), |s| format!("|{s:?}"));
    match &cell.source {
        ScenarioSource::Tizen { profile, params } => {
            let canonical = TizenParams { seed: 0, ..*params };
            let h = fnv1a(
                FNV1A_OFFSET,
                FNV1A_PRIME,
                format!("{profile:?}|{canonical:?}{overlay}").as_bytes(),
            );
            (h, true)
        }
        ScenarioSource::Fixed(s) => (
            fnv1a(
                FNV1A_OFFSET,
                FNV1A_PRIME,
                format!("{s:?}{overlay}").as_bytes(),
            ),
            false,
        ),
    }
}

/// Mixes a job's seed into its cell's source fingerprint (identity for
/// seed-independent sources).
pub(crate) fn job_fingerprint(base: u64, seed_dependent: bool, seed: u64) -> u64 {
    if seed_dependent {
        fnv1a(base, FNV1A_PRIME, &seed.to_le_bytes())
    } else {
        base
    }
}

/// Materializes the scenario a job boots — the cell's fixed scenario
/// (shared, not cloned) or a freshly generated instance, with the
/// supervision overlay applied — and measures its [`PreParser`]. Sweep
/// and chaos jobs alike boot what this returns.
pub(crate) fn job_scenario(cell: &CellSpec, seed: u64) -> (Arc<Scenario>, PreParser) {
    let scenario = match &cell.source {
        ScenarioSource::Fixed(s) => Arc::clone(s),
        ScenarioSource::Tizen { profile, params } => {
            Arc::new(tv_scenario_with(*profile, TizenParams { seed, ..*params }))
        }
    };
    let scenario = match cell.supervision {
        Some(s) => Arc::new(with_supervision(
            &scenario,
            s.restart,
            s.restart_sec_ms,
            s.start_limit_burst,
        )),
        None => scenario,
    };
    let pre = PreParser::build(&scenario.units);
    (scenario, pre)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_workloads::profiles;

    fn small_cell() -> CellSpec {
        CellSpec::tizen(
            "small",
            profiles::ue48h6200(),
            TizenParams {
                services: 24,
                ..TizenParams::open_source()
            },
        )
    }

    #[test]
    fn jobs_expand_in_cell_then_seed_order() {
        let spec = SweepSpec::new()
            .cell(small_cell().seeds([1, 2, 3]).conventional_vs_bb())
            .cell(small_cell().seeds([7]).config("bb", BbConfig::full()));
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        let job = |cell, seed_idx| Job {
            cell,
            plan_idx: 0,
            corr_idx: 0,
            seed_idx,
        };
        assert_eq!(jobs[0], job(0, 0));
        assert_eq!(jobs[2], job(0, 2));
        assert_eq!(jobs[3], job(1, 0));
        assert_eq!(spec.total_boots(), 3 * 2 + 1);
    }

    #[test]
    fn fault_axes_expand_plan_then_corruption_then_seed() {
        let spec = SweepSpec::new().cell(
            small_cell()
                .seeds([1, 2])
                .fault_plans(2, 100)
                .corruption_plans(1, 500)
                .conventional_vs_bb(),
        );
        let cell = &spec.cells[0];
        assert_eq!(cell.plan_seeds, [None, Some(100), Some(101)]);
        assert_eq!(cell.corruption_seeds, [None, Some(500)]);
        assert_eq!(spec.total_boots(), 3 * 2 * 2 * 2);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 12);
        let at = |i: usize| (jobs[i].plan_idx, jobs[i].corr_idx, jobs[i].seed_idx);
        assert_eq!(at(0), (0, 0, 0));
        assert_eq!(at(1), (0, 0, 1));
        assert_eq!(at(2), (0, 1, 0));
        assert_eq!(at(4), (1, 0, 0));
        assert_eq!(at(11), (2, 1, 1));
    }

    #[test]
    fn cells_default_to_the_pristine_unsupervised_slot() {
        let cell = small_cell();
        assert_eq!(cell.plan_seeds, [None]);
        assert_eq!(cell.corruption_seeds, [None]);
        assert!(cell.supervision.is_none());
        assert_eq!(
            cell.deadline_ms,
            FallbackPolicy::default().deadline.as_millis()
        );
    }

    #[test]
    fn conventional_vs_bb_is_the_conventional_and_full_configs() {
        let cell = small_cell().conventional_vs_bb();
        assert_eq!(
            cell.configs,
            [
                ("conventional".to_owned(), BbConfig::conventional()),
                ("bb".to_owned(), BbConfig::full()),
            ]
        );
    }

    #[test]
    fn tizen_jobs_regenerate_per_seed() {
        let cell = small_cell().seeds([10, 11]).conventional_vs_bb();
        let (a, _) = job_scenario(&cell, 10);
        let (b, _) = job_scenario(&cell, 11);
        // Different seeds draw different service durations.
        assert_ne!(
            format!("{:?}", a.workloads),
            format!("{:?}", b.workloads),
            "seeds should vary the generated workload"
        );
    }

    #[test]
    fn fingerprints_key_source_content_not_labels() {
        // Same source, different labels: identical fingerprints — the
        // sharing key must not split on presentation.
        let (fa, dep_a) = cell_fingerprint(&small_cell());
        let (fb, dep_b) =
            cell_fingerprint(&small_cell().seeds([9, 10]).config("bb", BbConfig::full()));
        assert_eq!((fa, dep_a), (fb, dep_b));
        assert!(dep_a, "Tizen sources are seed-dependent");

        // The params seed field is canonicalized away: only the job
        // seed (mixed by job_fingerprint) distinguishes instances.
        let mut reseeded = small_cell();
        if let ScenarioSource::Tizen { params, .. } = &mut reseeded.source {
            params.seed = 999;
        }
        assert_eq!(cell_fingerprint(&reseeded).0, fa);

        // Different generator parameters split.
        let other = CellSpec::tizen(
            "other",
            profiles::ue48h6200(),
            TizenParams {
                services: 25,
                ..TizenParams::open_source()
            },
        );
        assert_ne!(cell_fingerprint(&other).0, fa);

        // A supervision overlay rewrites the service units: it splits.
        let supervised = small_cell().supervision(Some(Supervision::default()));
        assert_ne!(cell_fingerprint(&supervised).0, fa);

        // Seeds split seed-dependent sources, never fixed ones.
        assert_ne!(job_fingerprint(fa, true, 1), job_fingerprint(fa, true, 2));
        assert_eq!(job_fingerprint(fa, false, 1), job_fingerprint(fa, false, 2));

        // Fixed sources fingerprint their content, seed-independent.
        let scenario = tv_scenario_with(
            profiles::ue48h6200(),
            TizenParams {
                services: 24,
                ..TizenParams::open_source()
            },
        );
        let fixed_a = CellSpec::fixed("a", scenario.clone());
        let fixed_b = CellSpec::fixed("b", scenario);
        let (ga, gdep) = cell_fingerprint(&fixed_a);
        assert_eq!(ga, cell_fingerprint(&fixed_b).0);
        assert!(!gdep);
    }

    #[test]
    fn fixed_cells_share_one_template() {
        let scenario = tv_scenario_with(
            profiles::ue48h6200(),
            TizenParams {
                services: 24,
                ..TizenParams::open_source()
            },
        );
        let spec = SweepSpec::new().cell(
            CellSpec::fixed("pinned", scenario)
                .seeds([0, 1, 2])
                .config("bb", BbConfig::full()),
        );
        let (a, pre_a) = job_scenario(&spec.cells[0], 0);
        let (b, pre_b) = job_scenario(&spec.cells[0], 1);
        assert!(
            Arc::ptr_eq(&a, &b),
            "fixed cells must not clone the scenario"
        );
        assert_eq!(pre_a, pre_b);
    }
}
