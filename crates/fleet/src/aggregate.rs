//! The slot store every ticket aggregates into, and the sweep report.
//!
//! The slot store (`Aggregator`) accepts job results as they arrive
//! (any order) and stores each into the slot its flat job index
//! addresses. Its `sweep_report` (and, for chaos tickets, its
//! `chaos_report` in [`crate::chaos`]) then computes every
//! statistic by walking the slots in job order — so the resulting
//! report (and its JSON form) is byte-identical for any worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bb_sim::telemetry::percentile_of;

use crate::json::{self, Json};
use crate::pool::{BootSample, FailureKind, JobOutput};
use crate::spec::{CellSpec, SweepSpec};

/// One job's result slot: its samples (one per config), or the stable
/// reason it failed. `None` until the job lands.
pub(crate) type Slot = Option<Result<Vec<BootSample>, String>>;

/// Accumulates one ticket's job results into slots addressed by flat
/// job index (see [`SweepSpec::jobs`]), plus the deterministic work
/// counters of its completed jobs.
#[derive(Debug, Default)]
pub(crate) struct Aggregator {
    pub(crate) slots: Vec<Slot>,
    pub(crate) kernel_sims: usize,
    pub(crate) peak_events: usize,
    pub(crate) deduped: usize,
    pub(crate) restarts: usize,
    pub(crate) recoveries: usize,
    pub(crate) artifacts_rejected: usize,
}

impl Aggregator {
    /// Allocates one empty slot per job.
    pub(crate) fn new(jobs: usize) -> Self {
        Aggregator {
            slots: vec![None; jobs],
            ..Aggregator::default()
        }
    }

    /// Accepts job `index`'s result, in arrival (nondeterministic)
    /// order.
    pub(crate) fn accept(&mut self, index: usize, result: Result<JobOutput, FailureKind>) {
        debug_assert!(self.slots[index].is_none(), "slot filled twice");
        self.slots[index] = Some(match result {
            Ok(out) => {
                self.kernel_sims += out.kernel_sims;
                self.peak_events = self.peak_events.max(out.peak_events);
                self.deduped += out.deduped;
                for s in &out.samples {
                    self.restarts += s.restarts as usize;
                    self.recoveries += s.recoveries as usize;
                    self.artifacts_rejected += s.artifacts_rejected as usize;
                }
                Ok(out.samples)
            }
            Err(kind) => Err(kind.reason()),
        });
    }

    /// Splits the slots into each cell's run of jobs, in spec order.
    pub(crate) fn by_cell<'a>(
        &'a self,
        spec: &'a SweepSpec,
    ) -> impl Iterator<Item = (&'a CellSpec, &'a [Slot])> + 'a {
        let mut rest = self.slots.as_slice();
        spec.cells.iter().map(move |cell| {
            let (mine, tail) = rest.split_at(cell.jobs());
            rest = tail;
            (cell, mine)
        })
    }

    /// Computes the sweep report, walking slots in job order.
    pub(crate) fn sweep_report(&self, spec: &SweepSpec) -> SweepReport {
        let mut failures = Vec::new();
        let mut total_boots = 0;
        let mut cells = Vec::new();
        let mut per_cell = Vec::new();
        for (cell, slots) in self.by_cell(spec) {
            let mut done: Vec<&[BootSample]> = Vec::new();
            for (i, slot) in slots.iter().enumerate() {
                match slot {
                    Some(Ok(samples)) => done.push(samples),
                    Some(Err(reason)) => failures.push(FailureReport {
                        cell: cell.label.clone(),
                        seed: cell.seeds[i % cell.seeds.len()],
                        reason: reason.clone(),
                    }),
                    None => {}
                }
            }
            // Samples in seed (slot) order, skipping failed slots.
            let column = |k: usize| -> Vec<u64> { done.iter().map(|s| s[k].boot_ns).collect() };
            let baseline = cell
                .configs
                .iter()
                .position(|(l, _)| l == "conventional")
                .and_then(|k| mean(&column(k)));
            let configs = cell
                .configs
                .iter()
                .enumerate()
                .map(|(k, (label, _))| {
                    let samples = column(k);
                    total_boots += samples.len();
                    config_stats(label, samples, baseline)
                })
                .collect();
            cells.push(CellReport {
                label: cell.label.clone(),
                seeds: cell.seeds.len(),
                completed: done.len(),
                configs,
            });
            per_cell.push((cell, done));
        }
        let spans_present = per_cell
            .iter()
            .flat_map(|(_, done)| done.iter().copied().flatten())
            .any(|s| s.spans.is_some());
        SweepReport {
            cells,
            failures,
            total_boots,
            metrics: spans_present.then(|| MetricsReport {
                cells: per_cell
                    .iter()
                    .map(|(cell, done)| cell_metrics(cell, done))
                    .collect(),
            }),
        }
    }
}

/// Aggregates one cell's span durations per config, walking the
/// completed slots in job order.
fn cell_metrics(cell: &CellSpec, done: &[&[BootSample]]) -> CellMetrics {
    CellMetrics {
        label: cell.label.clone(),
        configs: cell
            .configs
            .iter()
            .enumerate()
            .map(|(k, (label, _))| {
                // Span durations keyed by name, accumulated in slot
                // order so arrival order cannot leak in.
                let mut by_span: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
                for samples in done {
                    for (name, dur) in samples[k].spans.iter().flatten() {
                        by_span.entry(name).or_default().push(*dur);
                    }
                }
                ConfigMetrics {
                    label: label.clone(),
                    spans: by_span
                        .into_iter()
                        .map(|(name, mut durs)| {
                            durs.sort_unstable();
                            SpanStats {
                                name: name.to_owned(),
                                count: durs.len(),
                                p50_ns: percentile_of(&durs, 50).unwrap_or(0),
                                p95_ns: percentile_of(&durs, 95).unwrap_or(0),
                                p99_ns: percentile_of(&durs, 99).unwrap_or(0),
                            }
                        })
                        .collect(),
                }
            })
            .collect(),
    }
}

fn mean(samples: &[u64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().map(|&n| n as f64).sum::<f64>() / samples.len() as f64)
    }
}

/// One config's statistics over its samples in slot order. Every
/// config but `"conventional"` itself reports its saving against the
/// cell's conventional mean.
fn config_stats(label: &str, mut samples: Vec<u64>, baseline_mean_ns: Option<f64>) -> ConfigStats {
    let count = samples.len();
    let Some(mean_ns) = mean(&samples) else {
        return ConfigStats {
            label: label.to_owned(),
            ..ConfigStats::default()
        };
    };
    let var = samples
        .iter()
        .map(|&n| {
            let d = n as f64 - mean_ns;
            d * d
        })
        .sum::<f64>()
        / count as f64;
    samples.sort_unstable();
    let (saving_ms, saving_pct) = match baseline_mean_ns {
        Some(base) if label != "conventional" && base > 0.0 => (
            Some((base - mean_ns) / 1e6),
            Some(100.0 * (1.0 - mean_ns / base)),
        ),
        _ => (None, None),
    };
    ConfigStats {
        label: label.to_owned(),
        count,
        mean_ns,
        stddev_ns: var.sqrt(),
        min_ns: samples[0],
        max_ns: samples[count - 1],
        p50_ns: percentile_of(&samples, 50).unwrap_or(0),
        p95_ns: percentile_of(&samples, 95).unwrap_or(0),
        p99_ns: percentile_of(&samples, 99).unwrap_or(0),
        saving_ms,
        saving_pct,
    }
}

/// Aggregated statistics for one config within one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigStats {
    /// Config label.
    pub label: String,
    /// Completed boots.
    pub count: usize,
    /// Mean boot time, simulated ns.
    pub mean_ns: f64,
    /// Population standard deviation, simulated ns.
    pub stddev_ns: f64,
    /// Fastest boot, simulated ns.
    pub min_ns: u64,
    /// Slowest boot, simulated ns.
    pub max_ns: u64,
    /// Median (nearest-rank), simulated ns.
    pub p50_ns: u64,
    /// 95th percentile (nearest-rank), simulated ns.
    pub p95_ns: u64,
    /// 99th percentile (nearest-rank), simulated ns.
    pub p99_ns: u64,
    /// Mean saving vs the cell's `"conventional"` config, ms.
    pub saving_ms: Option<f64>,
    /// Mean saving vs `"conventional"`, percent.
    pub saving_pct: Option<f64>,
}

/// Aggregated results for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell label.
    pub label: String,
    /// Seed slots specified.
    pub seeds: usize,
    /// Seed slots that completed (rest failed).
    pub completed: usize,
    /// Per-config statistics, in config order.
    pub configs: Vec<ConfigStats>,
}

/// One failed job in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureReport {
    /// Cell label.
    pub cell: String,
    /// Seed that was running.
    pub seed: u64,
    /// Stable reason line (no host-time content).
    pub reason: String,
}

/// Aggregated span statistics for one config within one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span name (e.g. `unit/dbus.service`, `kernel/driver-probe`).
    pub name: String,
    /// Samples aggregated (one per completed boot emitting the span).
    pub count: usize,
    /// Median duration (nearest-rank), simulated ns.
    pub p50_ns: u64,
    /// 95th percentile duration, simulated ns.
    pub p95_ns: u64,
    /// 99th percentile duration, simulated ns.
    pub p99_ns: u64,
}

/// Span statistics for one config of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigMetrics {
    /// Config label.
    pub label: String,
    /// Per-span statistics, sorted by span name.
    pub spans: Vec<SpanStats>,
}

/// Span statistics for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellMetrics {
    /// Cell label.
    pub label: String,
    /// Per-config statistics, in config order.
    pub configs: Vec<ConfigMetrics>,
}

/// Aggregated telemetry spans across a sweep (`bb-metrics-v1`).
///
/// Built in slot order at finalize, so — like the
/// [`SweepReport`] itself — its JSON form is byte-identical for any
/// worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Per-cell span statistics, in spec order.
    pub cells: Vec<CellMetrics>,
}

impl MetricsReport {
    /// Serializes as deterministic JSON stamped `bb-metrics-v1`.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_METRICS);
        out.push_str("  \"cells\": ");
        json::array(&mut out, 2, &self.cells, |out, cell| {
            let _ = write!(
                out,
                "{{\"label\": \"{}\", \"configs\": ",
                json::escape(&cell.label)
            );
            json::array(out, 4, &cell.configs, |out, c| {
                let _ = write!(
                    out,
                    "{{\"label\": \"{}\", \"spans\": ",
                    json::escape(&c.label)
                );
                json::array(out, 6, &c.spans, |out, s| {
                    let _ = write!(
                        out,
                        "{{\"name\": \"{}\", \"count\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}",
                        json::escape(&s.name),
                        s.count,
                        json::ms(s.p50_ns as f64),
                        json::ms(s.p95_ns as f64),
                        json::ms(s.p99_ns as f64),
                    );
                });
                out.push('}');
            });
            out.push('}');
        });
        out.push_str("\n}\n");
        out
    }
}

/// The deterministic output of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell results, in spec order.
    pub cells: Vec<CellReport>,
    /// Failed jobs, sorted by (cell index, seed index).
    pub failures: Vec<FailureReport>,
    /// Completed boots across all cells.
    pub total_boots: usize,
    /// Aggregated span telemetry; `Some` only when the sweep ran with
    /// [`SweepSpec::with_metrics`](crate::SweepSpec::with_metrics).
    pub metrics: Option<MetricsReport>,
}

impl SweepReport {
    /// Serializes the report as deterministic JSON: fixed key order,
    /// fixed `{:.3}` ms floats, no host-time fields. Byte-identical for
    /// any worker count.
    pub fn to_json(&self) -> String {
        let mut out = json::open_document(json::SCHEMA_FLEET);
        out.push_str("  \"cells\": ");
        json::array(&mut out, 2, &self.cells, |out, cell| {
            let _ = write!(
                out,
                "{{\"label\": \"{}\", \"seeds\": {}, \"completed\": {}, \"configs\": ",
                json::escape(&cell.label),
                cell.seeds,
                cell.completed
            );
            json::array(out, 4, &cell.configs, |out, c| {
                let _ = write!(
                    out,
                    "{{\"label\": \"{}\", \"count\": {}, \"mean_ms\": {}, \"stddev_ms\": {}, \"min_ms\": {}, \"max_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}",
                    json::escape(&c.label),
                    c.count,
                    json::ms(c.mean_ns),
                    json::ms(c.stddev_ns),
                    json::ms(c.min_ns as f64),
                    json::ms(c.max_ns as f64),
                    json::ms(c.p50_ns as f64),
                    json::ms(c.p95_ns as f64),
                    json::ms(c.p99_ns as f64),
                );
                if let (Some(ms), Some(pct)) = (c.saving_ms, c.saving_pct) {
                    let _ = write!(out, ", \"saving_ms\": {ms:.3}, \"saving_pct\": {pct:.3}");
                }
                out.push('}');
            });
            out.push('}');
        });
        out.push_str(",\n  \"failures\": ");
        json::array(&mut out, 2, &self.failures, |out, f| {
            let _ = write!(
                out,
                "{{\"cell\": \"{}\", \"seed\": {}, \"reason\": \"{}\"}}",
                json::escape(&f.cell),
                f.seed,
                json::escape(&f.reason)
            );
        });
        let _ = write!(out, ",\n  \"total_boots\": {}\n}}\n", self.total_boots);
        out
    }

    /// Human-readable table for terminals.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "{} ({} of {} seeds completed)",
                cell.label, cell.completed, cell.seeds
            );
            let _ = writeln!(
                out,
                "  {:<16} {:>6} {:>10} {:>9} {:>10} {:>10} {:>10}  saving",
                "config", "boots", "mean", "stddev", "p50", "p95", "p99"
            );
            for c in &cell.configs {
                let saving = match (c.saving_ms, c.saving_pct) {
                    (Some(ms), Some(pct)) => format!("{ms:.0} ms ({pct:.1}%)"),
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  {:<16} {:>6} {:>8.0}ms {:>7.1}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms  {}",
                    c.label,
                    c.count,
                    c.mean_ns / 1e6,
                    c.stddev_ns / 1e6,
                    c.p50_ns as f64 / 1e6,
                    c.p95_ns as f64 / 1e6,
                    c.p99_ns as f64 / 1e6,
                    saving
                );
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "failures ({}):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  {} seed {}: {}", f.cell, f.seed, f.reason);
            }
        }
        let _ = writeln!(out, "total boots aggregated: {}", self.total_boots);
        out
    }

    /// Compares this report against a previously saved JSON baseline.
    /// Entries whose mean drifted more than `tolerance_pct` percent are
    /// flagged as regressions (slower) or improvements (faster).
    pub fn diff_baseline(
        &self,
        baseline_json: &str,
        tolerance_pct: f64,
    ) -> Result<Vec<DiffEntry>, json::JsonError> {
        let baseline = json::parse(baseline_json)?;
        let rows = self.cells.iter().flat_map(|cell| {
            cell.configs
                .iter()
                .map(move |cfg| (cell.label.clone(), cfg.label.clone(), cfg.mean_ns / 1e6))
        });
        diff_rows(rows, &baseline, tolerance_pct)
    }
}

/// Compares a saved `bb-fleet-v1` document against a baseline document
/// without reconstructing the report — what `bbsim submit --baseline`
/// runs on the streamed artifact. Means are read back from the
/// document's fixed `{:.3}` formatting, so a verdict sitting exactly
/// on the tolerance edge can differ from the in-process
/// [`SweepReport::diff_baseline`] by one rounding ulp.
pub fn diff_baseline_json(
    current_json: &str,
    baseline_json: &str,
    tolerance_pct: f64,
) -> Result<Vec<DiffEntry>, json::JsonError> {
    let current = json::parse(current_json)?;
    let baseline = json::parse(baseline_json)?;
    let cells = current
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or(json::JsonError {
            pos: 0,
            msg: "report has no cells array".into(),
        })?;
    let mut rows = Vec::new();
    for cell in cells {
        let label = cell
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        for cfg in cell.get("configs").and_then(Json::as_arr).unwrap_or(&[]) {
            let cfg_label = cfg
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned();
            let mean_ms = cfg.get("mean_ms").and_then(Json::as_f64).unwrap_or(0.0);
            rows.push((label.clone(), cfg_label, mean_ms));
        }
    }
    diff_rows(rows.into_iter(), &baseline, tolerance_pct)
}

/// The shared comparison: each row is `(cell label, config label,
/// current mean ms)`, looked up against the baseline document's cells.
fn diff_rows(
    rows: impl Iterator<Item = (String, String, f64)>,
    baseline: &Json,
    tolerance_pct: f64,
) -> Result<Vec<DiffEntry>, json::JsonError> {
    let cells = baseline
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or(json::JsonError {
            pos: 0,
            msg: "baseline has no cells array".into(),
        })?;
    let mut diffs = Vec::new();
    for (cell_label, cfg_label, current_ms) in rows {
        let base_mean_ms = cells
            .iter()
            .find(|c| c.get("label").and_then(Json::as_str) == Some(cell_label.as_str()))
            .and_then(|bc| bc.get("configs"))
            .and_then(Json::as_arr)
            .and_then(|cfgs| {
                cfgs.iter()
                    .find(|c| c.get("label").and_then(Json::as_str) == Some(cfg_label.as_str()))
            })
            .and_then(|c| c.get("mean_ms"))
            .and_then(Json::as_f64);
        diffs.push(match base_mean_ms {
            None => DiffEntry {
                cell: cell_label,
                config: cfg_label,
                baseline_ms: None,
                current_ms,
                delta_pct: None,
                verdict: DiffVerdict::NewCell,
            },
            Some(base) => {
                let delta_pct = if base > 0.0 {
                    100.0 * (current_ms - base) / base
                } else {
                    0.0
                };
                let verdict = if delta_pct > tolerance_pct {
                    DiffVerdict::Regression
                } else if delta_pct < -tolerance_pct {
                    DiffVerdict::Improvement
                } else {
                    DiffVerdict::Unchanged
                };
                DiffEntry {
                    cell: cell_label,
                    config: cfg_label,
                    baseline_ms: Some(base),
                    current_ms,
                    delta_pct: Some(delta_pct),
                    verdict,
                }
            }
        });
    }
    Ok(diffs)
}

/// How one (cell, config) mean compares against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Within tolerance.
    Unchanged,
    /// Slower than baseline beyond tolerance.
    Regression,
    /// Faster than baseline beyond tolerance.
    Improvement,
    /// Not present in the baseline.
    NewCell,
}

/// One row of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Cell label.
    pub cell: String,
    /// Config label.
    pub config: String,
    /// Baseline mean, ms (None if the baseline lacks this entry).
    pub baseline_ms: Option<f64>,
    /// Current mean, ms.
    pub current_ms: f64,
    /// Relative drift, percent (None if no baseline entry).
    pub delta_pct: Option<f64>,
    /// Classification at the requested tolerance.
    pub verdict: DiffVerdict,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}: ", self.cell, self.config)?;
        match (self.baseline_ms, self.delta_pct) {
            (Some(base), Some(delta)) => write!(
                f,
                "{:.1} -> {:.1} ms ({:+.2}%) {:?}",
                base, self.current_ms, delta, self.verdict
            ),
            _ => write!(f, "{:.1} ms (no baseline)", self.current_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CellSpec;
    use bb_workloads::{profiles, TizenParams};

    fn two_seed_spec() -> SweepSpec {
        SweepSpec::new().cell(
            CellSpec::tizen("cell-a", profiles::ue48h6200(), TizenParams::open_source())
                .seeds([5, 6])
                .conventional_vs_bb(),
        )
    }

    fn output(boots: &[u64]) -> JobOutput {
        JobOutput {
            samples: boots
                .iter()
                .map(|&boot_ns| BootSample {
                    boot_ns,
                    ..BootSample::default()
                })
                .collect(),
            ..JobOutput::default()
        }
    }

    fn store(spec: &SweepSpec) -> Aggregator {
        Aggregator::new(spec.jobs().len())
    }

    #[test]
    fn aggregation_is_order_independent() {
        let spec = two_seed_spec();
        let mut a = store(&spec);
        a.accept(0, Ok(output(&[8_000_000_000, 3_000_000_000])));
        a.accept(1, Ok(output(&[9_000_000_000, 3_500_000_000])));
        let mut b = store(&spec);
        b.accept(1, Ok(output(&[9_000_000_000, 3_500_000_000])));
        b.accept(0, Ok(output(&[8_000_000_000, 3_000_000_000])));
        let (ra, rb) = (a.sweep_report(&spec), b.sweep_report(&spec));
        assert_eq!(ra, rb);
        assert_eq!(ra.to_json(), rb.to_json());
    }

    #[test]
    fn stats_and_savings_compute() {
        let spec = two_seed_spec();
        let mut agg = store(&spec);
        agg.accept(0, Ok(output(&[8_000_000_000, 3_000_000_000])));
        agg.accept(1, Ok(output(&[10_000_000_000, 3_000_000_000])));
        let report = agg.sweep_report(&spec);
        let conv = &report.cells[0].configs[0];
        let bb = &report.cells[0].configs[1];
        assert_eq!(conv.count, 2);
        assert_eq!(conv.mean_ns, 9.0e9);
        assert_eq!(conv.stddev_ns, 1.0e9);
        assert_eq!(conv.min_ns, 8_000_000_000);
        assert_eq!(conv.max_ns, 10_000_000_000);
        assert_eq!(conv.p50_ns, 8_000_000_000);
        assert_eq!(conv.p99_ns, 10_000_000_000);
        assert!(conv.saving_ms.is_none(), "baseline has no saving vs itself");
        assert_eq!(bb.saving_ms, Some(6000.0));
        let pct = bb.saving_pct.unwrap();
        assert!((pct - 66.666).abs() < 0.01, "{pct}");
    }

    #[test]
    fn failures_sort_deterministically_and_keep_slots_empty() {
        let spec = two_seed_spec();
        let mut agg = store(&spec);
        agg.accept(1, Err(FailureKind::Panic("boom".into())));
        agg.accept(0, Ok(output(&[8_000_000_000, 3_000_000_000])));
        let report = agg.sweep_report(&spec);
        assert_eq!(report.cells[0].completed, 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].reason, "panic: boom");
        assert_eq!(report.total_boots, 2);
    }

    #[test]
    fn json_output_parses_back() {
        let spec = two_seed_spec();
        let mut agg = store(&spec);
        agg.accept(0, Ok(output(&[8_000_000_000, 3_000_000_000])));
        agg.accept(1, Ok(output(&[9_000_000_000, 3_200_000_000])));
        let report = agg.sweep_report(&spec);
        let parsed = json::parse(&report.to_json()).expect("sweep JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("bb-fleet-v1")
        );
        assert_eq!(parsed.get("total_boots").and_then(Json::as_f64), Some(4.0));
        let cells = parsed.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        let mean = cells[0].get("configs").and_then(Json::as_arr).unwrap()[0]
            .get("mean_ms")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((mean - 8500.0).abs() < 0.001);
    }

    #[test]
    fn baseline_diff_classifies_drift() {
        let spec = two_seed_spec();
        let mut agg = store(&spec);
        agg.accept(0, Ok(output(&[8_000_000_000, 3_000_000_000])));
        agg.accept(1, Ok(output(&[9_000_000_000, 3_200_000_000])));
        let report = agg.sweep_report(&spec);
        let baseline = report.to_json();

        // Same data → everything unchanged.
        let diffs = report.diff_baseline(&baseline, 1.0).unwrap();
        assert!(diffs.iter().all(|d| d.verdict == DiffVerdict::Unchanged));

        // A much faster baseline → we look like a regression.
        let fast = baseline.replace("\"mean_ms\": 8500.000", "\"mean_ms\": 4000.000");
        let diffs = report.diff_baseline(&fast, 1.0).unwrap();
        assert_eq!(diffs[0].verdict, DiffVerdict::Regression);
        assert!(diffs[0].to_string().contains('%'));

        // Unknown baseline cell → NewCell.
        let diffs = report.diff_baseline("{\"cells\": []}", 1.0).unwrap();
        assert!(diffs.iter().all(|d| d.verdict == DiffVerdict::NewCell));

        // Garbage baseline → error.
        assert!(report.diff_baseline("not json", 1.0).is_err());
    }

    #[test]
    fn span_metrics_aggregate_in_slot_order() {
        let spec = two_seed_spec();
        let with_spans = |mut out: JobOutput, ns: u64| {
            out.samples[0].spans = Some(vec![("unit/a.service".to_owned(), ns)]);
            out.samples[1].spans = Some(vec![("unit/a.service".to_owned(), ns / 2)]);
            out
        };
        let mut a = store(&spec);
        a.accept(0, Ok(with_spans(output(&[8e9 as u64, 3e9 as u64]), 100)));
        a.accept(1, Ok(with_spans(output(&[9e9 as u64, 4e9 as u64]), 200)));
        let mut b = store(&spec);
        b.accept(1, Ok(with_spans(output(&[9e9 as u64, 4e9 as u64]), 200)));
        b.accept(0, Ok(with_spans(output(&[8e9 as u64, 3e9 as u64]), 100)));
        let (ra, rb) = (a.sweep_report(&spec), b.sweep_report(&spec));

        // Same metrics (and bytes) regardless of arrival order.
        assert_eq!(ra.metrics, rb.metrics);
        let m = ra.metrics.as_ref().expect("span data present");
        assert_eq!(m.to_json(), rb.metrics.as_ref().unwrap().to_json());
        let conv = &m.cells[0].configs[0].spans[0];
        assert_eq!(
            (conv.name.as_str(), conv.count, conv.p50_ns, conv.p99_ns),
            ("unit/a.service", 2, 100, 200)
        );

        // The metrics document is stamped and parses back.
        let parsed = json::parse(&m.to_json()).expect("metrics JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("bb-metrics-v1")
        );

        // No span data → no metrics report.
        let mut plain = store(&spec);
        plain.accept(0, Ok(output(&[8e9 as u64, 3e9 as u64])));
        assert!(plain.sweep_report(&spec).metrics.is_none());
    }
}
