//! Metric names, the per-layer summary of a trace, and the result line.

use bb_fleet::{parse_json, Json};

use crate::stats::{self, Better, Bound};
use crate::trace::Recorder;
use crate::Run;

/// End-to-end metrics (`--trace 0`), with units. The names and units
/// are the contract `BENCHMARK.json` states.
pub const END_TO_END: [(&str, &str); 8] = [
    ("boots_per_s", "1/s"),
    ("boot_ms_p50", "ms"),
    ("boot_ms_p75", "ms"),
    ("tickets_per_s", "1/s"),
    ("ticket_ms_p50", "ms"),
    ("ticket_ms_p75", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Timed layers; each reports `.ms_p50`, `.ms_p90` (self time) and
/// `.calls`.
pub const TIMED_LAYERS: [&str; 18] = [
    "scenario",
    "preparse",
    "preparse.blob",
    "plan.graph",
    "plan.transaction",
    "plan.order",
    "plan.passes",
    "execute",
    "prefix",
    "suffix",
    "snapshot.save",
    "snapshot.restore",
    "recovery",
    "fleet.ticket",
    "fleet.ticket.first_job",
    "emit",
    "wire.decode",
    "wire.encode",
];

/// The layers a boot request passes through (the first 13 timed
/// layers). Each also reports `.share`: its self time as a share of
/// the traced requests' end-to-end time. Their self times sum, with the
/// requests' own uncovered time, to that end-to-end time.
pub const BOOT_PATH: usize = 13;

/// Per-layer counters and ratios (`--trace 1`), with units.
pub const COUNTERS: [(&str, &str); 27] = [
    ("sim.events", "count"),
    ("sim.peak_depth", "count"),
    ("sim.events_per_s", "1/s"),
    ("snapshot.bytes", "bytes"),
    ("plan_cache.compiled", "count"),
    ("plan_cache.hits", "count"),
    ("plan_cache.hit_ratio", "frac"),
    ("recovery.events", "count"),
    ("recovery.rejected", "count"),
    ("fallback.degraded_frac", "frac"),
    ("fleet.worker.busy_frac", "frac"),
    ("fleet.kernel_sims", "count"),
    ("fleet.dedup_ratio", "frac"),
    ("fleet.queue_peak", "count"),
    ("fleet.plan_cache_hits", "count"),
    ("emit.bytes", "bytes"),
    ("wire.bytes", "bytes"),
    ("report.digest", "hash"),
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("trace.refused", "count"),
    ("trace.layers_ms", "ms"),
    ("trace.reference_ms", "ms"),
    ("trace.unexplained_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
    ("attempted", "count"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (i, layer) in TIMED_LAYERS.iter().enumerate() {
        out.push((format!("{layer}.ms_p50"), "ms"));
        out.push((format!("{layer}.ms_p90"), "ms"));
        out.push((format!("{layer}.calls"), "count"));
        if i < BOOT_PATH {
            out.push((format!("{layer}.share"), "frac"));
        }
    }
    out.extend(COUNTERS.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus output checks).
    pub attempted: u64,
    /// Operations that failed or outputs that did not match.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts a failed operation or output check.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.to_string());
        }
    }

    /// Records metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Records each counter in `names` as 0: the workload does not
    /// exercise it.
    pub fn set_zero(&mut self, names: &[&str]) {
        for name in names {
            let unit = COUNTERS
                .iter()
                .find(|(n, _)| n == name)
                .map_or("count", |(_, u)| *u);
            self.set(*name, 0.0, unit);
        }
    }

    /// Adds a line to the human-readable log.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records percentile `p` of `samples` as `name`, noting its sample
    /// count. A refused percentile is recorded as 0, noted, and returned
    /// as `false`.
    pub fn pct(&mut self, name: &str, samples: &[f64], p: u32, unit: &'static str) -> bool {
        match stats::percentile(samples, p) {
            Ok(pct) => {
                self.set(name, pct.value, unit);
                self.note(format!("{name}: n={}", pct.samples));
                true
            }
            Err(refused) => {
                self.set(name, 0.0, unit);
                self.note(format!("{name}: {refused}"));
                false
            }
        }
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Prints the log and, as the last line, the result object. Any
    /// metric the contract expects but the run did not record, or that
    /// is not finite, is recorded as 0 and counted as a failure.
    pub fn print(mut self, workload: &str, trace: bool) {
        let expected: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        if trace {
            let frac = self.failed as f64 / self.attempted.max(1) as f64;
            self.set("failed_frac", frac, "frac");
            self.set("attempted", self.attempted as f64, "count");
        }
        let mut body = Vec::new();
        for (name, unit) in &expected {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    self.fail(format!("metric {name} missing or {other:?}"));
                    0.0
                }
            };
            body.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                bb_fleet::json::escape(name)
            ));
            println!("{workload:<16} {name:<32} {value:>16.6} {unit}");
        }
        for line in &self.notes {
            println!("# {line}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// Writes the per-layer metrics of `rec` into `out`. `roots` names the
/// root spans of replayed requests. Returns the summed self time of the
/// boot-path layers and the summed duration of the roots, in ns.
pub fn layer_metrics(rec: &Recorder, out: &mut Outcome, roots: &[&str]) -> (u64, u64) {
    let spans = rec.spans();
    let self_ns = rec.self_times();
    let root_total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && roots.contains(&s.name))
        .map(|s| s.duration())
        .sum();
    let mut refused = 0u64;
    let mut layers_sum = 0u64;
    for (i, layer) in TIMED_LAYERS.iter().enumerate() {
        let mine: Vec<f64> = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == *layer)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect();
        let total = mine.iter().fold(0.0, |a, b| a + b);
        for p in [50, 90] {
            if !mine.is_empty() && !out.pct(&format!("{layer}.ms_p{p}"), &mine, p, "ms") {
                refused += 1;
            } else if mine.is_empty() {
                out.set(format!("{layer}.ms_p{p}"), 0.0, "ms");
            }
        }
        out.set(format!("{layer}.calls"), mine.len() as f64, "count");
        if i < BOOT_PATH {
            layers_sum += (total * 1e6) as u64;
            let share = if root_total > 0 {
                total * 1e6 / root_total as f64
            } else {
                0.0
            };
            out.set(format!("{layer}.share"), share, "frac");
        }
    }
    out.set("trace.spans", spans.len() as f64, "count");
    out.set("trace.refused", refused as f64, "count");
    (layers_sum, root_total)
}

/// Records the reconciliation row: the boot-path layers' self time per
/// request against `reference_ms`, the same requests' end-to-end time
/// measured without tracing. `gaps` names the candidate sources of any
/// difference with their size in ms per request; the largest is named
/// when the layers miss the reference by more than 10%.
pub fn reconcile(out: &mut Outcome, layers_ms: f64, reference_ms: f64, gaps: &[(&str, f64)]) {
    let unexplained = if reference_ms > 0.0 {
        1.0 - layers_ms / reference_ms
    } else {
        0.0
    };
    out.set("trace.layers_ms", layers_ms, "ms");
    out.set("trace.reference_ms", reference_ms, "ms");
    out.set("trace.unexplained_frac", unexplained, "frac");
    let verdict = if unexplained.abs() <= 0.10 {
        "within 10%".to_string()
    } else {
        let (name, ms) = gaps
            .iter()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .copied()
            .unwrap_or(("none", 0.0));
        format!("MISSES 10%; largest unexplained gap: {name} ({ms:.3} ms per request)")
    };
    out.note(format!(
        "reconciliation: layers {layers_ms:.3} ms vs end to end {reference_ms:.3} ms per request, \
         unexplained {:.1}% ({verdict})",
        100.0 * unexplained
    ));
}

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Duration of the calibration kernel on the reference host, in ms.
/// End-to-end timings are scaled by `KERNEL_REF_MS / measured kernel
/// time` (see [`E2e::speed`]).
pub const KERNEL_REF_MS: f64 = 5.0;

/// Runs the calibration kernel once and returns the CPU time this
/// thread spent on it, in ms (wall time where thread CPU time is not
/// available). CPU time leaves out waiting for a CPU, so the kernel can
/// run beside a busy workload and still measure how fast the host
/// executes, not how long it queued.
///
/// The kernel uses only `std` (string formatting, allocation, an
/// ordered map), so no change to the program under test can move it,
/// while it slows down with the host much as the simulator does: over
/// 10–15 s windows on the 2-vCPU reference container its time tracks
/// the cold-boot time with a correlation of about 0.8, where a pointer
/// chase tracks it far worse.
pub fn kernel_ms() -> f64 {
    let (cpu0, wall0) = (thread_cpu_ns(), std::time::Instant::now());
    let names: Vec<String> = (0..40_000u32)
        .map(|i| format!("unit-{i}.service"))
        .collect();
    let map: std::collections::BTreeMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    std::hint::black_box(map.len());
    match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e6,
        _ => wall0.elapsed().as_secs_f64() * 1e3,
    }
}

/// CPU time consumed by the calling thread, in ns.
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it on
    // Linux); it only writes one `struct timespec`, which `Timespec`
    // matches field for field on 64-bit Linux, through a pointer to a
    // live local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The machine's aggregate CPU tick counters (first line of
/// `/proc/stat`: user, nice, system, idle, iowait, irq, softirq, steal).
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks([u64; 8]);

impl CpuTicks {
    /// The counters now, if the platform has them.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let mut fields = stat.lines().next()?.split_whitespace().skip(1);
        let mut t = [0u64; 8];
        for v in &mut t {
            *v = fields.next()?.parse().ok()?;
        }
        Some(CpuTicks(t))
    }

    /// Steal time since `earlier` as a share of the time the vCPUs
    /// wanted to run (busy plus stolen). A stolen tick stretches wall
    /// time without running any code, which the kernel's CPU time
    /// cannot see.
    pub fn stolen_since(&self, earlier: Option<CpuTicks>) -> f64 {
        let Some(e) = earlier else { return 0.0 };
        let d: Vec<f64> = self
            .0
            .iter()
            .zip(e.0)
            .map(|(a, b)| a.saturating_sub(b) as f64)
            .collect();
        let wanted = d[0] + d[1] + d[2] + d[5] + d[6] + d[7];
        if wanted > 0.0 {
            d[7] / wanted
        } else {
            0.0
        }
    }
}

/// Steal share since `start`, 0 where `/proc/stat` is missing.
pub fn stolen_since(start: Option<CpuTicks>) -> f64 {
    CpuTicks::now().map_or(0.0, |now| now.stolen_since(start))
}

/// What an untraced run measured, before it becomes the end-to-end
/// metrics.
#[derive(Debug, Default)]
pub struct E2e {
    /// Latency of every successful client request (a cold boot, or a
    /// ticket's submit→result), host ms.
    pub request_ms: Vec<f64>,
    /// Boots each request carries.
    pub boots_per_request: f64,
    /// Length of the timed region, s.
    pub secs: f64,
    /// Set-up durations, s.
    pub setups: Vec<f64>,
    /// Memory high-water mark after a fixed amount of work, MB.
    pub rss_mb: f64,
    /// Calibration kernel times taken during the run, ms.
    pub kernel_ms: Vec<f64>,
    /// Share of the CPU time the run's threads wanted that the
    /// hypervisor gave to other guests (see [`CpuTicks`]).
    pub stolen: f64,
}

impl E2e {
    /// Host slowness relative to the reference (above 1 on a slower
    /// moment): the median kernel CPU time over [`KERNEL_REF_MS`], and
    /// the wall-time stretch of the CPU time stolen meanwhile.
    pub fn speed(&self) -> f64 {
        let kernel = stats::median(&self.kernel_ms).map_or(1.0, |k| k / KERNEL_REF_MS);
        kernel / (1.0 - self.stolen.clamp(0.0, 0.5))
    }

    /// Records the end-to-end metrics. Timings are divided, rates
    /// multiplied, by [`E2e::speed`], so that a host that is slower for
    /// a while moves the metrics less; the raw values go to the log.
    pub fn record(&self, out: &mut Outcome) {
        let slow = self.speed();
        let n = self.request_ms.len() as f64;
        let tickets_per_s = n / self.secs;
        out.set(
            "boots_per_s",
            tickets_per_s * self.boots_per_request * slow,
            "1/s",
        );
        out.set("tickets_per_s", tickets_per_s * slow, "1/s");
        let ticket: Vec<f64> = self.request_ms.iter().map(|ms| ms / slow).collect();
        let boot: Vec<f64> = ticket
            .iter()
            .map(|ms| ms / self.boots_per_request)
            .collect();
        for (name, samples, p) in [
            ("ticket_ms_p50", &ticket, 50),
            ("ticket_ms_p75", &ticket, 75),
            ("boot_ms_p50", &boot, 50),
            ("boot_ms_p75", &boot, 75),
        ] {
            if !out.pct(name, samples, p, "ms") {
                out.fail(format!("{name} could not be reported"));
            }
        }
        let setup = stats::median(&self.setups).unwrap_or(0.0);
        out.set("setup_s", setup / slow, "s");
        out.set("peak_rss_mb", self.rss_mb, "MB");
        out.note(format!(
            "host speed: calibration kernel {:.3} ms (median of {}), reference {KERNEL_REF_MS} ms, \
             {:.1}% of CPU time stolen, factor {slow:.4}; raw: {:.4} requests/s, request p50 {:.3} ms, \
             setup {setup:.4} s",
            stats::median(&self.kernel_ms).unwrap_or(0.0),
            self.kernel_ms.len(),
            100.0 * self.stolen,
            tickets_per_s,
            stats::median(&self.request_ms).unwrap_or(0.0),
        ));
    }
}

/// Total self time of `layer`, in seconds.
pub fn layer_seconds(rec: &Recorder, layer: &str) -> f64 {
    let st = rec.self_times();
    rec.spans()
        .iter()
        .zip(st)
        .filter(|(s, _)| s.name == layer)
        .map(|(_, ns)| ns as f64 / 1e9)
        .sum()
}

/// `trace.overhead_frac`: spans recorded × the measured cost of
/// recording one, over the traced requests' end-to-end time.
pub fn overhead(out: &mut Outcome, rec: &Recorder, root_ns: u64) {
    let cost = crate::trace::span_cost_ns(20_000);
    let frac = rec.spans().len() as f64 * cost / root_ns.max(1) as f64;
    out.set("trace.overhead_frac", frac, "frac");
    out.note(format!("span recording costs {cost:.1} ns each"));
}

/// Host memory high-water mark of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`, folded to 52 bits so a JSON number holds it
/// exactly.
pub fn digest(mut h: u64, bytes: &[u8]) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A digest as a metric value.
pub fn digest_value(h: u64) -> f64 {
    (h & ((1 << 52) - 1)) as f64
}

/// The end-to-end bounds declared in a `BENCHMARK.json` document.
pub fn bounds_from_benchmark(doc: &str) -> Result<Vec<Bound>, String> {
    let v = parse_json(doc).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: bad \"better\" {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Parses result lines (the last line of each run) into runs; lines
/// that are not result objects are skipped.
pub fn parse_result_lines(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let v = parse_json(line).map_err(|e| format!("bad result line: {e}"))?;
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        runs.push(
            metrics
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        );
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units this benchmark prints are the ones
    /// `BENCHMARK.json` declares, in both modes.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    /// Every layer of the layer map names real metrics and workloads.
    #[test]
    fn layer_map_names_known_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layer_map.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let rows = doc.get("layers").and_then(Json::as_arr).unwrap();
        assert!(!rows.is_empty());
        for row in rows {
            let strs = |k: &str| -> Vec<String> {
                row.get(k)
                    .and_then(Json::as_arr)
                    .unwrap_or_else(|| panic!("{k} missing in {row:?}"))
                    .iter()
                    .map(|v| v.as_str().unwrap().to_string())
                    .collect()
            };
            for m in strs("metrics") {
                assert!(names.contains(&m), "unknown per-layer metric {m}");
            }
            for m in strs("moves") {
                assert!(e2e.contains(&m.as_str()), "unknown end-to-end metric {m}");
            }
            for w in strs("workloads") {
                assert!(
                    crate::WORKLOADS.contains(&w.as_str()),
                    "unknown workload {w}"
                );
            }
        }
    }

    #[test]
    fn injected_wrong_output_shows_in_failed_frac() {
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        crate::served::check_report(&mut out, "ticket 1", "{\"a\": 1}", "{\"a\": 1}");
        assert_eq!(out.failed, 0);
        crate::served::check_report(&mut out, "ticket 2", "{\"a\": 1}", "{\"a\": 2}");
        assert_eq!(out.failed, 1);
        assert_eq!(out.attempted, 6);
        let frac = out.failed as f64 / out.attempted as f64;
        assert!(frac > 0.0);
    }

    #[test]
    fn result_lines_round_trip_through_compare_input() {
        let text = "noise\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"boots_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}\n";
        let runs = parse_result_lines(text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0]["boots_per_s"], 12.5);
    }
}
