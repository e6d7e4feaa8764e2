//! `perfbench` — host-time benchmark of the booting-booster simulator.
//!
//! ```text
//! perfbench --workload cold-plan-large|sweep-served|chaos-served
//!           --seed N --seconds S --trace 0|1
//! perfbench compare BENCHMARK.json BASE.jsonl NEW.jsonl
//! ```
//!
//! A run prints one line per metric (name, value, unit, and the sample
//! count behind every percentile), then, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones from a separate traced
//! run. `compare` applies the bounds in `BENCHMARK.json` to two files
//! of such result lines and exits 1 on a regression. See README.md.

mod cold;
mod metrics;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// The benchmark's workloads, by name.
pub const WORKLOADS: [&str; 3] = ["cold-plan-large", "sweep-served", "chaos-served"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(parse::<u64>(flag, value()?)?),
            "--seconds" => seconds = Some(parse::<u64>(flag, value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let cfg = RunCfg {
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    };
    let outcome = match workload.as_str() {
        "cold-plan-large" => cold::run(&cfg),
        "sweep-served" => served::run(served::Kind::Sweep, &cfg),
        "chaos-served" => served::run(served::Kind::Chaos, &cfg),
        other => {
            return Err(format!(
                "unknown workload {other:?} (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }?;
    outcome.print(&workload, cfg.trace);
    Ok(ExitCode::SUCCESS)
}

fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("bad value {raw:?} for {flag}"))
}

/// `compare BENCHMARK.json BASE NEW`: applies every end-to-end bound to
/// the medians of two sets of runs (one result line per run).
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [bench, base, new] = args else {
        return Err("usage: perfbench compare BENCHMARK.json BASE.jsonl NEW.jsonl".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = metrics::bounds_from_benchmark(&read(bench)?)?;
    let base = metrics::parse_result_lines(&read(base)?)?;
    let new = metrics::parse_result_lines(&read(new)?)?;
    let verdicts = stats::compare(&bounds, &base, &new);
    let mut regressed = false;
    for v in &verdicts {
        regressed |= v.regressed;
        println!(
            "{:<16} base {:>12.4} new {:>12.4} worse {:>+8.2}% base-spread {:>7} {}",
            v.name,
            v.base,
            v.new,
            100.0 * v.worse,
            v.base_spread
                .map_or("n/a".to_string(), |s| format!("{:.2}%", 100.0 * s)),
            if v.regressed { "REGRESSED" } else { "ok" }
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The run's result line: metric values by name.
pub type Run = BTreeMap<String, f64>;

/// The splitmix64 finalizer: spreads a seed over all 64 bits.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
