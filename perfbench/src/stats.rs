//! Order statistics and run comparison.
//!
//! A percentile is only reported when at least ten samples lie beyond
//! it, so a p90 needs 100 samples and a p50 needs 20; anything less is
//! [`Refused`] rather than guessed. Spread and run comparison follow the
//! acceptance rule the benchmark is judged by: quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them, and a metric
//! regresses when its median worsens by more than its bound.

/// Samples required beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// A percentile that was not reported because too few samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused {
    /// The percentile asked for.
    pub p: u32,
    /// Samples available.
    pub samples: usize,
    /// Samples needed.
    pub needed: usize,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} refused: {} sample(s), {} needed for {BEYOND} beyond it",
            self.p, self.samples, self.needed
        )
    }
}

/// Samples needed to report percentile `p` (0 < p < 100).
pub fn samples_needed(p: u32) -> usize {
    // Nearest rank r = ceil(p·n/100) leaves n − r samples beyond it;
    // the smallest n with n − r ≥ BEYOND.
    let mut n = BEYOND;
    while n - nearest_rank(p, n) < BEYOND {
        n += 1;
    }
    n
}

fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// A timing percentile together with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

/// Nearest-rank percentile `p` of `samples`, refused unless at least
/// [`BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: u32) -> Result<Pct, Refused> {
    let needed = samples_needed(p);
    if samples.len() < needed {
        return Err(Refused {
            p,
            samples: samples.len(),
            needed,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        value: sorted[nearest_rank(p, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// Median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by Python's default (`exclusive`) method of
/// `statistics.quantiles(values, n=4)`; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, memory, set-up time).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// One end-to-end metric with its regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The comparison of one metric between two sets of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Metric name.
    pub name: String,
    /// Median over the base runs.
    pub base: f64,
    /// Median over the new runs.
    pub new: f64,
    /// How much worse the new median is, as a share of the base median
    /// (negative: better).
    pub worse: f64,
    /// Interquartile spread of the base runs, as a share of their median.
    pub base_spread: Option<f64>,
    /// True when `worse` exceeds the bound.
    pub regressed: bool,
}

/// Compares every bounded metric of `new` against `base`; each run is a
/// map from metric name to value. A metric missing from either side is
/// a regression (it cannot be shown not to be one).
pub fn compare(bounds: &[Bound], base: &[crate::Run], new: &[crate::Run]) -> Vec<Verdict> {
    let column = |runs: &[crate::Run], name: &str| -> Vec<f64> {
        runs.iter().filter_map(|r| r.get(name).copied()).collect()
    };
    bounds
        .iter()
        .map(|b| {
            let (bv, nv) = (column(base, &b.name), column(new, &b.name));
            match (median(&bv), median(&nv)) {
                (Some(bm), Some(nm)) if bm != 0.0 => {
                    let worse = match b.better {
                        Better::Lower => (nm - bm) / bm.abs(),
                        Better::Higher => (bm - nm) / bm.abs(),
                    };
                    Verdict {
                        name: b.name.clone(),
                        base: bm,
                        new: nm,
                        worse,
                        base_spread: spread(&bv),
                        regressed: worse > b.bound,
                    }
                }
                (bm, nm) => Verdict {
                    name: b.name.clone(),
                    base: bm.unwrap_or(f64::NAN),
                    new: nm.unwrap_or(f64::NAN),
                    worse: f64::INFINITY,
                    base_spread: None,
                    regressed: true,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn percentiles_carry_their_sample_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90).unwrap();
        assert_eq!(
            p90,
            Pct {
                value: 90.0,
                samples: 100
            }
        );
        let p50 = percentile(&v[..20], 50).unwrap();
        assert_eq!(
            p50,
            Pct {
                value: 10.0,
                samples: 20
            }
        );
    }

    #[test]
    fn percentiles_without_ten_samples_beyond_are_refused() {
        assert_eq!(samples_needed(50), 20);
        assert_eq!(samples_needed(75), 40);
        assert_eq!(samples_needed(90), 100);
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 90),
            Err(Refused {
                p: 90,
                samples: 99,
                needed: 100
            })
        );
        assert!(percentile(&v[..19], 50).is_err());
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
        assert_eq!(spread(&[4.0, 1.0, 3.0]), Some(1.0));
    }

    fn runs(scale_latency: f64, scale_tput: f64) -> Vec<BTreeMap<String, f64>> {
        (0..10)
            .map(|i| {
                let jitter = 1.0 + 0.01 * f64::from(i % 3);
                BTreeMap::from([
                    ("latency_ms".to_string(), 100.0 * jitter * scale_latency),
                    ("boots_per_s".to_string(), 50.0 / jitter * scale_tput),
                ])
            })
            .collect()
    }

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "latency_ms".into(),
                better: Better::Lower,
                bound: 0.1,
            },
            Bound {
                name: "boots_per_s".into(),
                better: Better::Higher,
                bound: 0.1,
            },
        ]
    }

    #[test]
    fn comparison_flags_a_twice_slower_set_of_runs() {
        let verdicts = compare(&bounds(), &runs(1.0, 1.0), &runs(2.0, 0.5));
        assert!(verdicts.iter().all(|v| v.regressed), "{verdicts:?}");
        assert!((verdicts[0].worse - 1.0).abs() < 1e-9);
        assert!((verdicts[1].worse - 0.5).abs() < 1e-9);
    }

    #[test]
    fn comparison_passes_identical_sets_of_runs() {
        let verdicts = compare(&bounds(), &runs(1.0, 1.0), &runs(1.0, 1.0));
        assert!(verdicts.iter().all(|v| !v.regressed && v.worse == 0.0));
    }

    #[test]
    fn comparison_treats_a_missing_metric_as_a_regression() {
        let mut new = runs(1.0, 1.0);
        for r in &mut new {
            r.remove("latency_ms");
        }
        let verdicts = compare(&bounds(), &runs(1.0, 1.0), &new);
        assert!(verdicts[0].regressed);
        assert!(!verdicts[1].regressed);
    }
}
