//! BB→conventional fallback boot: the deployment safety net.
//!
//! The paper's §3.4 deployment discussion is blunt about the risk of an
//! aggressive boot path: a consumer-electronics device that fails to
//! boot is a brick in a living room. The mitigation shipped on the TVs
//! is a *supervised* fast path — if the BB-shaped boot misses its
//! deadline or a supervised unit exhausts its start limit, the firmware
//! falls back to the conventional boot shape, which trades speed for
//! the battle-tested plan. This module reproduces that supervisor in
//! one entry point, [`run_with_fallback_recovering`], a thin driver over
//! [`BootRequest`]:
//!
//! 1. run the pass-transformed (BB) plan with an optional
//!    [`FaultPlan`] installed and an optional pre-parse artifact
//!    validated;
//! 2. judge the attempt against a [`FallbackPolicy`];
//! 3. on failure, re-plan the *same* scenario in conventional shape
//!    (no BB pass applied) and boot again, fault-free — the transient
//!    faults the plan models (crash-on-start, flaky I/O) do not
//!    survive the implicit reboot, which is exactly why the fallback
//!    is trusted;
//! 4. report a [`DegradedBoot`] carrying **both** timelines, so a
//!    chaos sweep can price the degraded path rather than just count
//!    it.

use std::sync::Arc;

use bb_sim::{FaultPlan, FaultTargets, SimDuration, SimTime};

use crate::booster::{Boot, BootRequest, FullBootReport, Scenario};
use crate::config::BbConfig;
use crate::error::Error;
use crate::recovery::{ArtifactRead, RecoveryEvent};
use crate::service_engine::PreParser;

/// When the boot supervisor declares the fast path failed.
#[derive(Debug, Clone, Copy)]
pub struct FallbackPolicy {
    /// Hard deadline for the BB-shaped boot. If the completion
    /// definition is not met by this time (or at all), the supervisor
    /// reboots into the conventional shape.
    pub deadline: SimDuration,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        // Generous relative to the paper's 8.1 s conventional boot: the
        // fallback should fire on genuinely wedged boots, not slow ones.
        FallbackPolicy {
            deadline: SimDuration::from_millis(15_000),
        }
    }
}

/// Why the supervisor abandoned the BB-shaped boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// The completion definition was never met (hung dependency chain,
    /// crashed unsupervised unit, …).
    Incomplete,
    /// Completion arrived, but after the policy deadline.
    DeadlineExceeded {
        /// When the BB boot actually completed.
        completed_at: SimTime,
    },
    /// A supervised unit exhausted its `StartLimitBurst=` respawns.
    StartLimitHit {
        /// The unit that hit its start limit.
        unit: String,
    },
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::Incomplete => write!(f, "boot never completed"),
            FallbackReason::DeadlineExceeded { completed_at } => {
                write!(f, "completion at {completed_at} missed the deadline")
            }
            FallbackReason::StartLimitHit { unit } => {
                write!(f, "{unit} exhausted its start limit")
            }
        }
    }
}

impl std::error::Error for FallbackReason {}

/// A boot that needed the conventional fallback, with both timelines.
#[derive(Debug)]
pub struct DegradedBoot {
    /// The abandoned BB-shaped attempt (faults installed).
    pub bb: FullBootReport,
    /// The conventional re-boot that rescued the device.
    pub conventional: FullBootReport,
    /// What tripped the supervisor.
    pub reason: FallbackReason,
    /// User-visible boot time: time burned on the failed attempt
    /// (capped at the deadline) plus the conventional boot.
    pub total_boot: SimTime,
}

/// Outcome of a supervised boot.
#[derive(Debug)]
pub enum BootOutcome {
    /// The BB-shaped boot met the policy; no fallback needed.
    Completed(Box<FullBootReport>),
    /// The supervisor fell back to the conventional shape.
    Degraded(Box<DegradedBoot>),
}

impl BootOutcome {
    /// True if the fallback fired.
    pub fn is_degraded(&self) -> bool {
        matches!(self, BootOutcome::Degraded(_))
    }

    /// The user-visible boot time: the completion time of a clean boot,
    /// or [`DegradedBoot::total_boot`] of a degraded one.
    pub fn user_boot_time(&self) -> SimTime {
        match self {
            BootOutcome::Completed(r) => r.boot_time(),
            BootOutcome::Degraded(d) => d.total_boot,
        }
    }

    /// Total supervised respawns across all units of the (BB) attempt.
    pub fn restarts(&self) -> u32 {
        let report = match self {
            BootOutcome::Completed(r) => r,
            BootOutcome::Degraded(d) => &d.bb,
        };
        report.boot.services.values().map(|s| s.restarts).sum()
    }
}

/// The supervised boot — the one entry point for §3.4-style fallback.
///
/// Boots `scenario` under `cfg` with `faults` installed and, when
/// given, the pre-parse `artifact` as read back from storage; falls
/// back to a fault-free conventional boot when `policy` is violated.
/// Both boots are plain [`BootRequest::run`] calls, so artifact
/// validation happens where it does for every other boot: a rejected
/// artifact turns the Pre-parser off for the BB attempt (the timeline
/// of a device whose cache was discarded), and the recoveries come
/// back alongside the outcome. A conventional `cfg` never reads the
/// cache, so damage to it cannot affect that timeline.
///
/// `pre` follows the [`BootRequest::prepared`] contract: pass pre-built
/// [`PreParser`] measurements when sweeping, `None` otherwise.
pub fn run_with_fallback_recovering(
    scenario: &Scenario,
    cfg: &BbConfig,
    pre: Option<&PreParser>,
    artifact: Option<&ArtifactRead>,
    faults: &FaultPlan,
    policy: &FallbackPolicy,
) -> Result<(BootOutcome, Vec<RecoveryEvent>), Error> {
    let request = |cfg: BbConfig| {
        let request = BootRequest::new(scenario).config(cfg);
        match pre {
            Some(pre) => request.prepared(pre),
            None => request,
        }
    };
    let mut attempt = request(*cfg).faults(faults);
    if let Some(read) = artifact {
        attempt = attempt.preparse_artifact(read);
    }
    let Boot {
        report: bb,
        recoveries,
        ..
    } = attempt.run()?;

    let limit_hit = bb
        .boot
        .services
        .iter()
        .find(|(_, r)| r.start_limit_hit)
        .map(|(n, _)| n.as_str().to_string());
    let reason = if let Some(unit) = limit_hit {
        Some(FallbackReason::StartLimitHit { unit })
    } else {
        match bb.try_boot_time() {
            None => Some(FallbackReason::Incomplete),
            Some(t) if t.since(SimTime::ZERO) > policy.deadline => {
                Some(FallbackReason::DeadlineExceeded { completed_at: t })
            }
            Some(_) => None,
        }
    };
    let Some(reason) = reason else {
        return Ok((BootOutcome::Completed(Box::new(bb)), recoveries));
    };

    // The supervisor notices a completed-but-bad boot immediately and a
    // wedged one only when the deadline expires.
    let detected_after = match bb.try_boot_time() {
        Some(t) => t.since(SimTime::ZERO).min(policy.deadline),
        None => policy.deadline,
    };
    let conventional = request(BbConfig::conventional()).run()?.report;
    let total_boot = conventional.boot_time() + detected_after;
    let outcome = BootOutcome::Degraded(Box::new(DegradedBoot {
        bb,
        conventional,
        reason,
        total_boot,
    }));
    Ok((outcome, recoveries))
}

/// Overlays supervision settings on every service unit of a scenario:
/// the chaos sweep's way of arming `Restart=` without hand-editing unit
/// sets. Units without an `ExecStart=` (targets, synthetic anchors) are
/// left alone.
pub fn with_supervision(
    scenario: &Scenario,
    restart: bb_init::RestartPolicy,
    restart_sec_ms: u64,
    start_limit_burst: u32,
) -> Scenario {
    let mut s = scenario.clone();
    for u in Arc::make_mut(&mut s.units) {
        if u.exec.exec_start.is_some() {
            u.exec.restart = restart;
            u.exec.restart_sec_ms = restart_sec_ms;
            u.exec.start_limit_burst = start_limit_burst;
        }
    }
    s
}

/// The fault targets a scenario exposes: every unit that actually runs
/// a process, plus the boot storage device.
pub fn fault_targets(scenario: &Scenario) -> FaultTargets {
    FaultTargets {
        processes: scenario
            .units
            .iter()
            .filter(|u| u.exec.exec_start.is_some())
            .map(|u| u.name.as_str().to_string())
            .collect(),
        devices: vec!["boot-storage".to_string()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;
    use bb_init::RestartPolicy;
    use bb_sim::Fault;

    /// A full-BB supervised boot with no pre-parse artifact.
    fn supervised(s: &Scenario, faults: &FaultPlan, policy: &FallbackPolicy) -> BootOutcome {
        let (out, recoveries) =
            run_with_fallback_recovering(s, &BbConfig::full(), None, None, faults, policy).unwrap();
        assert!(recoveries.is_empty(), "no artifact, no recoveries");
        out
    }

    fn crash(process: &str, hits: u32) -> FaultPlan {
        FaultPlan {
            faults: vec![Fault::CrashAtReadiness {
                process: process.into(),
                hits,
            }],
            seed: 0,
        }
    }

    #[test]
    fn fault_free_boot_is_not_degraded() {
        let s = mini_tv();
        let out = supervised(&s, &FaultPlan::none(), &FallbackPolicy::default());
        assert!(!out.is_degraded());
        assert_eq!(out.restarts(), 0);
    }

    #[test]
    fn supervised_crash_recovers_without_fallback() {
        // dbus (a BB-group member) crashes once; Restart= respawns it
        // and the boost still completes on the fast path.
        let s = with_supervision(&mini_tv(), RestartPolicy::OnFailure, 50, 3);
        let out = supervised(&s, &crash("dbus.service", 1), &FallbackPolicy::default());
        match out {
            BootOutcome::Completed(r) => {
                assert_eq!(r.boot.service("dbus.service").restarts, 1);
                assert_eq!(
                    r.boot.service("dbus.service").outcome(),
                    bb_init::UnitOutcome::Restarted(1)
                );
            }
            BootOutcome::Degraded(d) => panic!("unexpected fallback: {}", d.reason),
        }
    }

    #[test]
    fn persistent_bb_group_crash_falls_back_to_conventional() {
        // The demo of the tentpole: a BB-group service that crashes on
        // every attempt bricks the fast path; the supervisor reboots
        // into the conventional shape and the TV still comes up.
        let s = with_supervision(&mini_tv(), RestartPolicy::OnFailure, 50, 2);
        let out = supervised(&s, &crash("dbus.service", 10), &FallbackPolicy::default());
        let BootOutcome::Degraded(d) = out else {
            panic!("persistent crash should degrade the boot");
        };
        assert_eq!(
            d.reason,
            FallbackReason::StartLimitHit {
                unit: "dbus.service".into()
            }
        );
        // Both timelines are present: the abandoned attempt shows the
        // exhausted unit, the fallback completed cleanly.
        assert!(d.bb.boot.service("dbus.service").start_limit_hit);
        assert!(d.bb.boot.completion_time.is_none());
        assert!(d.conventional.boot.completion_time.is_some());
        assert!(d.total_boot > d.conventional.boot_time());
    }

    #[test]
    fn unsupervised_crash_on_completion_path_degrades_at_deadline() {
        let s = mini_tv(); // Restart=no everywhere
        let policy = FallbackPolicy {
            deadline: SimDuration::from_millis(12_000),
        };
        let out = supervised(&s, &crash("tuner.service", 1), &policy);
        let BootOutcome::Degraded(d) = out else {
            panic!("crashed completion dependency should degrade");
        };
        assert_eq!(d.reason, FallbackReason::Incomplete);
        // Wedged boots are only detected at the deadline.
        assert_eq!(
            d.total_boot,
            d.conventional.boot_time() + policy.deadline,
            "detection should cost the full deadline"
        );
    }

    #[test]
    fn fault_targets_cover_running_units_and_storage() {
        let t = fault_targets(&mini_tv());
        assert!(t.processes.contains(&"dbus.service".to_string()));
        assert!(!t.processes.contains(&"tv-boot.target".to_string()));
        assert_eq!(t.devices, ["boot-storage"]);
    }
}
