//! Sweep-wide sharing of compiled boot plans.
//!
//! [`crate::Pipeline::plan`] depends only on (scenario, config) — never
//! on the seed, the fault plan, or which worker runs the boot — yet a
//! fleet sweep historically re-planned every single boot. A
//! [`PlanCache`] amortizes that: the first boot of a (scenario, config)
//! pair compiles its [`crate::BootPlanIr`] once, puts it and its pass
//! deltas behind an [`Arc`], and every later boot — run, checkpoint, or
//! resume, on any worker — reuses it with zero clones. The plan holds
//! its scenario's module catalog and workload map by `Arc`, so a cached
//! plan adds no copy of either. Attach a cache to a request with
//! [`crate::BootRequest::plan_cache`].
//!
//! # Keying and safety
//!
//! Entries are keyed by the scenario's **`Arc` pointer identity** plus
//! the packed [`BbConfig::bits`]. Pointer identity makes the lookup a
//! hash of two words instead of a deep scenario comparison, and it is
//! made ABA-safe by storing a [`Weak`] to the keyed scenario: the weak
//! reference keeps the `Arc` allocation alive, so its address cannot be
//! reused by a different scenario while the entry exists. A lookup
//! therefore hits only when the caller's `Arc` *is* the keyed
//! allocation — same object, not merely equal content. Callers that
//! want content-level sharing (the fleet) memoize the `Arc` itself so
//! equal scenarios become the same allocation.
//!
//! Planning is deterministic, so a cache hit returns exactly the plan a
//! fresh [`crate::Pipeline::plan`] call would produce and timelines are
//! bit-identical with the cache on or off (pinned by
//! `tests/proptest_plan_cache.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use crate::booster::Scenario;
use crate::config::BbConfig;
use crate::pipeline::CompiledPlan;

/// Entries above which an insert first evicts entries whose scenario
/// has been dropped. Keeps a long-lived cache (a `bbsim serve`-style
/// process, a huge sweep) from accumulating dead weak references.
const PURGE_THRESHOLD: usize = 1024;

struct Entry {
    /// Keeps the keyed allocation alive (ABA guard) and tells us when
    /// the scenario is gone and the entry is purgeable.
    scenario: Weak<Scenario>,
    plan: Arc<CompiledPlan>,
}

/// A thread-safe cache of compiled boot plans, shared across every
/// run/checkpoint/resume path of a sweep (see the module docs).
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<HashMap<(usize, u8), Entry>>,
    compiled: AtomicU64,
    hits: AtomicU64,
}

/// Counter snapshot from [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans compiled and inserted (cache misses that planned).
    pub plans_compiled: u64,
    /// Lookups served from the cache without re-planning.
    pub hits: u64,
    /// Live entries (dropped scenarios included until purged).
    pub entries: usize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    fn map(&self) -> MutexGuard<'_, HashMap<(usize, u8), Entry>> {
        // A worker panic caught by the fleet can never corrupt the map
        // (entries are only inserted whole), so poisoning is ignorable.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn key(scenario: &Arc<Scenario>, cfg: &BbConfig) -> (usize, u8) {
        (Arc::as_ptr(scenario) as usize, cfg.bits())
    }

    /// The cached plan for (`scenario`, `cfg`), if this exact `Arc` was
    /// inserted before.
    pub(crate) fn lookup(
        &self,
        scenario: &Arc<Scenario>,
        cfg: &BbConfig,
    ) -> Option<Arc<CompiledPlan>> {
        let map = self.map();
        let entry = map.get(&Self::key(scenario, cfg))?;
        // The weak guard makes a pointer match sufficient: the keyed
        // allocation is still alive, so an equal address is the same
        // scenario. The upgrade check is belt-and-braces.
        if entry.scenario.strong_count() == 0 {
            return None;
        }
        let plan = Arc::clone(&entry.plan);
        drop(map);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Stores a freshly compiled plan for (`scenario`, `cfg`) and
    /// counts the compilation.
    pub(crate) fn insert(&self, scenario: &Arc<Scenario>, cfg: &BbConfig, plan: Arc<CompiledPlan>) {
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map();
        if map.len() >= PURGE_THRESHOLD {
            map.retain(|_, e| e.scenario.strong_count() > 0);
        }
        map.insert(
            Self::key(scenario, cfg),
            Entry {
                scenario: Arc::downgrade(scenario),
                plan,
            },
        );
    }

    /// Current counters (monotonic over the cache's lifetime; callers
    /// that want per-sweep numbers snapshot before and after).
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            plans_compiled: self.compiled.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: self.map().len(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.map().clear();
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &s.entries)
            .field("plans_compiled", &s.plans_compiled)
            .field("hits", &s.hits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::tests::mini_tv;
    use crate::booster::{BootRequest, CheckpointPhase};
    use crate::error::Error;
    use bb_init::UnitName;

    #[test]
    fn hits_require_the_same_arc_not_just_equal_content() {
        let cache = PlanCache::new();
        let a = Arc::new(mini_tv());
        let b = Arc::new(mini_tv()); // equal content, different allocation
        let cfg = BbConfig::full();

        BootRequest::new(&a)
            .config(cfg)
            .plan_cache(&cache, &a)
            .run()
            .unwrap();
        assert_eq!(cache.stats().plans_compiled, 1);
        assert_eq!(cache.stats().hits, 0);

        // Same Arc: hit, no recompilation.
        BootRequest::new(&a)
            .config(cfg)
            .plan_cache(&cache, &a)
            .run()
            .unwrap();
        assert_eq!(cache.stats().plans_compiled, 1);
        assert_eq!(cache.stats().hits, 1);

        // Different allocation: compiles its own entry.
        BootRequest::new(&b)
            .config(cfg)
            .plan_cache(&cache, &b)
            .run()
            .unwrap();
        assert_eq!(cache.stats().plans_compiled, 2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn configs_key_separately_and_clear_keeps_counters() {
        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        for cfg in [BbConfig::conventional(), BbConfig::full()] {
            BootRequest::new(&s)
                .config(cfg)
                .plan_cache(&cache, &s)
                .run()
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().plans_compiled, 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().plans_compiled, 2);
    }

    #[test]
    fn dropped_scenarios_never_hit_and_get_purged_on_pressure() {
        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        BootRequest::new(&s)
            .config(BbConfig::full())
            .plan_cache(&cache, &s)
            .run()
            .unwrap();
        drop(s);
        // The entry survives (weak guard) but can no longer hit.
        assert_eq!(cache.len(), 1);
        let s2 = Arc::new(mini_tv());
        assert!(cache.lookup(&s2, &BbConfig::full()).is_none());
    }

    #[test]
    fn tweaked_requests_apply_the_tweak_and_never_touch_the_cache() {
        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        let boot = BootRequest::new(&s)
            .config(BbConfig::conventional())
            .plan_cache(&cache, &s)
            .tweak(|graph, _tx, overrides| {
                overrides.isolate.insert(graph.idx_of("var.mount"));
            })
            .run()
            .unwrap();
        assert_eq!(boot.report.bb_group, [UnitName::new("var.mount")]);
        let stats = cache.stats();
        assert_eq!((stats.plans_compiled, stats.hits, stats.entries), (0, 0, 0));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn run_checkpoint_resume_compile_once_through_one_cache() {
        let cache = PlanCache::new();
        let s = Arc::new(mini_tv());
        let cfg = BbConfig::full();
        let straight = BootRequest::new(&s)
            .config(cfg)
            .plan_cache(&cache, &s)
            .run()
            .unwrap();
        let ckpt = BootRequest::new(&s)
            .config(cfg)
            .plan_cache(&cache, &s)
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();
        let resumed = BootRequest::new(&s)
            .config(cfg)
            .plan_cache(&cache, &s)
            .resume(&ckpt)
            .unwrap();
        assert_eq!(cache.stats().plans_compiled, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            straight.report.boot.completion_time,
            resumed.report.boot.completion_time
        );
        assert_eq!(straight.report.deltas, resumed.report.deltas);
    }

    #[test]
    fn cached_resume_still_rejects_a_different_machine_shape() {
        let cache = PlanCache::new();
        let s = mini_tv();
        let ckpt = BootRequest::new(&s)
            .checkpoint_at(CheckpointPhase::KernelHandoff)
            .unwrap();
        let mut other = mini_tv();
        other.machine.cores = 2;
        let other = Arc::new(other);
        // First resume compiles `other`'s plan, the second hits it; the
        // machine-config check rejects both.
        for _ in 0..2 {
            assert!(matches!(
                BootRequest::new(&other)
                    .plan_cache(&cache, &other)
                    .resume(&ckpt),
                Err(Error::Checkpoint(_))
            ));
        }
        assert_eq!(cache.stats().plans_compiled, 1);
        assert_eq!(cache.stats().hits, 1);
    }
}
