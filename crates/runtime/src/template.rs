//! Runtime-side template instantiation and the LRU plan cache.
//!
//! `pdm-core`'s [`PlanTemplate`] carries everything planning ever
//! derives from a nest *shape*; this module finishes the job for the
//! executors. [`instantiate_compiled`] lowers a valuation straight to a
//! ready-to-run [`CompiledInstance`]: concrete nest, concrete
//! [`ParallelPlan`], a [`Memory`] sized for that size's footprint, and
//! the [`CompiledPlan`] engine program — with the only per-size analysis
//! work being affine bound evaluation.
//!
//! [`PlanCache`] closes the loop for a service answering heavy traffic
//! over many kernels: an LRU keyed by the nest's
//! [`structural hash`](LoopNest::structural_hash) (verified by `==` on
//! hit, so collisions cannot alias plans) that makes the *template* —
//! the expensive object — a pay-once artifact per kernel shape:
//!
//! ```
//! use pdm_loopir::parse::parse_loop_symbolic;
//! use pdm_runtime::template::{instantiate_compiled, PlanCache};
//!
//! let shape = parse_loop_symbolic(
//!     "for i = 1..=N { A[i] = A[i - 1] + 1; }", &["N"]).unwrap();
//! let mut cache = PlanCache::new(16);
//! for n in [10i64, 1000, 10] {
//!     let template = cache.get_or_plan(&shape).unwrap(); // plans once
//!     let inst = instantiate_compiled(&template, &[("N", n)]).unwrap();
//!     inst.compiled.run_parallel(&inst.memory).unwrap();
//! }
//! assert_eq!((cache.hits(), cache.misses()), (2, 1));
//! ```

use crate::compile::CompiledPlan;
use crate::memory::Memory;
use crate::Result;
use pdm_core::plan::ParallelPlan;
use pdm_core::template::{plan_template, PlanTemplate};
use pdm_loopir::nest::LoopNest;
use std::sync::Arc;

/// A template lowered at one parameter valuation: everything an executor
/// needs, ready to run.
pub struct CompiledInstance {
    /// The concrete nest at this valuation.
    pub nest: LoopNest,
    /// The concrete plan (identical to what fresh planning would build).
    pub plan: ParallelPlan,
    /// Arrays sized for this valuation's access footprint (zero-filled;
    /// call [`Memory::init_deterministic`] for seeded contents).
    pub memory: Memory,
    /// The compiled engine program for `(nest, plan, memory)`.
    pub compiled: CompiledPlan,
}

/// Lower `template` at `params` to a ready-to-run [`CompiledInstance`].
/// The plan assembly is pure bound-row evaluation (no FM, no analysis);
/// memory allocation and bytecode lowering are the same per-size work
/// any execution path pays.
pub fn instantiate_compiled(
    template: &PlanTemplate,
    params: &[(&str, i64)],
) -> Result<CompiledInstance> {
    let nest = template.instantiate_nest(params)?;
    let plan = template.instantiate(params)?;
    let memory = Memory::for_nest(&nest)?;
    let compiled = CompiledPlan::compile(&nest, &plan, &memory)?;
    Ok(CompiledInstance {
        nest,
        plan,
        memory,
        compiled,
    })
}

struct CacheEntry {
    hash: u64,
    nest: LoopNest,
    template: Arc<PlanTemplate>,
}

/// An LRU cache of [`PlanTemplate`]s keyed by nest structural hash.
///
/// Heavy traffic over one kernel at many sizes pays the planning cost
/// (dependence testing + Fourier–Motzkin) exactly once; every further
/// request is a hash lookup plus cheap instantiation. Keys are the
/// 64-bit [`LoopNest::structural_hash`], and hits are verified with full
/// nest equality, so a hash collision degrades to a miss instead of
/// aliasing two kernels. Recency order is maintained on both hits and
/// inserts; the least recently used template is evicted at capacity.
///
/// The cache is a plain `&mut self` structure — wrap it in a `Mutex`
/// (or shard it) for concurrent services; the cached `Arc` handles stay
/// valid after eviction.
pub struct PlanCache {
    cap: usize,
    /// Most recently used last; linear scans are fine at cache sizes
    /// where templates (with their matrices and bound rows) fit anyway.
    entries: Vec<CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` templates (≥ 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            cap: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The template for `nest`'s shape: cached if present, freshly
    /// planned (and inserted, evicting the LRU entry at capacity)
    /// otherwise.
    pub fn get_or_plan(&mut self, nest: &LoopNest) -> Result<Arc<PlanTemplate>> {
        if let Some(template) = self.probe(nest) {
            return Ok(template);
        }
        let template = Arc::new(plan_template(nest)?);
        self.insert(nest, template.clone());
        Ok(template)
    }

    /// Look up `nest`'s shape without planning: the cached template (a
    /// hit, refreshing its recency) or `None` (a miss). The split
    /// lookup exists for callers that must *not* plan while holding a
    /// lock — `ShardedPlanCache`'s single-flight layer probes under the
    /// shard lock, plans outside it, and [`insert`](PlanCache::insert)s
    /// the result.
    pub fn probe(&mut self, nest: &LoopNest) -> Option<Arc<PlanTemplate>> {
        let hash = nest.structural_hash();
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.hash == hash && &e.nest == nest)
        {
            let entry = self.entries.remove(i);
            let template = entry.template.clone();
            self.entries.push(entry);
            self.hits += 1;
            Some(template)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Look up by structural hash alone — no nest to verify equality
    /// against, so a 64-bit collision *can* return the other shape's
    /// template (the first inserted with that hash wins). This is the
    /// wire-protocol path, where clients identify shapes they planned
    /// earlier by hash; same-process callers that hold the nest should
    /// prefer [`probe`](PlanCache::probe). Counts a hit or a miss like
    /// `probe`.
    pub fn probe_hash(&mut self, hash: u64) -> Option<Arc<PlanTemplate>> {
        if let Some(i) = self.entries.iter().position(|e| e.hash == hash) {
            let entry = self.entries.remove(i);
            let template = entry.template.clone();
            self.entries.push(entry);
            self.hits += 1;
            Some(template)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert a freshly planned template for `nest`, evicting the least
    /// recently used entry at capacity. The counterpart of
    /// [`probe`](PlanCache::probe); duplicate inserts for the same shape
    /// are benign (the newer entry wins recency, the older one ages
    /// out).
    pub fn insert(&mut self, nest: &LoopNest, template: Arc<PlanTemplate>) {
        if self.entries.len() >= self.cap {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.entries.push(CacheEntry {
            hash: nest.structural_hash(),
            nest: nest.clone(),
            template,
        });
    }

    /// Maximum number of cached templates.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Currently cached templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by LRU eviction at capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_loopir::parse::{parse_loop_symbolic, parse_loop_with};

    const CHAIN: &str = "for i = 1..=N { A[i] = A[i - 1] + 1; }";

    #[test]
    fn compiled_instance_matches_fresh_pipeline() {
        let shape = parse_loop_symbolic(CHAIN, &["N"]).unwrap();
        let template = plan_template(&shape).unwrap();
        for n in [1i64, 17, 40] {
            let mut inst = instantiate_compiled(&template, &[("N", n)]).unwrap();
            inst.memory.init_deterministic(3);
            let ran = inst.compiled.run_parallel(&inst.memory).unwrap();
            assert_eq!(ran, n as u64);

            let nest = parse_loop_with(CHAIN, &[("N", n)]).unwrap();
            let mut mem = Memory::for_nest(&nest).unwrap();
            mem.init_deterministic(3);
            crate::exec::run_sequential(&nest, &mem).unwrap();
            assert_eq!(inst.memory.snapshot(), mem.snapshot(), "N={n}");
        }
    }

    #[test]
    fn cache_hits_on_shape_and_evicts_lru() {
        let a = parse_loop_symbolic(CHAIN, &["N"]).unwrap();
        let b = parse_loop_symbolic("for i = 0..=N { A[i] = i; }", &["N"]).unwrap();
        let c = parse_loop_symbolic("for i = 0..=N { A[2*i] = A[i] + 1; }", &["N"]).unwrap();
        let mut cache = PlanCache::new(2);
        let ta1 = cache.get_or_plan(&a).unwrap();
        let ta2 = cache.get_or_plan(&a).unwrap();
        assert!(Arc::ptr_eq(&ta1, &ta2), "same shape must hit");
        cache.get_or_plan(&b).unwrap();
        // Touch `a` so `b` is the LRU, then insert `c`: `b` is evicted.
        cache.get_or_plan(&a).unwrap();
        let tc = cache.get_or_plan(&c).unwrap();
        assert_eq!(cache.len(), 2);
        let before = cache.misses();
        cache.get_or_plan(&b).unwrap(); // miss; evicts `a` (now the LRU)
        assert_eq!(cache.misses(), before + 1, "evicted shape must replan");
        let tc2 = cache.get_or_plan(&c).unwrap();
        assert!(Arc::ptr_eq(&tc, &tc2), "surviving entry still hits");
        let ta3 = cache.get_or_plan(&a).unwrap();
        assert!(
            !Arc::ptr_eq(&ta1, &ta3),
            "evicted entry must be a fresh template"
        );
        // c evicted b, b evicted a, a evicted c: one per over-capacity insert.
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn probe_and_insert_compose_to_get_or_plan() {
        let a = parse_loop_symbolic(CHAIN, &["N"]).unwrap();
        let mut cache = PlanCache::new(2);
        assert!(cache.probe(&a).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let t = Arc::new(plan_template(&a).unwrap());
        cache.insert(&a, t.clone());
        let hit = cache.probe(&a).expect("inserted shape must probe as a hit");
        assert!(Arc::ptr_eq(&t, &hit));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let a = parse_loop_symbolic(CHAIN, &["N"]).unwrap();
        let mut cache = PlanCache::new(4);
        assert!(cache.is_empty());
        cache.get_or_plan(&a).unwrap();
        cache.get_or_plan(&a).unwrap();
        cache.get_or_plan(&a).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert_eq!(cache.capacity(), 4);
        assert_eq!(cache.len(), 1);
    }
}
