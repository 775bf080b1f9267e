//! [`Session`] — the unified front end to the whole pipeline.
//!
//! A session wraps parse → analyze → template → cache → execute behind
//! one object with one error type ([`PdmError`]). It is `Sync` and
//! meant to be shared: every method takes `&self`, template planning is
//! deduplicated through the session's [`ShardedPlanCache`], and the
//! thread count is fixed at construction. Every run executes on the
//! compiled walker, its groups split by the pool's block count.
//!
//! ```
//! use pdm_service::Session;
//!
//! let session = Session::builder().cache_capacity(4, 32).build();
//! let shape = session
//!     .parse_symbolic("for i = 1..=N { A[i] = A[i - 1] + 1; }", &["N"])
//!     .unwrap();
//! let template = session.plan(&shape).unwrap(); // cached for next time
//! let outcome = session.run(&shape, &[("N", 100)], 1).unwrap();
//! assert_eq!(outcome.iterations, 100);
//! assert_eq!(template.depth(), 1);
//! ```

use crate::error::PdmError;
use crate::faults::{self, Faults};
use crate::metrics::ServiceMetrics;
use pdm_core::pdm::PdmAnalysis;
use pdm_core::plan::ParallelPlan;
use pdm_core::program::ProgramPlan;
use pdm_core::template::{plan_template, PlanTemplate};
use pdm_loopir::imperfect::ImperfectNest;
use pdm_loopir::nest::LoopNest;
use pdm_runtime::inspector::{self, PreparedVerdict, Verdict};
use pdm_runtime::lru::Lru;
use pdm_runtime::sharded::{
    CacheStats, ShardedPlanCache, VerdictCache, VerdictSource, DEFAULT_VERDICT_CAPACITY,
};
use pdm_runtime::template::{instantiate_compiled, instantiate_seeded, CompiledInstance};
use pdm_runtime::{RuntimeError, Schedule};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A cooperative per-request budget: stages check it between (never
/// inside) their bulk work, so an expired deadline abandons the request
/// at the next stage boundary rather than preempting anything.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// A budget of `ms` milliseconds starting now.
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline(Instant::now() + std::time::Duration::from_millis(ms))
    }

    /// Has the budget expired?
    pub fn expired(&self) -> bool {
        Instant::now() > self.0
    }

    /// Error out if the budget expired (the stage-boundary check).
    pub fn check(deadline: Option<Deadline>) -> Result<(), PdmError> {
        match deadline {
            Some(d) if d.expired() => Err(PdmError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Default shard count for the session's template cache.
pub const DEFAULT_SHARDS: usize = 8;
/// Default template capacity per shard.
pub const DEFAULT_CAPACITY_PER_SHARD: usize = 64;

/// Builder for [`Session`]. All knobs optional:
///
/// ```
/// use pdm_service::Session;
/// let session = Session::builder()
///     .cache_capacity(4, 16) // 4 shards × 16 templates
///     .threads(2)            // execution pool width
///     .build();
/// assert_eq!(session.cache().shard_stats().len(), 4);
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    shards: usize,
    capacity_per_shard: usize,
    verdict_capacity: usize,
    threads: Option<usize>,
    faults: Option<Faults>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            shards: DEFAULT_SHARDS,
            capacity_per_shard: DEFAULT_CAPACITY_PER_SHARD,
            verdict_capacity: DEFAULT_VERDICT_CAPACITY,
            threads: None,
            faults: None,
        }
    }
}

impl SessionBuilder {
    /// Shape of the template cache: `shards` independent shards of
    /// `capacity_per_shard` templates each.
    pub fn cache_capacity(mut self, shards: usize, capacity_per_shard: usize) -> Self {
        self.shards = shards;
        self.capacity_per_shard = capacity_per_shard;
        self
    }

    /// Per-shard point-entry bound of the inspector's
    /// [`VerdictCache`] (default [`DEFAULT_VERDICT_CAPACITY`], 256).
    /// Least-recently-used `(shape, valuation)` verdicts are evicted
    /// beyond it; certified intervals are capped separately.
    pub fn verdict_capacity(mut self, capacity_per_shard: usize) -> Self {
        self.verdict_capacity = capacity_per_shard;
        self
    }

    /// Worker threads for parallel execution (default: the machine
    /// width, as [`rayon::current_num_threads`] reports it).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Fault-injection probes for this session (default: armed from
    /// `PDM_FAULTS` via [`Faults::from_env`], i.e. disabled unless the
    /// environment says otherwise). Tests pass probes here directly so
    /// parallel test binaries never race on global state.
    pub fn faults(mut self, faults: Faults) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Build the session.
    pub fn build(self) -> Session {
        Session {
            cache: Arc::new(ShardedPlanCache::new(self.shards, self.capacity_per_shard)),
            sources: Mutex::new(Lru::new(
                self.shards.max(1) * self.capacity_per_shard.max(1),
            )),
            verdicts: Arc::new(VerdictCache::with_capacity(
                self.shards,
                self.verdict_capacity,
            )),
            pool: self.threads.map(|n| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("the vendored pool builder is infallible")
            }),
            metrics: Arc::new(ServiceMetrics::new()),
            faults: Arc::new(self.faults.unwrap_or_else(Faults::from_env)),
        }
    }
}

/// What [`Session::run`] returns: the executed instance (memory holds
/// the results) plus the iteration count.
pub struct RunOutcome {
    /// The instance that ran; `instance.memory` holds the output.
    pub instance: CompiledInstance,
    /// Iterations executed.
    pub iterations: u64,
    /// Wrapping sum over every array cell after the run — a cheap
    /// order-independent digest for wire responses and differential
    /// checks.
    pub checksum: i64,
    /// The inspector's verdict when the template was planned
    /// speculatively (parametric subscripts) — `None` for templates
    /// whose plan needs no runtime audit.
    pub verdict: Option<Verdict>,
    /// Did a certified valuation *interval* answer the inspector gate
    /// (no audit ran or was ever needed for this valuation)? Always
    /// `false` for uninspected templates.
    pub interval_hit: bool,
}

/// The unified, shareable front end: parse → analyze → template →
/// cache → execute, one error type, internally synchronized.
///
/// Construction fixes the execution environment: parallel runs use the
/// session's thread count. Templates are
/// cached in a sharded single-flight [`ShardedPlanCache`] shared by
/// every clone of the session's `Arc`s — concurrent requests for one
/// shape plan once.
pub struct Session {
    cache: Arc<ShardedPlanCache>,
    sources: Mutex<Lru<MemoEntry>>,
    verdicts: Arc<VerdictCache>,
    pool: Option<rayon::ThreadPool>,
    metrics: Arc<ServiceMetrics>,
    faults: Arc<Faults>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session with default cache shape and machine thread count.
    pub fn new() -> Session {
        Session::builder().build()
    }

    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    // --- parsing ----------------------------------------------------

    /// Parse a concrete loop nest from DSL source.
    pub fn parse(&self, source: &str) -> Result<LoopNest, PdmError> {
        Ok(pdm_loopir::parse::parse_loop(source)?)
    }

    /// Parse with named values substituted (`parse_loop_with`).
    pub fn parse_with(&self, source: &str, binds: &[(&str, i64)]) -> Result<LoopNest, PdmError> {
        Ok(pdm_loopir::parse::parse_loop_with(source, binds)?)
    }

    /// Parse keeping `params` symbolic — the shape templates plan over.
    pub fn parse_symbolic(&self, source: &str, params: &[&str]) -> Result<LoopNest, PdmError> {
        Ok(pdm_loopir::parse::parse_loop_symbolic(source, params)?)
    }

    /// Parse an imperfect nest (statements between loop levels).
    pub fn parse_imperfect(&self, source: &str) -> Result<ImperfectNest, PdmError> {
        Ok(pdm_loopir::parse::parse_imperfect(source)?)
    }

    /// The shape a by-source request names: [`Session::parse_symbolic`]
    /// (or [`Session::parse`] when `params` is empty), answered from the
    /// session's source memo when these exact source bytes and
    /// parameter names were parsed before. The memo holds as many
    /// sources as the template cache holds templates, least recently
    /// used out first; parse errors are not kept.
    pub(crate) fn parse_source(
        &self,
        source: &str,
        params: &[&str],
    ) -> Result<Arc<LoopNest>, PdmError> {
        let mut h = DefaultHasher::new();
        (params, source).hash(&mut h);
        let key = h.finish();
        if let Some(e) = self.memo().get(key, |e| e.is(source, params)) {
            return Ok(e.nest.clone());
        }
        let nest = Arc::new(if params.is_empty() {
            self.parse(source)?
        } else {
            self.parse_symbolic(source, params)?
        });
        let entry = MemoEntry {
            params: params.iter().map(|p| p.to_string()).collect(),
            source: source.to_string(),
            nest: nest.clone(),
        };
        self.memo().insert(key, entry, |e, _| e.is(source, params));
        Ok(nest)
    }

    /// The source memo, with poison recovery: a panic elsewhere leaves
    /// the map consistent between calls.
    fn memo(&self) -> std::sync::MutexGuard<'_, Lru<MemoEntry>> {
        self.sources.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sources the memo currently holds.
    #[cfg(test)]
    pub(crate) fn memoized_sources(&self) -> usize {
        self.memo().len()
    }

    // --- analysis & planning ----------------------------------------

    /// The pseudo-distance-matrix analysis of a nest.
    pub fn analyze(&self, nest: &LoopNest) -> Result<PdmAnalysis, PdmError> {
        Ok(pdm_core::analyze(nest)?)
    }

    /// The plan template for `nest`'s shape — served from the session
    /// cache, planned at most once per shape across all threads
    /// (single-flight). Records acquisition latency in the session
    /// metrics.
    pub fn plan(&self, nest: &LoopNest) -> Result<Arc<PlanTemplate>, PdmError> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let t0 = Instant::now();
        // A panicking planning run (a planner bug, or the plan.leader
        // fault probe) must reach this session's caller as a typed
        // error, same as the flight's followers see — never an unwind
        // through the service. The cache is internally synchronized
        // with poison recovery, so crossing it with catch_unwind is
        // sound.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.cache.get_or_plan_with(nest, || {
                self.faults.panic_if(faults::PLAN_LEADER);
                plan_template(nest)
                    .map(Arc::new)
                    .map_err(RuntimeError::from)
            })
        }))
        .unwrap_or_else(|payload| {
            Err(RuntimeError::PlanningFailed(format!(
                "the planning run for this shape panicked: {}",
                rayon::panic_message(&*payload)
            )))
        });
        self.metrics.template_acquire.record(t0.elapsed());
        Ok(result?)
    }

    /// A cached template by structural hash alone (the wire protocol's
    /// replay path). Fails with [`PdmError::UnknownShape`] when nothing
    /// with that hash is cached — resubmit the source.
    pub fn plan_by_hash(&self, hash: u64) -> Result<Arc<PlanTemplate>, PdmError> {
        self.cache
            .get_by_hash(hash)
            .ok_or(PdmError::UnknownShape(hash))
    }

    /// A concrete [`ParallelPlan`] for a concrete nest — template
    /// planning through the cache, then parameter-free instantiation
    /// (pure bound-row evaluation). Equivalent to
    /// `pdm_core::parallelize(nest)` with caching.
    pub fn parallelize(&self, nest: &LoopNest) -> Result<ParallelPlan, PdmError> {
        Ok(self.plan(nest)?.instantiate(&[])?)
    }

    /// Plan an imperfect nest: normalize to perfect kernels and stage
    /// them by the dependence DAG. (Program plans are not cached —
    /// imperfect sources are not yet hashed structurally.)
    pub fn plan_program(&self, nest: &ImperfectNest) -> Result<ProgramPlan, PdmError> {
        Ok(pdm_core::parallelize_program(nest)?)
    }

    // --- instantiation & execution ----------------------------------

    /// Lower `shape` at `params` to a ready-to-run
    /// [`CompiledInstance`], planning through the cache.
    pub fn instantiate(
        &self,
        shape: &LoopNest,
        params: &[(&str, i64)],
    ) -> Result<CompiledInstance, PdmError> {
        let template = self.plan(shape)?;
        Ok(instantiate_compiled(&template, params)?)
    }

    /// [`Session::instantiate`] from an already-acquired template (the
    /// by-hash wire path).
    pub fn instantiate_template(
        &self,
        template: &PlanTemplate,
        params: &[(&str, i64)],
    ) -> Result<CompiledInstance, PdmError> {
        Ok(instantiate_compiled(template, params)?)
    }

    /// Instantiate and execute in parallel on the session's pool.
    /// Memory is seeded deterministically with `seed` as it is
    /// allocated, so equal requests produce equal checksums.
    pub fn run(
        &self,
        shape: &LoopNest,
        params: &[(&str, i64)],
        seed: u64,
    ) -> Result<RunOutcome, PdmError> {
        let template = self.plan(shape)?;
        self.run_template(&template, params, seed)
    }

    /// [`Session::run`] from an already-acquired template (the by-hash
    /// wire path).
    pub fn run_template(
        &self,
        template: &PlanTemplate,
        params: &[(&str, i64)],
        seed: u64,
    ) -> Result<RunOutcome, PdmError> {
        self.run_template_within(template, params, seed, None)
    }

    /// [`Session::run_template`] under a cooperative [`Deadline`]: the
    /// budget is checked between pipeline stages (after instantiate,
    /// after the inspector audit, after execute) — an expired budget
    /// abandons the request with [`PdmError::DeadlineExceeded`] at the
    /// next boundary.
    ///
    /// Instantiation seeds the memory in the pass that allocates it
    /// ([`instantiate_seeded`]); the audit reads only the instance's
    /// lowering and layout, never cell values.
    ///
    /// Templates planned **speculatively** (parametric subscripts —
    /// [`PlanTemplate::requires_inspection`]) pass through the
    /// inspector first: the verdict for this `(shape, valuation)` pair
    /// — cached in the session's [`VerdictCache`] — picks the executor.
    /// Certified verdicts run the compiled parallel engine unchanged,
    /// refined verdicts run the staged group schedule (laid out once
    /// per cached verdict), and rejected verdicts run the compiled
    /// walker in original order, on the instance's lowered program. The
    /// outcome's `verdict` field reports which path ran.
    ///
    /// Every path is the compiled walker, and a failed compiled run
    /// returns its typed error. The sequential reference interpreter
    /// ([`pdm_runtime::run_sequential`]) is the test oracle, not a
    /// serving path.
    pub fn run_template_within(
        &self,
        template: &PlanTemplate,
        params: &[(&str, i64)],
        seed: u64,
        deadline: Option<Deadline>,
    ) -> Result<RunOutcome, PdmError> {
        Deadline::check(deadline)?;
        let mut instance = instantiate_seeded(template, params, seed)?;
        Deadline::check(deadline)?;
        let (verdict, interval_hit) = if template.requires_inspection() {
            let (v, interval_hit) = self.audit_instance(template, params, &instance)?;
            (Some(v), interval_hit)
        } else {
            (None, false)
        };
        Deadline::check(deadline)?;
        let iterations = self.on_pool(|| match &verdict {
            Some(v) => v.execute(&instance.compiled, &instance.nest, &instance.memory),
            None => instance.compiled.run_parallel(&instance.memory),
        })?;
        Deadline::check(deadline)?;
        let checksum = instance.memory.checksum();
        Ok(RunOutcome {
            instance,
            iterations,
            checksum,
            verdict: verdict.map(|v| v.verdict().clone()),
            interval_hit,
        })
    }

    /// The inspector gate for speculatively planned templates: fetch
    /// (or compute and cache) the verdict for this `(shape, valuation)`
    /// pair, reporting whether a certified *interval* answered it.
    /// A fresh audit walks the instance's own lowering over its
    /// memory's layout ([`inspector::audit_compiled`]), so it neither
    /// projects index ranges nor lowers the nest again. Fresh audits
    /// record their latency in `inspector_audit` and then
    /// try [`PlanTemplate::stability_box`]: a certifiable valuation
    /// interval is cached ahead of point entries, so every in-interval
    /// valuation that follows skips the audit entirely (counted in
    /// `inspector_interval_hits`). Every inspected run bumps the
    /// verdict-kind counter, so the `pdm_inspector_*_total` metrics
    /// count *served runs*, not distinct valuations.
    fn audit_instance(
        &self,
        template: &PlanTemplate,
        params: &[(&str, i64)],
        instance: &CompiledInstance,
    ) -> Result<(Arc<PreparedVerdict>, bool), PdmError> {
        // The cache key orders values by the template's parameter list,
        // so `[("M",1),("N",2)]` and `[("N",2),("M",1)]` share an entry.
        let valuation: Vec<i64> = template
            .param_names()
            .iter()
            .map(|name| {
                params
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|&(_, v)| v)
                    .unwrap_or(0) // unreachable: instantiation validated presence
            })
            .collect();
        let hash = template.nest().structural_hash();
        let (verdict, interval_hit) = match self.verdicts.lookup(hash, &valuation) {
            Some((v, source)) => {
                let interval = source == VerdictSource::Interval;
                if interval {
                    self.metrics
                        .inspector_interval_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                (v, interval)
            }
            None => {
                let t0 = Instant::now();
                let result = self.on_pool(|| {
                    inspector::audit_compiled(&instance.compiled, instance.memory.layout())
                });
                self.metrics.inspector_audit.record(t0.elapsed());
                let v = result?;
                // Certify a whole valuation interval when the geometry
                // allows it; a failed derivation (or a genuinely
                // point-local verdict) degrades to a point entry. The
                // run uses the cached entry, so a refined layout is
                // built once, where every later hit finds it.
                let cached = match template.stability_box(params) {
                    Ok(Some(bounds)) => self.verdicts.insert_interval(hash, &bounds, v),
                    _ => self.verdicts.insert(hash, valuation, v),
                };
                (cached, false)
            }
        };
        let counter = match verdict.verdict() {
            Verdict::Certified => &self.metrics.inspector_certified,
            Verdict::Refined { .. } => &self.metrics.inspector_refined,
            Verdict::Rejected { .. } => &self.metrics.inspector_rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((verdict, interval_hit))
    }

    /// Execute an already-prepared instance on the session's pool
    /// (memory as-is — initialize it first).
    pub fn execute(&self, instance: &CompiledInstance) -> Result<u64, PdmError> {
        Ok(self.on_pool(|| instance.compiled.run_parallel(&instance.memory))?)
    }

    /// Run `f` with the session's thread count governing its parallel
    /// regions (the machine default when the session set none).
    fn on_pool<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }

    // --- introspection ----------------------------------------------

    /// The session's template cache (shared; hand it to a server).
    pub fn cache(&self) -> &Arc<ShardedPlanCache> {
        &self.cache
    }

    /// Aggregated cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The session's inspector verdict cache (one audit per
    /// `(shape, valuation)` pair across all threads).
    pub fn verdicts(&self) -> &Arc<VerdictCache> {
        &self.verdicts
    }

    /// The session's metrics sink (shared with the server layer).
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The session's fault-injection probes (disabled unless armed via
    /// builder or `PDM_FAULTS`).
    pub fn faults(&self) -> &Arc<Faults> {
        &self.faults
    }

    /// The replay-only [`Schedule`] shim, which carries no setting:
    /// servebench's staged replay passes it back to the runtime, and it
    /// is deleted with that replay. No production path reads it.
    pub fn schedule(&self) -> Schedule {
        Schedule
    }

    /// The execution thread count (`None` = machine default).
    pub fn threads(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.current_num_threads())
    }
}

/// One entry of the session's source memo: a parsed shape and the
/// exact source bytes and parameter names it was parsed from.
struct MemoEntry {
    params: Vec<String>,
    source: String,
    nest: Arc<LoopNest>,
}

impl MemoEntry {
    fn is(&self, source: &str, params: &[&str]) -> bool {
        self.source == source
            && self
                .params
                .iter()
                .map(String::as_str)
                .eq(params.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYM: &str = "for i1 = 0..N { for i2 = 0..N {
        A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
    } }";

    #[test]
    fn session_pipeline_matches_free_functions() {
        let session = Session::builder().cache_capacity(2, 8).threads(2).build();
        let nest = session
            .parse("for i = 0..=20 { A[3*i + 9] = A[3*i] + 1; }")
            .unwrap();
        let analysis = session.analyze(&nest).unwrap();
        assert_eq!(analysis.depth(), 1);

        let via_session = session.parallelize(&nest).unwrap();
        let direct = pdm_core::parallelize(&nest).unwrap();
        assert_eq!(via_session.doall_count(), direct.doall_count());
        assert_eq!(via_session.partition_count(), direct.partition_count());
    }

    #[test]
    fn run_is_deterministic_and_checksummed() {
        let session = Session::builder().threads(2).build();
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        let a = session.run(&shape, &[("N", 16)], 7).unwrap();
        let b = session.run(&shape, &[("N", 16)], 7).unwrap();
        assert_eq!(a.iterations, 256);
        assert_eq!(a.checksum, b.checksum);
        // One template served both runs.
        let s = session.cache_stats();
        assert_eq!(s.planned, 1);
        assert_eq!(s.hits, 1);
        assert!(session.metrics().template_acquire.count() >= 2);
    }

    #[test]
    fn plan_by_hash_replays_and_rejects_unknown() {
        let session = Session::new();
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        let hash = shape.structural_hash();
        assert!(matches!(
            session.plan_by_hash(hash),
            Err(PdmError::UnknownShape(h)) if h == hash
        ));
        let planned = session.plan(&shape).unwrap();
        let by_hash = session.plan_by_hash(hash).unwrap();
        assert!(Arc::ptr_eq(&planned, &by_hash));
        let inst = session.instantiate_template(&by_hash, &[("N", 8)]).unwrap();
        assert_eq!(session.execute(&inst).unwrap(), 64);
    }

    #[test]
    fn expired_deadline_abandons_the_run() {
        let session = Session::builder().threads(1).build();
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        let template = session.plan(&shape).unwrap();
        // A zero-millisecond budget that has certainly expired by the
        // first stage boundary.
        let d = Deadline::in_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = session
            .run_template_within(&template, &[("N", 8)], 1, Some(d))
            .map(|o| o.iterations)
            .unwrap_err();
        assert_eq!(err, PdmError::DeadlineExceeded);
        // A generous budget runs to completion.
        let ok = session
            .run_template_within(&template, &[("N", 8)], 1, Some(Deadline::in_ms(60_000)))
            .unwrap();
        assert_eq!(ok.iterations, 64);
    }

    #[test]
    fn injected_leader_panic_is_typed_and_retryable() {
        let session = Session::builder()
            .threads(1)
            .faults(Faults::parse("plan.leader:1:1", 0).unwrap())
            .build();
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        // First plan: the leader panics (limit 1); the caller must see
        // a typed planning failure, not a poisoned-lock cascade.
        let err = session.plan(&shape).unwrap_err();
        assert_eq!(err.kind(), "planning_failed");
        // Retry: the probe is exhausted, planning succeeds, and the
        // cache bucket invariant still holds.
        let template = session.plan(&shape).unwrap();
        assert_eq!(template.depth(), 2);
        let s = session.cache_stats();
        assert_eq!(s.hits + s.planned + s.waited, s.requests());
    }

    /// The 1D shifted chain: the hull (`K` dropped) carries no
    /// dependence, so the template plans fully parallel and every run
    /// must pass through the inspector.
    const SHIFTED: &str = "for i = 0..=19 { A[i + K] = A[i] + 1; }";

    #[test]
    fn inspected_runs_dispatch_on_the_verdict() {
        let session = Session::builder().threads(2).build();
        let shape = session.parse_symbolic(SHIFTED, &["K"]).unwrap();
        let template = session.plan(&shape).unwrap();
        assert!(template.requires_inspection());

        // K = 0: the accesses coincide, the hull plan is exact —
        // certified, parallel, 20 iterations.
        let ok = session.run(&shape, &[("K", 0)], 5).unwrap();
        assert_eq!(ok.iterations, 20);
        assert_eq!(ok.verdict, Some(Verdict::Certified));

        // K = 1: a real loop-carried chain the hull missed — the
        // verdict must demote the run, and the output must match the
        // sequential reference for the same concrete nest and seed.
        let demoted = session.run(&shape, &[("K", 1)], 5).unwrap();
        assert!(matches!(
            demoted.verdict,
            Some(Verdict::Refined { .. }) | Some(Verdict::Rejected { .. })
        ));
        let concrete = session
            .parse("for i = 0..=19 { A[i + 1] = A[i] + 1; }")
            .unwrap();
        let mut reference = pdm_runtime::Memory::for_nest(&concrete).unwrap();
        reference.init_deterministic(5);
        pdm_runtime::run_sequential(&concrete, &reference).unwrap();
        let ref_sum = reference
            .snapshot()
            .iter()
            .flat_map(|a| a.iter())
            .fold(0i64, |acc, &v| acc.wrapping_add(v));
        assert_eq!(demoted.iterations, 20);
        assert_eq!(demoted.checksum, ref_sum);

        // Parameter-free templates skip the inspector entirely.
        let plain = session.run(&concrete, &[], 5).unwrap();
        assert_eq!(plain.verdict, None);
    }

    #[test]
    fn verdicts_are_cached_per_valuation_and_counted() {
        let session = Session::builder().threads(1).build();
        let shape = session.parse_symbolic(SHIFTED, &["K"]).unwrap();
        for _ in 0..3 {
            session.run(&shape, &[("K", 0)], 1).unwrap();
        }
        session.run(&shape, &[("K", 1)], 1).unwrap();
        // Two distinct valuations audited once each; the other two
        // K = 0 runs were verdict-cache hits.
        let s = session.verdicts().stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(session.verdicts().len(), 2);
        // Counters tally served runs, not distinct valuations.
        let m = session.metrics();
        assert_eq!(m.inspector_certified.load(Ordering::Relaxed), 3);
        assert_eq!(
            m.inspector_refined.load(Ordering::Relaxed)
                + m.inspector_rejected.load(Ordering::Relaxed),
            1
        );
        assert!(m.inspector_audit.count() >= 2);
    }

    #[test]
    fn interval_storm_audits_once_and_skips_thereafter() {
        // Far shifts certify the interval K ∈ [20, ∞): the first
        // in-interval request audits once, every other valuation in
        // the storm is an interval hit — no audit, no point entry.
        let session = Session::builder().threads(1).build();
        let shape = session.parse_symbolic(SHIFTED, &["K"]).unwrap();
        for k in 40..72 {
            let out = session.run(&shape, &[("K", k)], 1).unwrap();
            assert_eq!(out.verdict, Some(Verdict::Certified), "K={k}");
            assert_eq!(out.interval_hit, k != 40, "K={k}");
            assert_eq!(out.iterations, 20);
        }
        let m = session.metrics();
        assert_eq!(m.inspector_audit.count(), 1, "exactly one audit");
        assert_eq!(m.inspector_interval_hits.load(Ordering::Relaxed), 31);
        assert_eq!(m.inspector_certified.load(Ordering::Relaxed), 32);
        let stats = session.verdicts().stats();
        assert_eq!(stats.interval_hits, 31);
        assert_eq!(stats.intervals, 1);
        assert_eq!(stats.entries, 0, "no point entries for boxed valuations");
        // A fresh out-of-interval valuation still audits normally.
        session.run(&shape, &[("K", 1)], 1).unwrap();
        assert_eq!(m.inspector_audit.count(), 2);
        assert_eq!(session.verdicts().len(), 1);
    }

    #[test]
    fn audits_run_at_the_session_thread_count() {
        // A fresh 96×96 audit walks for hundreds of microseconds, far
        // past rayon::SPAWN_AFTER, so its region goes as wide as the pool
        // it runs under. The call opens from a 4-wide context: an audit
        // that ignored the session's own width would run 4 wide there.
        let wide = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        for threads in [1, 2] {
            let session = Session::builder().threads(threads).build();
            let shape = session
                .parse_symbolic(
                    "for i1 = 0..=95 { for i2 = 0..=95 {
                        A[5*i1 + i2 + K, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
                    } }",
                    &["K"],
                )
                .unwrap();
            let template = session.plan(&shape).unwrap();
            let instance = session
                .instantiate_template(&template, &[("K", 1)])
                .unwrap();
            let (audited, tally) = wide.install(|| {
                rayon::tally_regions(|| session.audit_instance(&template, &[("K", 1)], &instance))
            });
            audited.unwrap();
            assert_eq!(session.metrics().inspector_audit.count(), 1);
            assert_eq!(tally.regions, 1, "the audit is one region");
            assert_eq!(tally.threads, threads, "session width {threads}");
        }
    }

    #[test]
    fn checksum_folds_the_cells_in_place() {
        let session = Session::builder().threads(1).build();
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        let out = session.run(&shape, &[("N", 16)], 7).unwrap();
        let copied = out
            .instance
            .memory
            .snapshot()
            .iter()
            .flat_map(|a| a.iter())
            .fold(0i64, |acc, &v| acc.wrapping_add(v));
        assert_eq!(out.checksum, copied);
        assert_ne!(copied, 0, "a seeded memory sums to something");
    }

    #[test]
    fn a_failed_compiled_run_is_a_typed_error() {
        let session = Session::builder().threads(2).build();
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        let template = session.plan(&shape).unwrap();
        // Swap in a program lowered against the N = 16 memory: its flat
        // offsets overrun the N = 8 arrays, so the compiled run fails.
        let big = session
            .instantiate_template(&template, &[("N", 16)])
            .unwrap();
        let mut inst = session
            .instantiate_template(&template, &[("N", 8)])
            .unwrap();
        inst.compiled = big.compiled;
        assert!(matches!(
            session.execute(&inst),
            Err(PdmError::Runtime(RuntimeError::OutOfBounds { .. }))
        ));
    }

    /// The parity shape: odd `K` makes the even and odd chains of the
    /// hull plan feed each other, interleaved — a rejected verdict.
    const PARITY: &str = "for i = 0..=999 { A[i + K] = A[i - 2] + 1; }";

    /// Checksum of `src` at `K = k` run by the reference interpreter.
    fn reference_checksum(src: &str, k: i64, seed: u64) -> i64 {
        let nest = pdm_loopir::parse::parse_loop_with(src, &[("K", k)]).unwrap();
        let mut memory = pdm_runtime::Memory::for_nest(&nest).unwrap();
        memory.init_deterministic(seed);
        pdm_runtime::run_sequential(&nest, &memory).unwrap();
        memory.checksum()
    }

    #[test]
    fn seeds_past_the_seed_table_match_the_reference() {
        // 2^40 lies past the shared seed table: every cell is computed
        // by the formula, and the served checksum must still be the
        // reference interpreter's, on the certified, refined and
        // rejected paths alike.
        let session = Session::builder().threads(2).build();
        let cases = [
            (SHIFTED, 0, "certified"),
            (SHIFTED, 3, "refined"),
            (PARITY, 3, "rejected"),
        ];
        for seed in [1, 1 << 40] {
            for (src, k, kind) in cases {
                let shape = session.parse_symbolic(src, &["K"]).unwrap();
                let out = session.run(&shape, &[("K", k)], seed).unwrap();
                assert_eq!(out.verdict.as_ref().map(Verdict::kind), Some(kind));
                assert_eq!(
                    out.checksum,
                    reference_checksum(src, k, seed),
                    "{src} at K={k}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn rejected_runs_walk_compiled_and_match_the_reference() {
        for threads in [1, 2] {
            let session = Session::builder().threads(threads).build();
            let shape = session.parse_symbolic(PARITY, &["K"]).unwrap();
            for k in [1, 3, 7] {
                let out = session.run(&shape, &[("K", k)], 3).unwrap();
                assert_eq!(out.verdict.as_ref().map(Verdict::kind), Some("rejected"));
                assert_eq!(out.iterations, 1000);
                assert_eq!(
                    out.checksum,
                    reference_checksum(PARITY, k, 3),
                    "K={k} at width {threads}"
                );
            }
            let m = session.metrics();
            assert_eq!(m.inspector_rejected.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn refined_layout_is_kept_with_the_cached_verdict() {
        // Row shift at K = 1: four stages of 64 groups. The second run
        // is a verdict-cache hit served from the kept layout; both
        // match the reference.
        let src = "for i1 = 0..=3 { for i2 = 0..=63 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        let session = Session::builder().threads(2).build();
        let shape = session.parse_symbolic(src, &["K"]).unwrap();
        let expect = reference_checksum(src, 1, 9);
        for _ in 0..3 {
            let out = session.run(&shape, &[("K", 1)], 9).unwrap();
            assert_eq!(out.verdict.as_ref().map(Verdict::kind), Some("refined"));
            assert_eq!((out.iterations, out.checksum), (256, expect));
        }
        assert_eq!(session.verdicts().stats().hits, 2);
    }

    #[test]
    fn a_fresh_audit_runs_on_the_cached_verdict() {
        // The refined layout is kept on the entry a fresh audit runs on,
        // so it must be the entry the cache holds, not a copy.
        let src = "for i1 = 0..=3 { for i2 = 0..=63 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        let (session, params) = (Session::new(), [("K", 1)]);
        let shape = session.parse_symbolic(src, &["K"]).unwrap();
        let template = session.plan(&shape).unwrap();
        let inst = session.instantiate(&shape, &params).unwrap();
        let (fresh, _) = session.audit_instance(&template, &params, &inst).unwrap();
        assert_eq!(fresh.verdict().kind(), "refined");
        let (cached, _) = session
            .verdicts()
            .lookup(shape.structural_hash(), &[1])
            .expect("the audit cached its verdict");
        assert!(Arc::ptr_eq(&fresh, &cached));
    }

    const MEMO_SRC: &str = "for i = 1..=N { A[i + 3] = A[i] + 1; }";

    #[test]
    fn source_memo_hits_share_the_parse_and_the_template() {
        let session = Session::builder().cache_capacity(2, 4).build();
        let first = session.parse_source(MEMO_SRC, &["N"]).unwrap();
        let again = session.parse_source(MEMO_SRC, &["N"]).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "a hit reuses the parse");
        // The template a hit acquires is the one a fresh parse acquires.
        let fresh = session.parse_symbolic(MEMO_SRC, &["N"]).unwrap();
        let planned = session.plan(&fresh).unwrap();
        assert!(Arc::ptr_eq(&session.plan(&again).unwrap(), &planned));

        // A whitespace variant is its own memo entry, the same shape.
        let spaced = MEMO_SRC.replace("= A", "=  A");
        let variant = session.parse_source(&spaced, &["N"]).unwrap();
        assert!(!Arc::ptr_eq(&variant, &first));
        assert!(Arc::ptr_eq(&session.plan(&variant).unwrap(), &planned));
        assert_eq!(session.memoized_sources(), 2);
        // So are other parameter names for the same bytes.
        assert!(session.parse_source(MEMO_SRC, &["N", "M"]).is_ok());
        assert_eq!(session.memoized_sources(), 3);

        // Parse errors are returned, not kept.
        for _ in 0..2 {
            assert!(matches!(
                session.parse_source("for broken {", &[]),
                Err(PdmError::Parse(_))
            ));
        }
        assert_eq!(session.memoized_sources(), 3);
        assert_eq!(session.cache_stats().planned, 1);
    }

    #[test]
    fn source_memo_is_bounded_by_the_template_capacity() {
        let session = Session::builder().cache_capacity(2, 4).build();
        for d in 0..1000 {
            let src = format!("for i = 1..=N {{ A[i + {d}] = A[i] + 1; }}");
            session.parse_source(&src, &["N"]).unwrap();
            assert!(session.memoized_sources() <= 8, "after {d} sources");
        }
        assert_eq!(session.memoized_sources(), 8);
        // The most recent source is still a hit.
        let last = "for i = 1..=N { A[i + 999] = A[i] + 1; }";
        let a = session.parse_source(last, &["N"]).unwrap();
        let b = session.parse_source(last, &["N"]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn errors_unify_under_pdm_error() {
        let session = Session::new();
        assert!(matches!(
            session.parse("for broken {"),
            Err(PdmError::Parse(_))
        ));
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        // Missing parameter valuation surfaces as a runtime error.
        assert!(session.instantiate(&shape, &[]).is_err());
    }
}
