//! [`Session`] — the unified front end to the whole pipeline.
//!
//! A session wraps parse → analyze → template → cache → execute behind
//! one object with one error type ([`PdmError`]). It is `Sync` and
//! meant to be shared: every method takes `&self`, template planning is
//! deduplicated through the session's [`ShardedPlanCache`], and the
//! execution schedule plus thread count are fixed at construction (from
//! [`RuntimeConfig`] unless overridden) instead of re-read from the
//! environment per call.
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
use pdm_runtime::inspector::{self, Verdict};
use pdm_runtime::sharded::{CacheStats, ShardedPlanCache, VerdictCache, VerdictSource};
use pdm_runtime::template::{instantiate_compiled, CompiledInstance};
use pdm_runtime::{RuntimeConfig, RuntimeError, Schedule};
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
/// assert_eq!(session.cache().shard_count(), 4);
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    shards: usize,
    capacity_per_shard: usize,
    verdict_capacity: Option<usize>,
    threads: Option<usize>,
    config: Option<RuntimeConfig>,
    faults: Option<Faults>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            shards: DEFAULT_SHARDS,
            capacity_per_shard: DEFAULT_CAPACITY_PER_SHARD,
            verdict_capacity: None,
            threads: None,
            config: None,
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
    /// [`VerdictCache`] (default: the session config's
    /// `verdict_capacity`, i.e. `PDM_VERDICT_CAPACITY` or 256).
    /// Least-recently-used `(shape, valuation)` verdicts are evicted
    /// beyond it; certified intervals are capped separately.
    pub fn verdict_capacity(mut self, capacity_per_shard: usize) -> Self {
        self.verdict_capacity = Some(capacity_per_shard);
        self
    }

    /// Worker threads for parallel execution (default: the machine
    /// width, as [`rayon::current_num_threads`] reports it).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Runtime configuration override (default:
    /// [`RuntimeConfig::global`], the environment read once per
    /// process).
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = Some(config);
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
        let config = self
            .config
            .unwrap_or_else(|| RuntimeConfig::global().clone());
        let schedule = config.schedule();
        Session {
            cache: Arc::new(ShardedPlanCache::new(self.shards, self.capacity_per_shard)),
            verdicts: Arc::new(VerdictCache::with_capacity(
                self.shards,
                self.verdict_capacity.unwrap_or(config.verdict_capacity),
            )),
            pool: self.threads.map(|n| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .expect("the vendored pool builder is infallible")
            }),
            schedule,
            config,
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
/// Construction fixes the execution environment: the range-splitting
/// [`Schedule`] comes from the session's [`RuntimeConfig`] (by default
/// the process-wide environment read), and parallel runs use the
/// session's thread count. Templates are cached in a sharded
/// single-flight [`ShardedPlanCache`] shared by every clone of the
/// session's `Arc`s — concurrent requests for one shape plan once.
pub struct Session {
    cache: Arc<ShardedPlanCache>,
    verdicts: Arc<VerdictCache>,
    pool: Option<rayon::ThreadPool>,
    schedule: Schedule,
    config: RuntimeConfig,
    metrics: Arc<ServiceMetrics>,
    faults: Arc<Faults>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session with default cache shape, machine thread count, and
    /// the process-wide [`RuntimeConfig`].
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

    /// Instantiate and execute in parallel on the session's pool and
    /// schedule. Memory is seeded deterministically with `seed` before
    /// the run, so equal requests produce equal checksums.
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
    /// next boundary. A failed parallel execution degrades to the
    /// sequential reference interpreter, counted in `fallback_runs` /
    /// `fallback_successes`.
    ///
    /// Templates planned **speculatively** (parametric subscripts —
    /// [`PlanTemplate::requires_inspection`]) pass through the
    /// inspector first: the verdict for this `(shape, valuation)` pair
    /// — cached in the session's [`VerdictCache`] — picks the executor.
    /// Certified verdicts run the compiled parallel engine unchanged,
    /// refined verdicts run the staged group schedule, and rejected
    /// verdicts run the sequential reference order. The outcome's
    /// `verdict` field reports which path ran.
    pub fn run_template_within(
        &self,
        template: &PlanTemplate,
        params: &[(&str, i64)],
        seed: u64,
        deadline: Option<Deadline>,
    ) -> Result<RunOutcome, PdmError> {
        Deadline::check(deadline)?;
        let mut instance = self.instantiate_template(template, params)?;
        Deadline::check(deadline)?;
        let (verdict, interval_hit) = if template.requires_inspection() {
            let (v, interval_hit) = self.audit_instance(template, params, &instance)?;
            (Some(v), interval_hit)
        } else {
            (None, false)
        };
        Deadline::check(deadline)?;
        instance.memory.init_deterministic(seed);
        let iterations = match &verdict {
            // Refined: the plan's groups are safe only in dependence
            // stages — run the compiled engine's range tasks stage by
            // stage (a barrier between stages, the groups of one stage
            // concurrent).
            Some(Verdict::Refined { stages }) => {
                let run = || {
                    inspector::run_refined_compiled(
                        &instance.compiled,
                        &instance.memory,
                        stages,
                        self.schedule,
                    )
                };
                match &self.pool {
                    Some(pool) => pool.install(run),
                    None => run(),
                }?
            }
            // Rejected: this valuation's dependences defeat the hull
            // plan entirely — sequential reference order.
            Some(Verdict::Rejected { .. }) => {
                pdm_runtime::run_sequential(&instance.nest, &instance.memory)?
            }
            // Uninspected or certified: the compiled parallel engine.
            None | Some(Verdict::Certified) => {
                self.execute_or_degrade(&mut instance, seed, deadline)?
            }
        };
        Deadline::check(deadline)?;
        let checksum = checksum(&instance.memory);
        Ok(RunOutcome {
            instance,
            iterations,
            checksum,
            verdict,
            interval_hit,
        })
    }

    /// The inspector gate for speculatively planned templates: fetch
    /// (or compute and cache) the verdict for this `(shape, valuation)`
    /// pair, reporting whether a certified *interval* answered it.
    /// Fresh audits record their latency in `inspector_audit` and then
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
    ) -> Result<(Verdict, bool), PdmError> {
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
        let (verdict, interval_hit) = match self.verdicts.get_with_source(hash, &valuation) {
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
                let result = inspector::audit(&instance.nest, &instance.plan);
                self.metrics.inspector_audit.record(t0.elapsed());
                let v = result?;
                // Certify a whole valuation interval when the geometry
                // allows it; a failed derivation (or a genuinely
                // point-local verdict) degrades to a point entry.
                match template.stability_box(params) {
                    Ok(Some(bounds)) => self.verdicts.insert_interval(hash, &bounds, v.clone()),
                    _ => self.verdicts.insert(hash, valuation, v.clone()),
                }
                (v, false)
            }
        };
        let counter = match &verdict {
            Verdict::Certified => &self.metrics.inspector_certified,
            Verdict::Refined { .. } => &self.metrics.inspector_refined,
            Verdict::Rejected { .. } => &self.metrics.inspector_rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok((verdict, interval_hit))
    }

    /// Execute an already-prepared instance on the session's pool with
    /// the session's schedule (memory as-is — initialize it first).
    pub fn execute(&self, instance: &CompiledInstance) -> Result<u64, PdmError> {
        let run = || {
            instance
                .compiled
                .run_parallel_scheduled(&instance.memory, self.schedule)
        };
        let iterations = match &self.pool {
            Some(pool) => pool.install(run),
            None => run(),
        }?;
        Ok(iterations)
    }

    /// [`Session::execute`] with graceful degradation: when the compiled
    /// parallel run fails, re-seed the memory and re-run the instance on
    /// the sequential reference interpreter
    /// ([`pdm_runtime::run_sequential`]), which shares no code with the
    /// compiled walker, so a deterministic failure of the compiled path
    /// (a group-count or residue overflow, an out-of-bounds flat offset)
    /// does not recur. If the reference fails too, the primary error is
    /// the truth worth surfacing.
    fn execute_or_degrade(
        &self,
        instance: &mut CompiledInstance,
        seed: u64,
        deadline: Option<Deadline>,
    ) -> Result<u64, PdmError> {
        let primary = match self.execute(instance) {
            Ok(n) => return Ok(n),
            Err(e) => e,
        };
        self.metrics.fallback_runs.fetch_add(1, Ordering::Relaxed);
        Deadline::check(deadline)?;
        instance.memory.init_deterministic(seed);
        let n =
            pdm_runtime::run_sequential(&instance.nest, &instance.memory).map_err(|_| primary)?;
        self.metrics
            .fallback_successes
            .fetch_add(1, Ordering::Relaxed);
        Ok(n)
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

    /// The runtime configuration the session was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The range-splitting schedule the session executes with.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The execution thread count (`None` = machine default).
    pub fn threads(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.current_num_threads())
    }
}

/// Wrapping sum over every array cell — the run checksum.
fn checksum(memory: &pdm_runtime::Memory) -> i64 {
    memory
        .snapshot()
        .iter()
        .flat_map(|arr| arr.iter())
        .fold(0i64, |acc, &v| acc.wrapping_add(v))
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
        let (hits, misses) = session.verdicts().hit_stats();
        assert_eq!((hits, misses), (2, 2));
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
    fn failed_execution_degrades_to_the_reference_interpreter() {
        let session = Session::builder().threads(2).build();
        let shape = session.parse_symbolic(SYM, &["N"]).unwrap();
        let template = session.plan(&shape).unwrap();
        let expected = session.run(&shape, &[("N", 8)], 5).unwrap();

        // Swap in a program lowered against the N = 16 memory: its flat
        // offsets overrun the N = 8 arrays, so the compiled run fails
        // deterministically and would fail again if retried.
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
        let n = session.execute_or_degrade(&mut inst, 5, None).unwrap();
        assert_eq!(n, expected.iterations);
        assert_eq!(checksum(&inst.memory), expected.checksum);
        let m = session.metrics();
        assert_eq!(m.fallback_runs.load(Ordering::Relaxed), 1);
        assert_eq!(m.fallback_successes.load(Ordering::Relaxed), 1);

        // When the reference fails as well, the primary error surfaces.
        inst.nest = big.nest;
        assert!(matches!(
            session.execute_or_degrade(&mut inst, 5, None),
            Err(PdmError::Runtime(RuntimeError::OutOfBounds { .. }))
        ));
        assert_eq!(m.fallback_runs.load(Ordering::Relaxed), 2);
        assert_eq!(m.fallback_successes.load(Ordering::Relaxed), 1);
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
