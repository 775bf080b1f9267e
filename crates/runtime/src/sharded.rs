//! Concurrent plan caching: a sharded template cache with single-flight
//! deduplication.
//!
//! A serving layer answers many concurrent requests, and one mutex
//! around one cache would serialize every lookup *and* every planning
//! run behind it. [`ShardedPlanCache`] avoids both:
//!
//! * **Sharding.** The cache splits into N independent shards selected
//!   by the nest's [`structural hash`](LoopNest::structural_hash); each
//!   shard is its own [`Lru`] of `(nest, template)` pairs behind its own
//!   lock, keyed by that hash and verified by nest equality on hit, so
//!   lookups for different shapes contend only within their shard.
//!   Per-shard hit/miss/eviction counters aggregate into [`CacheStats`].
//!
//! * **Single-flight planning.** On a miss, planning (dependence
//!   analysis + Fourier–Motzkin — the milliseconds-scale work the cache
//!   exists to amortize) runs *outside* every lock, and concurrent
//!   requests for the same shape are deduplicated: the first requester
//!   becomes the **leader** and plans; followers wait on the leader's
//!   `Flight` and receive the same `Arc` (or the same error) without
//!   planning again. A thundering herd of M identical requests costs
//!   one planning run, not M.
//!
//! The waiting protocol has no lost wakeups: a flight's result slot and
//! its condvar share one mutex, so a follower either observes the
//! filled slot or is parked before the leader's `notify_all`. In-flight
//! entries are keyed by hash but carry the full nest, and followers
//! join a flight only on nest *equality* — a 64-bit hash collision
//! degrades to two independent planning runs instead of aliasing two
//! kernels (the same guarantee the shard's [`Lru`] makes for cached
//! entries).
//!
//! **Fault hardening.** The flight slot is a tri-state
//! (`Pending`/`Ready`/`Failed`), and the leader's planning run executes
//! under a completion guard: if the leader unwinds (a panic inside
//! planning — injectable via `pdm-service`'s fault harness, or a real
//! bug), the guard's `Drop` still clears the in-flight entry and fills
//! the slot with [`RuntimeError::PlanningFailed`], so every follower
//! wakes with a typed, retryable error instead of parking forever on a
//! condvar nobody will signal. Flight locks and shard cache locks share
//! one poison-recovery policy (`lock_recovering`): both structures are
//! consistent between critical sections, so a panicked thread elsewhere
//! must not cascade into every later request.
//!
//! Lock ordering: the flight table's lock may be held while taking the
//! shard's cache lock (miss re-check), never the reverse — leaders
//! insert into the cache and then clear their flight in two separate
//! critical sections.
//!
//! The module also hosts [`VerdictCache`], the sharded store of
//! inspector verdicts keyed by `(structural_hash, valuation)` — the
//! per-size companion of the per-shape template cache, so a service
//! audits each `(shape, size)` pair once (see [`crate::inspector`]).
//! It holds each verdict as a shared [`PreparedVerdict`], so a refined
//! verdict's stage layout is built once and reused by every hit.

use crate::inspector::{PreparedVerdict, Verdict};
use crate::lru::Lru;
use crate::{Result, RuntimeError};
use pdm_core::template::{plan_template, PlanTemplate};
use pdm_loopir::nest::LoopNest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Lock with poison recovery: the flight structures and the shard
/// caches keep their state consistent between critical sections, so a
/// panic that poisons the mutex must not wedge later requests.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The tri-state slot of a [`Flight`].
enum FlightState {
    /// The leader is still planning.
    Pending,
    /// The leader finished (`Ok` or a typed planning error) — this
    /// exact result is shared with every follower.
    Ready(Result<Arc<PlanTemplate>>),
    /// The leader died without publishing (panic mid-plan). Followers
    /// receive [`RuntimeError::PlanningFailed`]; the shape is
    /// retryable.
    Failed,
}

/// One in-flight planning run: the leader resolves `slot` out of
/// `Pending` and notifies; followers wait until it is resolved.
struct Flight {
    /// The shape being planned — followers join only on equality.
    nest: LoopNest,
    slot: Mutex<FlightState>,
    ready: Condvar,
}

impl Flight {
    fn new(nest: LoopNest) -> Flight {
        Flight {
            nest,
            slot: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Leader side: publish the outcome and wake every follower.
    fn fill(&self, state: FlightState) {
        let mut slot = lock_recovering(&self.slot);
        *slot = state;
        self.ready.notify_all();
    }

    /// Follower side: block until the leader publishes (or dies — the
    /// leader's completion guard turns that into `Failed`).
    fn wait(&self) -> Result<Arc<PlanTemplate>> {
        let mut slot = lock_recovering(&self.slot);
        loop {
            match &*slot {
                FlightState::Pending => {}
                FlightState::Ready(result) => return result.clone(),
                FlightState::Failed => {
                    return Err(RuntimeError::PlanningFailed(
                        "the planning run for this shape panicked".into(),
                    ))
                }
            }
            slot = match self.ready.wait(slot) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

struct Shard {
    /// Templates keyed by structural hash, verified by nest equality.
    cache: Mutex<Lru<(LoopNest, Arc<PlanTemplate>)>>,
    /// Hash → flights currently planning a shape with that hash. A
    /// `Vec` per hash because distinct shapes may collide; each flight
    /// carries its nest and is matched by equality.
    inflight: Mutex<HashMap<u64, Vec<Arc<Flight>>>>,
    hits: AtomicU64,
    planned: AtomicU64,
    waited: AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            cache: Mutex::new(Lru::new(capacity)),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            planned: AtomicU64::new(0),
            waited: AtomicU64::new(0),
        }
    }
}

/// Counter snapshot of a [`ShardedPlanCache`] (one shard via
/// [`ShardedPlanCache::shard_stats`], or the whole cache via
/// [`ShardedPlanCache::stats`]).
///
/// Every [`get_or_plan`](ShardedPlanCache::get_or_plan) call lands in
/// exactly one of `hits`, `planned`, or `waited`, so
/// `hits + planned + waited` equals the total request count
/// ([`CacheStats::requests`]) and `planned` is the number of actual
/// planning runs — with single-flight dedup, at most one per distinct
/// shape concurrently, and exactly one per shape when nothing evicts.
///
/// The bucket invariant holds on **every** exit path, including the
/// `planning_failed` ones: a leader whose planning closure returns an
/// error counts `planned` in the flight guard's `complete`, a leader
/// that *panics* counts `planned` in the guard's `Drop` (the same
/// `Drop` that fails the flight), and every follower of either counted
/// `waited` before parking. A storm of panicking leaders therefore
/// cannot leak or double-count a request — pinned by the
/// `panicking_leader_storm_keeps_stats_invariant` regression test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that planned (led a flight).
    pub planned: u64,
    /// Requests that waited on another request's flight.
    pub waited: u64,
    /// Cache entries displaced by LRU eviction.
    pub evictions: u64,
    /// Templates currently cached.
    pub entries: u64,
}

impl CacheStats {
    /// Total requests: `hits + planned + waited`.
    pub fn requests(&self) -> u64 {
        self.hits + self.planned + self.waited
    }

    /// Requests that missed the cache: `planned + waited`.
    pub fn misses(&self) -> u64 {
        self.planned + self.waited
    }

    /// Element-wise sum (aggregating shards).
    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.planned += other.planned;
        self.waited += other.waited;
        self.evictions += other.evictions;
        self.entries += other.entries;
    }
}

/// A sharded, internally synchronized LRU cache of [`PlanTemplate`]s
/// with single-flight planning — the concurrent template store behind
/// `pdm-service`'s sessions.
///
/// Every method takes `&self`: the cache is `Sync` and meant to be
/// shared (`Arc`) across worker threads.
///
/// ```
/// use pdm_loopir::parse::parse_loop_symbolic;
/// use pdm_runtime::sharded::ShardedPlanCache;
/// use std::sync::Arc;
///
/// let cache = Arc::new(ShardedPlanCache::new(8, 64));
/// let shape = parse_loop_symbolic(
///     "for i = 1..=N { A[i] = A[i - 1] + 1; }", &["N"]).unwrap();
/// let a = cache.get_or_plan(&shape).unwrap(); // plans
/// let b = cache.get_or_plan(&shape).unwrap(); // hits
/// assert!(Arc::ptr_eq(&a, &b));
/// let s = cache.stats();
/// assert_eq!((s.hits, s.planned, s.waited), (1, 1, 0));
/// ```
pub struct ShardedPlanCache {
    shards: Vec<Shard>,
}

impl ShardedPlanCache {
    /// A cache of `shards` independent shards (≥ 1), each holding at
    /// most `capacity_per_shard` templates (≥ 1).
    pub fn new(shards: usize, capacity_per_shard: usize) -> ShardedPlanCache {
        ShardedPlanCache {
            shards: (0..shards.max(1))
                .map(|_| Shard::new(capacity_per_shard))
                .collect(),
        }
    }

    fn shard_for(&self, hash: u64) -> &Shard {
        // The structural hash is FNV-mixed; plain modulo spreads it.
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// The template for `nest`'s shape: cached, joined from an
    /// in-flight planning run for the same shape, or freshly planned —
    /// whichever is available, with planning always outside every lock
    /// and deduplicated across concurrent callers.
    ///
    /// Errors are delivered to the leader *and* every follower of the
    /// failed flight, but are not cached: a later request for the same
    /// shape plans again. A leader that *panics* mid-plan cannot strand
    /// its followers either — they receive
    /// [`RuntimeError::PlanningFailed`] and the in-flight entry is
    /// cleared so the next request re-plans (see
    /// [`get_or_plan_with`](ShardedPlanCache::get_or_plan_with)).
    pub fn get_or_plan(&self, nest: &LoopNest) -> Result<Arc<PlanTemplate>> {
        self.get_or_plan_with(nest, || {
            plan_template(nest)
                .map(Arc::new)
                .map_err(RuntimeError::from)
        })
    }

    /// [`get_or_plan`](ShardedPlanCache::get_or_plan) with the planning
    /// step supplied by the caller — the hook `pdm-service` uses to
    /// wrap planning with fault probes and deadline checks. `plan` runs
    /// at most once, outside every lock, only when this call leads a
    /// flight; its result must be the template for `nest` (inserting
    /// anything else would alias shapes).
    ///
    /// The leader runs under a completion guard: if `plan` unwinds, the
    /// guard clears the in-flight entry and fails the flight, so
    /// followers get a typed error instead of a deadlock, and the panic
    /// resumes on the leader's thread.
    pub fn get_or_plan_with<F>(&self, nest: &LoopNest, plan: F) -> Result<Arc<PlanTemplate>>
    where
        F: FnOnce() -> Result<Arc<PlanTemplate>>,
    {
        let hash = nest.structural_hash();
        let shard = self.shard_for(hash);

        // Fast path: shared-shape traffic takes one short lock.
        if let Some(t) = probe(shard, hash, nest) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(t);
        }

        // Slow path: join or create a flight. Re-probe the cache under
        // the flight-table lock — a leader may have inserted and
        // cleared its flight between our probe and this lock, and
        // missing that window would replan a cached shape.
        let flight = {
            let mut inflight = lock_recovering(&shard.inflight);
            if let Some(t) = probe(shard, hash, nest) {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(t);
            }
            let flights = inflight.entry(hash).or_default();
            if let Some(f) = flights.iter().find(|f| &f.nest == nest) {
                // Follower: drop the table lock, then wait.
                let f = f.clone();
                drop(inflight);
                shard.waited.fetch_add(1, Ordering::Relaxed);
                return f.wait();
            }
            let f = Arc::new(Flight::new(nest.clone()));
            flights.push(f.clone());
            f
        };

        // Leader: plan with no locks held, under the completion guard —
        // if `plan` unwinds, the guard's Drop fails the flight and
        // clears the entry so followers wake and retries can lead.
        let guard = FlightGuard {
            shard,
            hash,
            flight: &flight,
            completed: false,
        };
        let result = plan();
        guard.complete(nest, result.clone());
        result
    }

    /// Look up a cached template by structural hash alone — the wire
    /// protocol's "I planned this shape earlier" path. Returns `None`
    /// when no template with that hash is cached (it may have been
    /// evicted, or never planned here); callers translate that into a
    /// resubmit-the-source error. Counts a hit when found; an unknown
    /// hash is not counted as a request (see [`CacheStats`]).
    pub fn get_by_hash(&self, hash: u64) -> Option<Arc<PlanTemplate>> {
        let shard = self.shard_for(hash);
        // A bucket keeps insertion order, so the first template inserted
        // with this hash answers.
        let found = lock_recovering(&shard.cache)
            .get(hash, |_| true)
            .map(|(_, t)| t.clone());
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Templates currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_recovering(&s.cache).len())
            .sum()
    }

    /// Is every shard empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.shard_stats() {
            total.add(&s);
        }
        total
    }

    /// Per-shard counter snapshots, in shard order (the service's
    /// metrics endpoint reports these individually).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| {
                let cache = lock_recovering(&s.cache);
                CacheStats {
                    hits: s.hits.load(Ordering::Relaxed),
                    planned: s.planned.load(Ordering::Relaxed),
                    waited: s.waited.load(Ordering::Relaxed),
                    evictions: cache.evictions(),
                    entries: cache.len() as u64,
                }
            })
            .collect()
    }
}

/// The leader's completion guard: planning runs between its creation
/// and [`FlightGuard::complete`]. If the planning closure unwinds, the
/// `Drop` impl runs *during* that unwind and performs the same protocol
/// as completion — clear the in-flight entry, count the run, wake the
/// followers — but with [`FlightState::Failed`] so followers receive a
/// typed, retryable error rather than waiting on a condvar the dead
/// leader will never signal.
struct FlightGuard<'a> {
    shard: &'a Shard,
    hash: u64,
    flight: &'a Arc<Flight>,
    completed: bool,
}

impl FlightGuard<'_> {
    /// Normal completion: publish `result` (caching it when `Ok`).
    fn complete(mut self, nest: &LoopNest, result: Result<Arc<PlanTemplate>>) {
        if let Ok(template) = &result {
            lock_recovering(&self.shard.cache).insert(
                self.hash,
                (nest.clone(), template.clone()),
                |a, b| a.0 == b.0,
            );
        }
        // Clear the flight *after* the insert: a request that finds
        // neither a cached entry nor a flight must be safe to lead.
        clear_flight(self.shard, self.hash, self.flight);
        self.shard.planned.fetch_add(1, Ordering::Relaxed);
        self.flight.fill(FlightState::Ready(result));
        self.completed = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // Leader panicked mid-plan. The attempt still counts as a
        // planning run (CacheStats bucket accounting), the entry is
        // cleared so a retry can lead, and followers wake with Failed.
        clear_flight(self.shard, self.hash, self.flight);
        self.shard.planned.fetch_add(1, Ordering::Relaxed);
        self.flight.fill(FlightState::Failed);
    }
}

fn clear_flight(shard: &Shard, hash: u64, flight: &Arc<Flight>) {
    let mut inflight = lock_recovering(&shard.inflight);
    if let Some(flights) = inflight.get_mut(&hash) {
        flights.retain(|f| !Arc::ptr_eq(f, flight));
        if flights.is_empty() {
            inflight.remove(&hash);
        }
    }
}

/// The cached template for `nest` (hash `hash`) in `shard`, if any.
fn probe(shard: &Shard, hash: u64, nest: &LoopNest) -> Option<Arc<PlanTemplate>> {
    lock_recovering(&shard.cache)
        .get(hash, |(n, _)| n == nest)
        .map(|(_, t)| t.clone())
}

/// Default per-shard point-entry capacity. Override per cache with
/// [`VerdictCache::with_capacity`].
pub const DEFAULT_VERDICT_CAPACITY: usize = 256;

/// Interval entries retained per shape; beyond this the oldest
/// interval is dropped (counted as an eviction). Certified intervals
/// are few per shape in practice — this is a churn backstop.
const MAX_INTERVALS_PER_SHAPE: usize = 32;

/// Which tier answered a [`VerdictCache::get_with_source`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictSource {
    /// A certified valuation interval contained the probe — no audit
    /// for this valuation ever ran.
    Interval,
    /// An exact `(shape, valuation)` point entry.
    Point,
}

/// Counter and occupancy snapshot of a [`VerdictCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VerdictCacheStats {
    /// Point-entry hits.
    pub hits: u64,
    /// Probes answered by a certified interval.
    pub interval_hits: u64,
    /// Probes answered by neither tier.
    pub misses: u64,
    /// Point entries evicted by the LRU bound plus interval entries
    /// dropped by the per-shape cap.
    pub evictions: u64,
    /// Point entries currently cached.
    pub entries: u64,
    /// Interval entries currently cached.
    pub intervals: u64,
}

/// One certified valuation box: every valuation `v` with
/// `lo[j] <= v[j] <= hi[j]` for all `j` provably audits to `verdict`.
struct IntervalEntry {
    lo: Vec<i64>,
    hi: Vec<i64>,
    verdict: Arc<PreparedVerdict>,
}

impl IntervalEntry {
    fn contains(&self, valuation: &[i64]) -> bool {
        self.lo.len() == valuation.len()
            && valuation
                .iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&v, (&lo, &hi))| lo <= v && v <= hi)
    }
}

/// A point shard's verdicts: `(shape hash, valuation, verdict)`, keyed
/// by the FNV mix of the two that also picks the shard
/// ([`VerdictCache::point_key`]). A hit compares against a borrowed
/// `&[i64]`, so it allocates nothing.
type PointLru = Lru<(u64, Vec<i64>, Arc<PreparedVerdict>)>;

/// RwLock with poison recovery, mirroring [`lock_recovering`]: the
/// interval tier is read-mostly and its state is consistent between
/// method calls.
fn read_recovering<T>(l: &std::sync::RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_recovering<T>(l: &std::sync::RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Sharded store of inspector verdicts: the template cache amortizes
/// *planning* per shape, this cache amortizes *auditing*. Two tiers:
///
/// * **Intervals** — certified valuation boxes
///   (`PlanTemplate::stability_box` in `pdm-core`), sharded by shape
///   hash under read-mostly `RwLock`s and probed *first*: any
///   in-interval valuation is answered without ever having been
///   audited.
/// * **Points** — exact `(shape, valuation)` entries, LRU-bounded per
///   shard. The shard index mixes the **valuation** into the hash, so
///   valuation churn on one hot shape spreads across shards instead
///   of serializing on a single mutex.
///
/// Audits are cheap relative to planning (one logging pass over the
/// iteration space, no Fourier–Motzkin), so there is no single-flight
/// layer here: concurrent first requests for one valuation may audit
/// twice and insert the same (deterministic) verdict — harmless, and
/// much simpler than the flight protocol above.
pub struct VerdictCache {
    points: Vec<Mutex<PointLru>>,
    intervals: Vec<std::sync::RwLock<HashMap<u64, Vec<IntervalEntry>>>>,
    hits: AtomicU64,
    interval_hits: AtomicU64,
    misses: AtomicU64,
    /// Interval entries dropped by the per-shape cap (point evictions
    /// are counted by each shard's [`Lru`]).
    dropped_intervals: AtomicU64,
}

impl VerdictCache {
    /// A cache of `shards` independent shards (≥ 1) with the default
    /// per-shard point capacity.
    pub fn new(shards: usize) -> VerdictCache {
        VerdictCache::with_capacity(shards, DEFAULT_VERDICT_CAPACITY)
    }

    /// A cache of `shards` shards, each holding at most
    /// `capacity_per_shard` point entries (≥ 1; least-recently-used
    /// entries are evicted beyond that).
    pub fn with_capacity(shards: usize, capacity_per_shard: usize) -> VerdictCache {
        let shards = shards.max(1);
        VerdictCache {
            points: (0..shards)
                .map(|_| Mutex::new(Lru::new(capacity_per_shard)))
                .collect(),
            intervals: (0..shards)
                .map(|_| std::sync::RwLock::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            interval_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dropped_intervals: AtomicU64::new(0),
        }
    }

    /// Point-entry capacity per shard.
    pub fn capacity_per_shard(&self) -> usize {
        lock_recovering(&self.points[0]).capacity()
    }

    /// FNV-1a over the shape hash and the valuation: the point entry's
    /// key, and the pick of its shard, so distinct sizes of one hot
    /// shape land on distinct shard mutexes.
    fn point_key(hash: u64, valuation: &[i64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ hash;
        h = h.wrapping_mul(0x0100_0000_01b3);
        for &v in valuation {
            h ^= v as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    fn point_shard(&self, key: u64) -> &Mutex<PointLru> {
        &self.points[(key % self.points.len() as u64) as usize]
    }

    fn interval_shard_for(
        &self,
        hash: u64,
    ) -> &std::sync::RwLock<HashMap<u64, Vec<IntervalEntry>>> {
        &self.intervals[(hash % self.intervals.len() as u64) as usize]
    }

    /// The cached verdict for a `(shape, valuation)` pair and which tier
    /// answered, counting a point hit, an interval hit, or a miss.
    /// Intervals are probed first: a certified box answers every
    /// valuation inside it, audited or not.
    pub fn get_with_source(
        &self,
        hash: u64,
        valuation: &[i64],
    ) -> Option<(Verdict, VerdictSource)> {
        self.lookup(hash, valuation)
            .map(|(v, source)| (v.verdict().clone(), source))
    }

    /// [`VerdictCache::get_with_source`] without copying the verdict:
    /// the shared entry itself, whose refined stage layout every hit
    /// reuses ([`PreparedVerdict::execute`]).
    pub fn lookup(
        &self,
        hash: u64,
        valuation: &[i64],
    ) -> Option<(Arc<PreparedVerdict>, VerdictSource)> {
        {
            let shard = read_recovering(self.interval_shard_for(hash));
            if let Some(entries) = shard.get(&hash) {
                if let Some(e) = entries.iter().find(|e| e.contains(valuation)) {
                    self.interval_hits.fetch_add(1, Ordering::Relaxed);
                    return Some((e.verdict.clone(), VerdictSource::Interval));
                }
            }
        }
        let key = VerdictCache::point_key(hash, valuation);
        let mut shard = lock_recovering(self.point_shard(key));
        if let Some((_, _, v)) = shard.get(key, |(h, v, _)| *h == hash && v == valuation) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some((v.clone(), VerdictSource::Point));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Record the verdict for a `(shape, valuation)` point and return
    /// the shared entry now cached, which every later hit reuses. At
    /// capacity the shard's least-recently-used entry is evicted first
    /// (and counted); re-inserting a cached point replaces its verdict
    /// and evicts nothing.
    pub fn insert(&self, hash: u64, valuation: Vec<i64>, verdict: Verdict) -> Arc<PreparedVerdict> {
        let key = VerdictCache::point_key(hash, &valuation);
        let entry = (hash, valuation, Arc::new(PreparedVerdict::new(verdict)));
        lock_recovering(self.point_shard(key))
            .insert(key, entry, |a, b| a.0 == b.0 && a.1 == b.1)
            .2
            .clone()
    }

    /// Record a certified valuation interval for a shape: every
    /// valuation inside `bounds` (closed per-parameter ranges, indexed
    /// like the valuation) is answered with `verdict` without an
    /// audit. Returns the shared entry cached for the box. Duplicate
    /// boxes (e.g. from two concurrent first requests) are
    /// deduplicated: the entry already cached is returned. Beyond
    /// `MAX_INTERVALS_PER_SHAPE` (32) the oldest interval is dropped and
    /// counted as an eviction.
    pub fn insert_interval(
        &self,
        hash: u64,
        bounds: &[(i64, i64)],
        verdict: Verdict,
    ) -> Arc<PreparedVerdict> {
        let (lo, hi): (Vec<i64>, Vec<i64>) = bounds.iter().copied().unzip();
        let mut shard = write_recovering(self.interval_shard_for(hash));
        let entries = shard.entry(hash).or_default();
        if let Some(e) = entries.iter().find(|e| e.lo == lo && e.hi == hi) {
            return e.verdict.clone();
        }
        let verdict = Arc::new(PreparedVerdict::new(verdict));
        entries.push(IntervalEntry {
            lo,
            hi,
            verdict: verdict.clone(),
        });
        if entries.len() > MAX_INTERVALS_PER_SHAPE {
            entries.remove(0);
            self.dropped_intervals.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Point verdicts currently cached (intervals are counted
    /// separately — see [`VerdictCache::stats`]).
    pub fn len(&self) -> usize {
        self.points.iter().map(|s| lock_recovering(s).len()).sum()
    }

    /// Is the cache empty of point entries?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Full counter and occupancy snapshot.
    pub fn stats(&self) -> VerdictCacheStats {
        let point_evictions: u64 = self
            .points
            .iter()
            .map(|s| lock_recovering(s).evictions())
            .sum();
        VerdictCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            interval_hits: self.interval_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: point_evictions + self.dropped_intervals.load(Ordering::Relaxed),
            entries: self.len() as u64,
            intervals: self
                .intervals
                .iter()
                .map(|s| read_recovering(s).values().map(Vec::len).sum::<usize>())
                .sum::<usize>() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_loopir::parse::parse_loop_symbolic;
    use std::sync::Barrier;

    /// The cached verdict alone, as the runtime's own probes read it.
    fn verdict(vc: &VerdictCache, hash: u64, valuation: &[i64]) -> Option<Verdict> {
        vc.get_with_source(hash, valuation).map(|(v, _)| v)
    }

    /// M distinct plannable shapes: constant dependence distance `c`
    /// varies, so each renders to a different structural hash.
    fn shapes(m: usize) -> Vec<LoopNest> {
        (0..m)
            .map(|c| {
                parse_loop_symbolic(
                    &format!("for i = 1..=N {{ A[i + {c}] = A[i] + 1; }}"),
                    &["N"],
                )
                .expect("shape parses")
            })
            .collect()
    }

    #[test]
    fn one_plan_per_shape_across_threads() {
        let m = 6;
        let threads = 8;
        let reps = 3;
        let cache = ShardedPlanCache::new(4, 16);
        let shapes = shapes(m);
        let barrier = Barrier::new(threads);
        std::thread::scope(|sc| {
            for t in 0..threads {
                let (cache, shapes, barrier) = (&cache, &shapes, &barrier);
                sc.spawn(move || {
                    barrier.wait();
                    for r in 0..reps {
                        // Rotate start offset so threads collide on
                        // different shapes at different times.
                        for k in 0..m {
                            let nest = &shapes[(t + r + k) % m];
                            let template = cache.get_or_plan(nest).unwrap();
                            assert_eq!(template.nest(), nest);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(
            s.planned, m as u64,
            "single-flight must plan each shape exactly once: {s:?}"
        );
        assert_eq!(
            s.requests(),
            (threads * reps * m) as u64,
            "hits + planned + waited must cover every request: {s:?}"
        );
        assert_eq!(s.entries, m as u64);
        assert_eq!(s.evictions, 0);
        assert_eq!(cache.len(), m);
    }

    #[test]
    fn followers_share_the_leaders_arc() {
        let threads = 8;
        let cache = ShardedPlanCache::new(2, 8);
        let shape = &shapes(1)[0];
        let barrier = Barrier::new(threads);
        let got: Vec<Arc<PlanTemplate>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (cache, barrier) = (&cache, &barrier);
                    sc.spawn(move || {
                        barrier.wait();
                        cache.get_or_plan(shape).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &got[1..] {
            assert!(
                Arc::ptr_eq(&got[0], t),
                "every requester must receive the same template"
            );
        }
        let s = cache.stats();
        assert_eq!(s.planned, 1, "{s:?}");
        assert_eq!(s.requests(), threads as u64, "{s:?}");
        // Whoever arrived during the flight waited; the rest hit.
        assert_eq!(s.hits + s.waited, threads as u64 - 1, "{s:?}");
    }

    #[test]
    fn evictions_are_counted_and_replans_happen() {
        // One shard of capacity 1: alternating shapes always evict.
        let cache = ShardedPlanCache::new(1, 1);
        let shapes = shapes(2);
        for _ in 0..3 {
            cache.get_or_plan(&shapes[0]).unwrap();
            cache.get_or_plan(&shapes[1]).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.planned, 6, "capacity-1 thrash replans every time");
        assert_eq!(s.evictions, 5, "every insert after the first evicts");
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn leader_panic_frees_followers_and_allows_retry() {
        let followers = 6;
        let cache = ShardedPlanCache::new(2, 8);
        let shape = &shapes(1)[0];
        let in_plan = Barrier::new(followers + 1);

        std::thread::scope(|sc| {
            // Leader: enters planning, waits until every follower has
            // had time to join the flight, then panics mid-plan.
            let leader = sc.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_plan_with(shape, || {
                        in_plan.wait();
                        // Give followers a moment to actually park on
                        // the flight condvar before dying.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("injected leader fault");
                    })
                }));
                assert!(result.is_err(), "the leader must observe its own panic");
            });
            let handles: Vec<_> = (0..followers)
                .map(|_| {
                    sc.spawn(|| {
                        in_plan.wait(); // leader is inside `plan` now
                        cache.get_or_plan(shape)
                    })
                })
                .collect();
            leader.join().unwrap();
            let mut failed = 0;
            let mut planned_ok = 0;
            for h in handles {
                match h.join().unwrap() {
                    // Followers parked on the flight get the typed error...
                    Err(RuntimeError::PlanningFailed(_)) => failed += 1,
                    // ...unless they arrived after the guard cleared the
                    // entry, in which case they led a fresh (successful)
                    // planning run or hit its cached result.
                    Ok(t) => {
                        assert_eq!(t.nest(), shape);
                        planned_ok += 1;
                    }
                    Err(e) => panic!("unexpected follower error: {e}"),
                }
            }
            assert_eq!(failed + planned_ok, followers);
        });

        // No deadlock above; the shape is retryable and the flight
        // table is clean (a fresh request leads or hits, not waits).
        let t = cache.get_or_plan(shape).unwrap();
        assert_eq!(t.nest(), shape);
        let s = cache.stats();
        assert_eq!(
            s.requests(),
            s.hits + s.planned + s.waited,
            "CacheStats bucket invariant: {s:?}"
        );
        assert!(
            s.planned >= 2,
            "the panicked run and the successful retry both count: {s:?}"
        );
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn panicking_leader_storm_keeps_stats_invariant() {
        // Satellite regression for the CacheStats bucket accounting on
        // the planning_failed path: several rounds of concurrent
        // requests where EVERY planning run panics. Each call — leader
        // (counted by the guard's Drop), follower (counted before
        // parking), or late re-leader — must land in exactly one
        // bucket, and the cache must come out clean and retryable.
        let rounds = 4;
        let threads = 6;
        let cache = ShardedPlanCache::new(2, 8);
        let shape = &shapes(1)[0];
        for _ in 0..rounds {
            let barrier = Barrier::new(threads);
            std::thread::scope(|sc| {
                for _ in 0..threads {
                    let (cache, barrier) = (&cache, &barrier);
                    sc.spawn(move || {
                        barrier.wait();
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            cache.get_or_plan_with(shape, || panic!("storm fault"))
                        }));
                        // Either this call led (and panicked) or it
                        // followed a doomed flight (typed error).
                        if let Ok(outcome) = result {
                            assert!(
                                matches!(outcome, Err(RuntimeError::PlanningFailed(_))),
                                "follower must see the typed error"
                            );
                        }
                    });
                }
            });
        }
        let s = cache.stats();
        assert_eq!(
            s.requests(),
            (rounds * threads) as u64,
            "every stormed request lands in exactly one bucket: {s:?}"
        );
        assert_eq!(s.hits, 0, "nothing was ever cached during the storm");
        assert_eq!(s.entries, 0);

        // Recovery: a clean request leads a fresh flight and caches.
        let t = cache.get_or_plan(shape).unwrap();
        assert_eq!(t.nest(), shape);
        let s = cache.stats();
        assert_eq!(
            s.requests(),
            (rounds * threads) as u64 + 1,
            "post-recovery accounting still balances: {s:?}"
        );
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn verdict_cache_round_trips_and_counts() {
        use crate::inspector::Verdict;
        let vc = VerdictCache::new(4);
        assert!(vc.is_empty());
        assert_eq!(verdict(&vc, 7, &[1, 2]), None);
        vc.insert(7, vec![1, 2], Verdict::Certified);
        assert_eq!(verdict(&vc, 7, &[1, 2]), Some(Verdict::Certified));
        // Distinct valuations of one shape are distinct entries.
        assert_eq!(verdict(&vc, 7, &[1, 3]), None);
        vc.insert(
            7,
            vec![1, 3],
            Verdict::Rejected {
                reason: "test".into(),
            },
        );
        assert_eq!(verdict(&vc, 7, &[1, 3]).map(|v| v.kind()), Some("rejected"));
        assert_eq!(vc.len(), 2);
        let s = vc.stats();
        assert_eq!((s.hits, s.interval_hits, s.misses), (2, 0, 2));
    }

    #[test]
    fn verdict_cache_bounds_points_with_lru_eviction() {
        use crate::inspector::Verdict;
        // One shard so every valuation shares a capacity pool.
        let vc = VerdictCache::with_capacity(1, 2);
        assert_eq!(vc.capacity_per_shard(), 2);
        vc.insert(7, vec![1], Verdict::Certified);
        vc.insert(7, vec![2], Verdict::Certified);
        // Touch [1] so [2] becomes least-recently-used, then overflow.
        assert!(verdict(&vc, 7, &[1]).is_some());
        vc.insert(7, vec![3], Verdict::Certified);
        assert_eq!(vc.len(), 2, "capacity bound holds");
        assert!(verdict(&vc, 7, &[1]).is_some(), "recently used survives");
        assert!(verdict(&vc, 7, &[3]).is_some(), "new entry present");
        assert!(verdict(&vc, 7, &[2]).is_none(), "LRU victim evicted");
        let s = vc.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // Re-inserting an existing key is an update, not an eviction.
        vc.insert(7, vec![3], Verdict::Certified);
        assert_eq!(vc.stats().evictions, 1);
        assert_eq!(vc.len(), 2);
    }

    #[test]
    fn verdict_cache_intervals_answer_ahead_of_points() {
        use crate::inspector::Verdict;
        let vc = VerdictCache::new(4);
        vc.insert_interval(9, &[(20, i64::MAX)], Verdict::Certified);
        // In-interval valuations hit without any point entry.
        assert_eq!(verdict(&vc, 9, &[20]), Some(Verdict::Certified));
        assert_eq!(
            vc.get_with_source(9, &[1_000_000]),
            Some((Verdict::Certified, VerdictSource::Interval))
        );
        // Outside the box falls through to the point tier.
        assert_eq!(verdict(&vc, 9, &[19]), None);
        vc.insert(9, vec![19], Verdict::Rejected { reason: "t".into() });
        assert_eq!(
            vc.get_with_source(9, &[19]).map(|(v, s)| (v.kind(), s)),
            Some(("rejected", VerdictSource::Point))
        );
        // A duplicate box is deduplicated, a distinct one is kept.
        vc.insert_interval(9, &[(20, i64::MAX)], Verdict::Certified);
        vc.insert_interval(9, &[(i64::MIN, -20)], Verdict::Certified);
        let s = vc.stats();
        assert_eq!(s.intervals, 2);
        assert_eq!(s.interval_hits, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn inserts_return_the_cached_entry() {
        use crate::inspector::Verdict;
        let vc = VerdictCache::new(2);
        let point = vc.insert(5, vec![3], Verdict::Certified);
        let (hit, _) = vc.lookup(5, &[3]).expect("point cached");
        assert!(Arc::ptr_eq(&point, &hit));
        let interval = vc.insert_interval(5, &[(10, 20)], Verdict::Certified);
        let (hit, source) = vc.lookup(5, &[15]).expect("interval cached");
        assert_eq!(source, VerdictSource::Interval);
        assert!(Arc::ptr_eq(&interval, &hit));
        // A box already cached answers with the entry it holds.
        let again = vc.insert_interval(5, &[(10, 20)], Verdict::Certified);
        assert!(Arc::ptr_eq(&interval, &again));
    }

    #[test]
    fn bounded_verdict_cache_storm_keeps_stats_invariant() {
        use crate::inspector::Verdict;
        use std::sync::atomic::AtomicU64;
        // Tiny capacity so the storm constantly evicts, plus auditors
        // that panic or error between a missed probe and its insert:
        // every probe must still land in exactly one counter bucket,
        // the bound must hold, and the cache must stay usable.
        let vc = std::sync::Arc::new(VerdictCache::with_capacity(2, 4));
        vc.insert_interval(1, &[(1_000, i64::MAX)], Verdict::Certified);
        let threads = 8usize;
        let rounds = 60usize;
        let probes = AtomicU64::new(0);
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let vc = std::sync::Arc::clone(&vc);
                let probes = &probes;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for r in 0..rounds {
                        let k = ((t * rounds + r) % 40) as i64;
                        // Mix shapes: shape 1 carries the interval, so
                        // large valuations are interval hits.
                        let hash = if r % 3 == 0 { 1 } else { 2 };
                        let val = if r % 5 == 0 { k + 1_000 } else { k };
                        probes.fetch_add(1, Ordering::Relaxed);
                        if let Some(v) = verdict(&vc, hash, &[val]) {
                            assert_eq!(v, Verdict::Certified);
                            continue;
                        }
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            match r % 4 {
                                0 => panic!("injected auditor panic"),
                                // An audit error caches nothing.
                                1 => {}
                                _ => {
                                    vc.insert(hash, vec![val], Verdict::Certified);
                                }
                            }
                        }));
                    }
                });
            }
        });
        let s = vc.stats();
        let probes = probes.load(Ordering::Relaxed);
        assert_eq!(
            s.hits + s.interval_hits + s.misses,
            probes,
            "every probe lands in exactly one bucket: {s:?}"
        );
        assert!(s.interval_hits > 0, "storm exercised the interval tier");
        assert!(s.entries <= (2 * 4) as u64, "LRU bound violated: {s:?}");
        assert_eq!(s.entries as usize, vc.len());
        // Eviction accounting balances: successful audits that
        // inserted minus evictions equals what is still resident.
        assert!(s.evictions > 0, "tiny capacity must have evicted: {s:?}");
        // The cache is not wedged: a clean probe still round-trips.
        vc.insert(3, vec![0], Verdict::Certified);
        assert_eq!(verdict(&vc, 3, &[0]), Some(Verdict::Certified));
    }

    #[test]
    fn planning_error_is_typed_and_not_cached() {
        let cache = ShardedPlanCache::new(1, 4);
        let shape = &shapes(1)[0];
        let err = cache
            .get_or_plan_with(shape, || {
                Err(RuntimeError::PlanningFailed("synthetic".into()))
            })
            .unwrap_err();
        assert!(matches!(err, RuntimeError::PlanningFailed(_)));
        assert_eq!(cache.len(), 0, "errors are not cached");
        // The same shape plans fine afterwards.
        assert!(cache.get_or_plan(shape).is_ok());
        let s = cache.stats();
        assert_eq!(s.planned, 2);
    }

    #[test]
    fn shard_stats_sum_to_totals() {
        let cache = ShardedPlanCache::new(4, 8);
        let shapes = shapes(5);
        for nest in &shapes {
            cache.get_or_plan(nest).unwrap();
            cache.get_or_plan(nest).unwrap();
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        let mut sum = CacheStats::default();
        for s in &per_shard {
            sum.add(s);
        }
        assert_eq!(sum, cache.stats());
        assert_eq!(sum.planned, 5);
        assert_eq!(sum.hits, 5);
    }
}
