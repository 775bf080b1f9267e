//! Streaming enumeration and range scheduling of independent groups.
//!
//! The parallel plans of this crate expose their work as *groups* — one
//! per (doall-prefix value × Theorem-2 partition offset). The historical
//! executors materialized the entire cross product as a `Vec` before the
//! first iteration ran, an `O(#groups × depth)` allocation spike that
//! dominates memory on deep doall nests (a depth-4 all-doall nest with
//! extent 18 has 104 976 groups). This module replaces that with a
//! **streaming enumerator**: schedulers hand workers contiguous *ranges*
//! of the group index space, and each worker walks its range with a
//! [`GroupCursor`] holding `O(depth)` state. Cursors, counts and splits
//! all read the plan's lowered [`CompiledBounds`], the bounds every
//! executor walks.
//!
//! # Cursor state
//!
//! A [`GroupCursor`] stores only the current doall prefix (one `i64` per
//! doall level), the cached `(lo, hi)` bounds of each prefix level, the
//! current offset index, and the linear position. [`GroupCursor::advance`]
//! is an odometer step: the offset index increments first and, on wrap,
//! the innermost prefix level that has room is bumped while deeper levels
//! re-enter at their (freshly evaluated) lower bounds — prefixes whose
//! inner ranges are empty are skipped exactly as the materialized
//! enumeration skipped them. The sequence of `(prefix, offset)` pairs is
//! **identical** — same order, same multiset — to the materialized cross
//! product of prefix values and offsets.
//!
//! # Seek semantics
//!
//! [`GroupCursor::seek`] positions the cursor at the `k`-th group of that
//! sequence. Linear index `k` decomposes as `k = prefix_ordinal ×
//! num_offsets + offset_index`. The prefix ordinal is resolved level by
//! level: when every level below is **prefix-independent** (its bound
//! rows read no outer variable), subtree sizes are equal and the level
//! value is a single division — `O(depth)` total for rectangular bounds.
//! Otherwise the cursor scans the level's values accumulating exact
//! subtree counts, recursing over the prefix-dependent levels:
//! `O(depth × extent)` with one dependent level, and in the worst case
//! (every level dependent) proportional to the dependent prefix subspace
//! itself. Range scheduling therefore positions cursors two ways
//! ([`plan_range_tasks`]): rectangular prefixes pay one `O(depth)` seek
//! per range, while prefix-dependent prefixes are split by **walking one
//! cursor and cloning its `O(depth)` state at each range boundary**
//! ([`GroupCursor::advance_to`]) — one `O(#groups)` walk total instead
//! of a counting seek per range. `seek(k)` agrees with `k` calls to
//! [`GroupCursor::advance`] from the start, and cursor-clone splitting
//! agrees with `seek`, both asserted by the property tests on random
//! nests.
//!
//! # Counting
//!
//! [`group_count`] / [`prefix_count`] size the schedule **before** any
//! enumeration: extents of the longest prefix-independent level suffix
//! multiply arithmetically, and only the (possibly empty) dependent head
//! is walked. On a rectangular nest the count is pure arithmetic.
//!
//! # Scheduling
//!
//! [`Schedule::ranges_for`] splits `0..group_count` into contiguous
//! sub-ranges, several per worker so the pool's helper threads always
//! have spare ranges to claim: `threads × chunks_per_thread` target
//! ranges (default [`DEFAULT_CHUNKS_PER_THREAD`] = 4). When the group
//! space is cost-skewed — some trailing (sequential) level's bounds read
//! a doall prefix variable, so per-group cost varies across the space
//! ([`cost_skewed`]) — the split targets `threads ×
//! SKEWED_CHUNKS_PER_THREAD` (16) finer ranges, so a worker stuck behind
//! fat groups leaves plenty for the others to claim. Rectangular nests
//! keep the coarse split. The split is picked from the input alone;
//! there is no tuning knob. A range task is just its bounds: each worker
//! walks every range it claims with one cursor and one scratch of its
//! own, positioned in place per range, so simultaneously-live group
//! state is `O(threads × depth)` instead of `O(#groups)`, and a range
//! allocates nothing before its first group.
//!
//! # Stages
//!
//! `run_stages` is the crate's one parallel driver: a list of stages,
//! each a list of independent tasks (a kernel's group range), run on the
//! vendored pool's work-first `par_iter` with a barrier between stages. Plain plans are one
//! stage; staged multi-kernel programs and refined inspector verdicts
//! are several. No executor materializes its group list, and worker
//! state (cursor and scratch) is built once per thread and carried from
//! stage to stage.

use crate::compile::CompiledBounds;
use crate::{Result, RuntimeError};
use pdm_matrix::MatrixError;
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

fn overflow() -> RuntimeError {
    RuntimeError::Matrix(MatrixError::Overflow)
}

/// Inclusive-range width as a `u64` (`0` when empty).
fn width(lo: i64, hi: i64) -> Result<u64> {
    if hi < lo {
        return Ok(0);
    }
    u64::try_from(hi as i128 - lo as i128 + 1).map_err(|_| overflow())
}

/// Streaming enumerator over a plan's independent groups.
///
/// Walks doall-prefix values in lexicographic order crossed with offset
/// indices `0..num_offsets` (offset-minor), holding `O(depth)` state —
/// never more than one group. See the [module docs](self) for the state,
/// ordering, and seek semantics.
#[derive(Debug)]
pub struct GroupCursor<'a> {
    bounds: &'a CompiledBounds,
    /// Number of leading (doall) levels enumerated.
    z: usize,
    num_offsets: usize,
    /// Full-width point; entries `>= z` stay zero.
    x: Vec<i64>,
    /// Cached per-level lower bounds along the current prefix.
    lo: Vec<i64>,
    /// Cached per-level upper bounds along the current prefix.
    hi: Vec<i64>,
    /// Current offset index (`< num_offsets`).
    offset: usize,
    /// Linear index of the current group.
    pos: u64,
    /// Smallest `j` such that levels `j..z` are all prefix-independent.
    indep_from: usize,
    exhausted: bool,
}

// Manual impl, for a `clone_from` that reuses the buffers. Cloning
// copies the `O(depth)` walk state and shares the borrow; cheap clones
// are what make cursor-clone range splitting ([`plan_range_tasks`]) an
// `O(#groups)` single pass.
impl Clone for GroupCursor<'_> {
    fn clone(&self) -> Self {
        GroupCursor {
            bounds: self.bounds,
            z: self.z,
            num_offsets: self.num_offsets,
            x: self.x.clone(),
            lo: self.lo.clone(),
            hi: self.hi.clone(),
            offset: self.offset,
            pos: self.pos,
            indep_from: self.indep_from,
            exhausted: self.exhausted,
        }
    }

    /// Copy `src`'s walk state into this cursor's buffers: no
    /// allocation once the buffers have the space's depth, which is how
    /// a worker's reused cursor takes a clone-positioned task's start.
    fn clone_from(&mut self, src: &Self) {
        self.bounds = src.bounds;
        self.z = src.z;
        self.num_offsets = src.num_offsets;
        self.x.clone_from(&src.x);
        self.lo.clone_from(&src.lo);
        self.hi.clone_from(&src.hi);
        self.offset = src.offset;
        self.pos = src.pos;
        self.indep_from = src.indep_from;
        self.exhausted = src.exhausted;
    }
}

impl<'a> GroupCursor<'a> {
    /// Open a cursor over the first `z` levels of `bounds` crossed with
    /// `num_offsets` partition offsets, positioned at group 0 (or already
    /// exhausted when the prefix space is empty). `num_offsets` must be
    /// at least 1 — unpartitioned plans pass a single empty offset.
    pub fn new(bounds: &'a CompiledBounds, z: usize, num_offsets: usize) -> Result<Self> {
        if num_offsets == 0 {
            return Err(RuntimeError::Core(
                "group cursor needs a non-empty offset table".into(),
            ));
        }
        let mut cur = GroupCursor::unpositioned(bounds, z, num_offsets);
        cur.exhausted = !cur.first_from(0)?;
        Ok(cur)
    }

    /// A cursor over the same space as [`GroupCursor::new`], positioned
    /// nowhere (exhausted) until a [`RangeTask`] positions it: the
    /// reusable per-worker cursor that every task a worker claims seeks
    /// (or copies its start into) in place. `num_offsets` must be at
    /// least 1.
    pub fn unpositioned(bounds: &'a CompiledBounds, z: usize, num_offsets: usize) -> Self {
        debug_assert!(
            num_offsets > 0,
            "group cursor needs a non-empty offset table"
        );
        let n = bounds.dim();
        debug_assert!(z <= n, "doall prefix exceeds nest depth");
        let mut indep_from = z;
        while indep_from > 0 && !bounds.prefix_dependent(indep_from - 1) {
            indep_from -= 1;
        }
        GroupCursor {
            bounds,
            z,
            num_offsets,
            x: vec![0; n],
            lo: vec![0; z],
            hi: vec![0; z],
            offset: 0,
            pos: 0,
            indep_from,
            exhausted: true,
        }
    }

    /// The current `(prefix, offset_index)` pair, or `None` once every
    /// group has been yielded.
    #[inline]
    pub fn current(&self) -> Option<(&[i64], usize)> {
        if self.exhausted {
            None
        } else {
            Some((&self.x[..self.z], self.offset))
        }
    }

    /// Linear index of the current group (meaningful while
    /// [`GroupCursor::current`] is `Some`).
    #[inline]
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Has the cursor run past the last group?
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Step to the next group. Returns `false` (and exhausts the cursor)
    /// when the current group was the last.
    pub fn advance(&mut self) -> Result<bool> {
        if self.exhausted {
            return Ok(false);
        }
        self.offset += 1;
        if self.offset >= self.num_offsets {
            self.offset = 0;
            if !self.next_prefix()? {
                self.exhausted = true;
                return Ok(false);
            }
        }
        self.pos += 1;
        Ok(true)
    }

    /// Fill levels `j..z` with their minimal feasible values, bumping
    /// outer levels (within their cached `hi`) whenever an inner range
    /// comes up empty. Returns `false` when no feasible prefix remains.
    fn first_from(&mut self, mut j: usize) -> Result<bool> {
        loop {
            if j == self.z {
                return Ok(true);
            }
            let (lo, hi) = self.bounds.range(j, &self.x)?;
            if lo <= hi {
                self.lo[j] = lo;
                self.hi[j] = hi;
                self.x[j] = lo;
                j += 1;
            } else {
                loop {
                    if j == 0 {
                        return Ok(false);
                    }
                    j -= 1;
                    if self.x[j] < self.hi[j] {
                        self.x[j] += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
    }

    /// Odometer-bump to the lexicographically next feasible prefix.
    fn next_prefix(&mut self) -> Result<bool> {
        let mut j = self.z;
        loop {
            if j == 0 {
                return Ok(false);
            }
            j -= 1;
            if self.x[j] < self.hi[j] {
                self.x[j] += 1;
                break;
            }
        }
        self.first_from(j + 1)
    }

    /// Are levels `j..z` all prefix-independent?
    #[inline]
    fn indep_below(&self, j: usize) -> bool {
        j >= self.indep_from
    }

    /// Product of the (constant) extents of the prefix-independent levels
    /// `j..z` — the completions below any value at level `j − 1`.
    fn tail_product(&self, j: usize) -> Result<u64> {
        debug_assert!(self.indep_below(j));
        let mut t: u64 = 1;
        for k in j..self.z {
            let (lo, hi) = self.bounds.range(k, &self.x)?;
            t = t.checked_mul(width(lo, hi)?).ok_or_else(overflow)?;
            if t == 0 {
                return Ok(0);
            }
        }
        Ok(t)
    }

    /// Exact number of prefix completions of levels `j..z` given the
    /// values currently in `x[..j]` (counting recursion over the
    /// prefix-dependent levels only).
    fn count_completions(&mut self, j: usize) -> Result<u64> {
        if self.indep_below(j) {
            return self.tail_product(j);
        }
        let (lo, hi) = self.bounds.range(j, &self.x)?;
        let mut total: u64 = 0;
        let mut v = lo;
        while v <= hi {
            self.x[j] = v;
            total = total
                .checked_add(self.count_completions(j + 1)?)
                .ok_or_else(overflow)?;
            if v == hi {
                break;
            }
            v += 1;
        }
        Ok(total)
    }

    /// Position the cursor at the group with linear index `target`.
    /// Returns `false` (and exhausts the cursor) when `target` is past
    /// the last group. `O(depth)` when all prefix levels are
    /// independent; with prefix-dependent levels it counts subtrees
    /// exactly — see the [module docs](self) for the cost model.
    pub fn seek(&mut self, target: u64) -> Result<bool> {
        self.exhausted = false;
        self.pos = target;
        self.offset = (target % self.num_offsets as u64) as usize;
        let mut p = target / self.num_offsets as u64;
        for j in 0..self.z {
            let (lo, hi) = self.bounds.range(j, &self.x)?;
            self.lo[j] = lo;
            self.hi[j] = hi;
            if lo > hi {
                self.exhausted = true;
                return Ok(false);
            }
            if self.indep_below(j + 1) {
                let sub = self.tail_product(j + 1)?;
                if sub == 0 {
                    self.exhausted = true;
                    return Ok(false);
                }
                let step = p / sub;
                if step >= width(lo, hi)? {
                    self.exhausted = true;
                    return Ok(false);
                }
                self.x[j] = lo + step as i64;
                p %= sub;
            } else {
                let mut v = lo;
                let mut found = false;
                while v <= hi {
                    self.x[j] = v;
                    let c = self.count_completions(j + 1)?;
                    // `count_completions` scribbles on deeper `x` slots;
                    // they are rewritten by the deeper loop iterations.
                    self.x[j] = v;
                    if p < c {
                        found = true;
                        break;
                    }
                    p -= c;
                    if v == hi {
                        break;
                    }
                    v += 1;
                }
                if !found {
                    self.exhausted = true;
                    return Ok(false);
                }
            }
        }
        if self.z == 0 && p > 0 {
            self.exhausted = true;
            return Ok(false);
        }
        Ok(true)
    }

    /// Advance (never rewind) until the cursor sits at linear index
    /// `target`, or return `false` once the space is exhausted first.
    /// Unlike [`GroupCursor::seek`] this never counts subtrees — each
    /// step is one odometer bump — so walking one cursor across
    /// ascending range boundaries and cloning its `O(depth)` state at
    /// each one costs `O(#groups)` in total, independent of how many
    /// prefix levels are dependent. Requires `target ≥ position()`.
    pub fn advance_to(&mut self, target: u64) -> Result<bool> {
        debug_assert!(
            self.exhausted || target >= self.pos,
            "advance_to cannot rewind (at {}, asked for {target})",
            self.pos
        );
        while !self.exhausted && self.pos < target {
            self.advance()?;
        }
        Ok(!self.exhausted)
    }
}

/// One schedulable unit of a group space: the contiguous linear range
/// `start..end`. A task owns no walk state; a worker runs every task it
/// claims with one reused cursor ([`GroupCursor::unpositioned`]), which
/// the task positions in place: not at all when the worker's previous
/// range ended where this one starts, else by one [`GroupCursor::seek`]
/// or, for ranges split over prefix-dependent levels
/// ([`plan_range_tasks`]), by copying the start the splitting walk
/// recorded.
#[derive(Debug)]
pub struct RangeTask<'a> {
    bounds: &'a CompiledBounds,
    start: u64,
    end: u64,
    /// The splitting walk's cursor at `start`, when a seek there would
    /// have to count prefix-dependent subtrees.
    at: Option<GroupCursor<'a>>,
}

impl<'a> RangeTask<'a> {
    /// A task over groups `start..end` of the space `bounds` spans,
    /// positioned by a seek when it runs (an `end` past the space just
    /// stops at its last group).
    pub(crate) fn new(bounds: &'a CompiledBounds, start: u64, end: u64) -> Self {
        RangeTask {
            bounds,
            start,
            end,
            at: None,
        }
    }

    /// First linear index of the range.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One-past-last linear index of the range.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Position `cursor` at the range's start and run `f(position,
    /// prefix, offset_index)` over every group in the range. `cursor`
    /// must walk the space the task was planned over; it is left past
    /// the range, ready for the worker's next task.
    pub fn for_each<F>(&self, cursor: &mut GroupCursor<'a>, mut f: F) -> Result<()>
    where
        F: FnMut(u64, &[i64], usize) -> Result<()>,
    {
        if !std::ptr::eq(cursor.bounds, self.bounds) {
            return Err(RuntimeError::Core(
                "cursor walks a different group space than the task".into(),
            ));
        }
        match &self.at {
            Some(at) => cursor.clone_from(at),
            // A worker claiming ranges in order finds its cursor where
            // the last range ended, already at this start.
            None if !cursor.is_exhausted() && cursor.position() == self.start => {}
            None => {
                cursor.seek(self.start)?;
            }
        }
        while cursor.position() < self.end {
            let pos = cursor.position();
            match cursor.current() {
                Some((prefix, o)) => f(pos, prefix, o)?,
                None => break,
            }
            if !cursor.advance()? {
                break;
            }
        }
        Ok(())
    }
}

/// Run `stages` in order with a barrier between consecutive stages:
/// the tasks of one stage run through `work` in one pool region, and
/// `barrier(stage_index, results)` receives that stage's results in
/// task order before the next stage starts (an `Err` from either stops
/// the run). The crate's single parallel driver — plain plans, staged
/// programs, refined verdicts, race-checked runs and the inspector's
/// audit all go through here. Regions are work-first: the calling
/// thread runs the stage's tasks itself and helper threads join only
/// once the stage outlives [`rayon::SPAWN_AFTER`], so a stage cheaper
/// than a thread spawn never starts one while a long stage still goes
/// wide. Empty stages open no pool region.
///
/// Every thread that claims a task works with one state built by
/// `init` (its cursor and scratch), reused for every task it claims. A
/// state outlives its region: when a thread leaves a stage its state is
/// kept, and the next stage's threads take kept states before building
/// new ones, so a run of many short stages on the caller builds one.
pub(crate) fn run_stages<T, S, R, I, W, F>(
    stages: &[Vec<T>],
    init: I,
    work: W,
    mut barrier: F,
) -> Result<()>
where
    T: Sync,
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, &T) -> Result<R> + Sync,
    F: FnMut(usize, Vec<R>) -> Result<()>,
{
    let kept = Mutex::new(Vec::new());
    for (si, stage) in stages.iter().enumerate() {
        let results = if stage.is_empty() {
            Vec::new()
        } else {
            stage
                .par_iter()
                .map_init(
                    || Kept::take(&kept, &init),
                    |state, task| work(state.get(), task),
                )
                .collect::<Result<Vec<R>>>()?
        };
        barrier(si, results)?;
    }
    Ok(())
}

/// A worker state borrowed from [`run_stages`]' keep, returned on drop
/// (when its thread leaves the region).
struct Kept<'k, S> {
    state: Option<S>,
    keep: &'k Mutex<Vec<S>>,
}

impl<'k, S> Kept<'k, S> {
    fn take(keep: &'k Mutex<Vec<S>>, init: impl Fn() -> S) -> Self {
        let kept = keep.lock().unwrap_or_else(PoisonError::into_inner).pop();
        Kept {
            state: Some(kept.unwrap_or_else(init)),
            keep,
        }
    }

    fn get(&mut self) -> &mut S {
        self.state.as_mut().expect("present until drop")
    }
}

impl<S> Drop for Kept<'_, S> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            self.keep
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(state);
        }
    }
}

/// Per-group cost varies across the group space exactly when some
/// trailing (sequential) level's bounds read a doall prefix variable:
/// the trailing iteration count — the work one group does — is then a
/// function of which prefix the group carries. Levels reading only
/// other trailing variables contribute the same trailing volume to
/// every group and do not skew. [`Schedule::ranges_for`] splits skewed
/// spaces finer so helper threads have ranges left to claim.
pub fn cost_skewed(bounds: &CompiledBounds, z: usize) -> bool {
    (z..bounds.dim()).any(|level| bounds.reads_prefix(level, z))
}

/// Split a group space into [`RangeTask`]s: range sizing by
/// [`Schedule::ranges_for`] (finer when [`cost_skewed`]), cursor
/// positioning by per-range `O(depth)` [`GroupCursor::seek`] when every
/// prefix level is independent, and by the cursor-clone walk
/// ([`GroupCursor::advance_to`] + clone at each boundary) when seeks
/// would have to count prefix-dependent subtrees.
pub fn plan_range_tasks<'a>(
    bounds: &'a CompiledBounds,
    z: usize,
    num_offsets: usize,
    sched: &Schedule,
    threads: usize,
) -> Result<Vec<RangeTask<'a>>> {
    let total = group_count(bounds, z, num_offsets)?;
    let ranges = sched.ranges_for(bounds, z, total, threads);
    let mut tasks = Vec::with_capacity(ranges.len());
    if ranges.is_empty() {
        return Ok(tasks);
    }
    if (0..z).any(|level| bounds.prefix_dependent(level)) {
        let mut walker = GroupCursor::new(bounds, z, num_offsets)?;
        for &(start, end) in &ranges {
            walker.advance_to(start)?;
            tasks.push(RangeTask {
                at: Some(walker.clone()),
                ..RangeTask::new(bounds, start, end)
            });
        }
    } else {
        tasks.extend(
            ranges
                .iter()
                .map(|&(start, end)| RangeTask::new(bounds, start, end)),
        );
    }
    Ok(tasks)
}

/// Number of doall-prefix value combinations over the first `z` levels of
/// `bounds`, without enumerating the prefix-independent suffix: constant
/// extents multiply arithmetically and only the dependent head levels are
/// walked. Pure arithmetic on rectangular nests.
pub fn prefix_count(bounds: &CompiledBounds, z: usize) -> Result<u64> {
    let mut j_star = z;
    while j_star > 0 && !bounds.prefix_dependent(j_star - 1) {
        j_star -= 1;
    }
    let x = vec![0i64; bounds.dim()];
    let mut tail: u64 = 1;
    for k in j_star..z {
        let (lo, hi) = bounds.range(k, &x)?;
        tail = tail.checked_mul(width(lo, hi)?).ok_or_else(overflow)?;
        if tail == 0 {
            return Ok(0);
        }
    }
    let head = if j_star == 0 {
        1
    } else {
        // Walk only the dependent head levels (offset dimension unused).
        let mut cur = GroupCursor::new(bounds, j_star, 1)?;
        let mut c: u64 = 0;
        while cur.current().is_some() {
            c = c.checked_add(1).ok_or_else(overflow)?;
            cur.advance()?;
        }
        c
    };
    head.checked_mul(tail).ok_or_else(overflow)
}

/// Total group count: [`prefix_count`] × `num_offsets`. This is the
/// length of the sequence a [`GroupCursor`] yields and the exclusive
/// upper bound of the index space [`Schedule::ranges_for`] splits.
pub fn group_count(bounds: &CompiledBounds, z: usize, num_offsets: usize) -> Result<u64> {
    prefix_count(bounds, z)?
        .checked_mul(num_offsets as u64)
        .ok_or_else(overflow)
}

/// Default [`Schedule::chunks_per_thread`]: 4 contiguous ranges per
/// worker, the factor the pre-streaming chunked scheduler used.
pub const DEFAULT_CHUNKS_PER_THREAD: usize = 4;

/// Ranges per worker on [`cost_skewed`] group spaces: fine enough that
/// a worker stuck behind the fat end of a triangular nest leaves most
/// of its share for other threads to claim.
pub const SKEWED_CHUNKS_PER_THREAD: usize = 16;

/// Range splitting for the streaming schedulers.
///
/// `chunks_per_thread` controls how many contiguous group ranges each
/// worker receives on *uniform-cost* (rectangular) group spaces;
/// [`SKEWED_CHUNKS_PER_THREAD`] applies instead when the space is
/// [`cost_skewed`], splitting finer so the pool's helper threads
/// always find a range to claim. Every executor runs
/// [`Schedule::default`] ([`DEFAULT_CHUNKS_PER_THREAD`]); tests sweep
/// other values through [`plan_range_tasks`] and
/// `CompiledPlan::run_parallel_scheduled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Target contiguous group ranges per worker thread (≥ 1) on
    /// uniform-cost group spaces.
    pub chunks_per_thread: usize,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            chunks_per_thread: DEFAULT_CHUNKS_PER_THREAD,
        }
    }
}

impl Schedule {
    /// Split `0..total` into contiguous `(start, end)` sub-ranges that
    /// cover the space exactly once, in order (`total == 0` yields no
    /// ranges). Uniform spaces target `threads × chunks_per_thread`
    /// chunks; on a [`cost_skewed`] group space the split targets
    /// `threads × SKEWED_CHUNKS_PER_THREAD` (never fewer than the coarse
    /// split) so helper threads have ranges left to claim.
    pub fn ranges_for(
        &self,
        bounds: &CompiledBounds,
        z: usize,
        total: u64,
        threads: usize,
    ) -> Vec<(u64, u64)> {
        let chunks = if cost_skewed(bounds, z) {
            SKEWED_CHUNKS_PER_THREAD.max(self.chunks_per_thread)
        } else {
            self.chunks_per_thread
        };
        Self::split(total, threads, chunks)
    }

    fn split(total: u64, threads: usize, chunks_per_thread: usize) -> Vec<(u64, u64)> {
        if total == 0 {
            return Vec::new();
        }
        let target = (threads.max(1) as u64).saturating_mul(chunks_per_thread.max(1) as u64);
        let chunk = total.div_ceil(target).max(1);
        let mut out = Vec::with_capacity(total.div_ceil(chunk) as usize);
        let mut start = 0u64;
        while start < total {
            let end = start.saturating_add(chunk).min(total);
            out.push((start, end));
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_poly::bounds::LoopBounds;
    use pdm_poly::expr::AffineExpr;
    use pdm_poly::system::System;

    /// The compiled per-level bounds of `s`.
    fn compiled(s: &System) -> CompiledBounds {
        CompiledBounds::compile(&LoopBounds::from_system(s).unwrap())
    }

    /// Bounds of a rectangular box `lo_k ≤ x_k ≤ hi_k`.
    fn box_bounds(ranges: &[(i64, i64)]) -> CompiledBounds {
        let n = ranges.len();
        let mut s = System::universe(n);
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            s.add_range(k, lo, hi).unwrap();
        }
        compiled(&s)
    }

    /// Bounds of the triangle `0 ≤ x_0 ≤ n`, `0 ≤ x_1 ≤ x_0`.
    fn triangle_bounds(n: i64) -> CompiledBounds {
        let mut s = System::universe(2);
        s.add_range(0, 0, n).unwrap();
        let mut c = vec![0i64; 2];
        c[1] = 1;
        s.add_ge0(AffineExpr::new(pdm_matrix::vec::IVec(c), 0))
            .unwrap();
        // x_0 - x_1 >= 0
        s.add_ge0(AffineExpr::new(pdm_matrix::vec::IVec(vec![1, -1]), 0))
            .unwrap();
        compiled(&s)
    }

    fn collect(bounds: &CompiledBounds, z: usize, noff: usize) -> Vec<(Vec<i64>, usize)> {
        let mut cur = GroupCursor::new(bounds, z, noff).unwrap();
        let mut out = Vec::new();
        while let Some((p, o)) = cur.current() {
            out.push((p.to_vec(), o));
            if !cur.advance().unwrap() {
                break;
            }
        }
        out
    }

    #[test]
    fn rectangular_cursor_order_and_count() {
        let b = box_bounds(&[(0, 2), (1, 3)]);
        let got = collect(&b, 2, 2);
        assert_eq!(got.len(), 3 * 3 * 2);
        // Offset-minor, prefix lexicographic.
        assert_eq!(got[0], (vec![0, 1], 0));
        assert_eq!(got[1], (vec![0, 1], 1));
        assert_eq!(got[2], (vec![0, 2], 0));
        assert_eq!(got.last().unwrap(), &(vec![2, 3], 1));
        assert_eq!(group_count(&b, 2, 2).unwrap(), 18);
        assert_eq!(prefix_count(&b, 2).unwrap(), 9);
    }

    #[test]
    fn triangular_cursor_skips_and_counts_exactly() {
        let b = triangle_bounds(4);
        let got = collect(&b, 2, 1);
        // (x0, x1) with 0 <= x1 <= x0 <= 4: 1+2+3+4+5 = 15 prefixes.
        assert_eq!(got.len(), 15);
        assert_eq!(prefix_count(&b, 2).unwrap(), 15);
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0, "not lexicographic: {w:?}");
        }
    }

    #[test]
    fn zero_prefix_levels_yield_one_prefix_per_offset() {
        let b = box_bounds(&[(0, 5)]);
        let got = collect(&b, 0, 3);
        assert_eq!(
            got,
            vec![(vec![], 0), (vec![], 1), (vec![], 2)],
            "z == 0 must yield exactly the offset table"
        );
        assert_eq!(group_count(&b, 0, 3).unwrap(), 3);
    }

    #[test]
    fn empty_space_exhausts_immediately() {
        let b = box_bounds(&[(5, 2), (0, 3)]);
        let mut cur = GroupCursor::new(&b, 2, 2).unwrap();
        assert!(cur.current().is_none());
        assert!(!cur.advance().unwrap());
        assert_eq!(group_count(&b, 2, 2).unwrap(), 0);
        assert!(!cur.seek(0).unwrap());
    }

    #[test]
    fn seek_matches_advance_on_rectangle_and_triangle() {
        for (b, z, noff) in [
            (box_bounds(&[(0, 3), (-2, 2)]), 2usize, 3usize),
            (triangle_bounds(5), 2, 2),
        ] {
            let all = collect(&b, z, noff);
            let total = group_count(&b, z, noff).unwrap();
            assert_eq!(all.len() as u64, total);
            for k in 0..total {
                let mut cur = GroupCursor::new(&b, z, noff).unwrap();
                assert!(cur.seek(k).unwrap(), "seek({k}) of {total}");
                let (p, o) = cur.current().unwrap();
                assert_eq!((p.to_vec(), o), all[k as usize], "seek({k})");
                assert_eq!(cur.position(), k);
                // And the cursor keeps advancing correctly from there.
                if cur.advance().unwrap() {
                    let (p, o) = cur.current().unwrap();
                    assert_eq!((p.to_vec(), o), all[k as usize + 1]);
                }
            }
            let mut cur = GroupCursor::new(&b, z, noff).unwrap();
            assert!(!cur.seek(total).unwrap(), "seek past the end");
        }
    }

    #[test]
    fn schedule_ranges_partition_exactly() {
        let s = Schedule::default();
        let b = box_bounds(&[(0, 9), (0, 9)]);
        for (total, threads) in [(0u64, 4usize), (1, 4), (7, 2), (1000, 3), (16, 16)] {
            let ranges = s.ranges_for(&b, 1, total, threads);
            let mut expect = 0u64;
            for &(a, b) in &ranges {
                assert_eq!(a, expect, "ranges must be contiguous");
                assert!(b > a, "ranges must be non-empty");
                expect = b;
            }
            assert_eq!(expect, total, "ranges must cover 0..total");
            if total > 0 {
                assert!(ranges.len() as u64 <= (threads * s.chunks_per_thread) as u64 + 1);
            }
        }
    }

    /// Bounds of `0 ≤ x_0 ≤ n` with trailing `0 ≤ x_1 ≤ x_0`: treated
    /// with `z = 1`, the sequential level's extent grows with the doall
    /// prefix — the canonical cost-skewed shape.
    fn skewed_tail_bounds(n: i64) -> CompiledBounds {
        triangle_bounds(n)
    }

    #[test]
    fn cost_skew_detection() {
        // Trailing level reads the doall prefix: skewed.
        let tri = skewed_tail_bounds(7);
        assert!(tri.reads_prefix(1, 1));
        assert!(cost_skewed(&tri, 1));
        // Fully-parallel triangle: every group is one iteration, so no
        // trailing level exists to skew, whatever the prefix shape.
        assert!(!cost_skewed(&tri, 2));
        // Rectangles are never skewed.
        let b = box_bounds(&[(0, 9), (0, 9)]);
        assert!(!cost_skewed(&b, 1));
        assert!(!cost_skewed(&b, 2));
        // A trailing level reading only another *trailing* variable
        // adds the same trailing volume to every group: not skewed,
        // even though the level is prefix_dependent.
        let mut s = System::universe(3);
        s.add_range(0, 0, 9).unwrap();
        s.add_range(1, 0, 5).unwrap();
        // 0 <= x_2 <= x_1 (x_1 is sequential when z = 1).
        s.add_ge0(AffineExpr::new(pdm_matrix::vec::IVec(vec![0, 0, 1]), 0))
            .unwrap();
        s.add_ge0(AffineExpr::new(pdm_matrix::vec::IVec(vec![0, 1, -1]), 0))
            .unwrap();
        let b = compiled(&s);
        assert!(b.prefix_dependent(2), "x_2 does read an outer variable");
        assert!(!b.reads_prefix(2, 1), "but not a doall-prefix one");
        assert!(!cost_skewed(&b, 1));
    }

    #[test]
    fn steal_aware_ranges_split_skewed_spaces_finer() {
        let sched = Schedule::default();
        let threads = 4;
        let total = 4096u64;
        // Skewed: the split targets SKEWED_CHUNKS_PER_THREAD per worker.
        let tri = skewed_tail_bounds(7);
        let fine = sched.ranges_for(&tri, 1, total, threads);
        assert_eq!(
            fine.len(),
            threads * SKEWED_CHUNKS_PER_THREAD,
            "skewed spaces must split finer"
        );
        // Rectangular: the coarse split is unchanged.
        let b = box_bounds(&[(0, 9), (0, 9)]);
        let coarse = sched.ranges_for(&b, 1, total, threads);
        assert_eq!(coarse.len(), threads * DEFAULT_CHUNKS_PER_THREAD);
        // Both splits still partition the space exactly.
        for ranges in [&fine, &coarse] {
            let mut expect = 0u64;
            for &(a, b) in ranges.iter() {
                assert_eq!(a, expect);
                assert!(b > a);
                expect = b;
            }
            assert_eq!(expect, total);
        }
    }

    #[test]
    fn advance_to_agrees_with_seek() {
        let tri = triangle_bounds(6);
        let total = group_count(&tri, 2, 2).unwrap();
        let mut walker = GroupCursor::new(&tri, 2, 2).unwrap();
        for k in 0..total {
            let mut seeker = GroupCursor::new(&tri, 2, 2).unwrap();
            assert!(seeker.seek(k).unwrap());
            assert!(walker.advance_to(k).unwrap());
            assert_eq!(walker.current(), seeker.current(), "position {k}");
            assert_eq!(walker.position(), seeker.position());
        }
        assert!(!walker.advance_to(total).unwrap(), "walking past the end");
    }

    #[test]
    fn planned_tasks_cover_the_space_exactly() {
        let sched = Schedule::default();
        for (bounds, z, noff) in [
            (box_bounds(&[(0, 5), (1, 4)]), 2usize, 3usize),
            (triangle_bounds(9), 2, 2),
            (skewed_tail_bounds(9), 1, 2),
            (box_bounds(&[(3, 1)]), 1, 1), // empty space
        ] {
            let total = group_count(&bounds, z, noff).unwrap();
            let tasks = plan_range_tasks(&bounds, z, noff, &sched, 3).unwrap();
            let mut seen = Vec::new();
            // One cursor for every task, as a worker runs them.
            let mut worker = GroupCursor::unpositioned(&bounds, z, noff);
            for t in &tasks {
                assert!(t.start() <= t.end());
                t.for_each(&mut worker, |pos, prefix, o| {
                    // Every group matches what a seek to that position
                    // observes (pins clone-split against seek).
                    let mut c = GroupCursor::new(&bounds, z, noff).unwrap();
                    assert!(c.seek(pos).unwrap());
                    let (p, oo) = c.current().unwrap();
                    assert_eq!((p, oo), (prefix, o), "position {pos}");
                    seen.push(pos);
                    Ok(())
                })
                .unwrap();
            }
            assert_eq!(
                seen,
                (0..total).collect::<Vec<_>>(),
                "tasks must cover 0..{total} exactly once, in order"
            );
        }
    }
}
