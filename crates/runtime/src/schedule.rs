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
//! [`GroupCursor`] holding `O(depth)` state.
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
//! [`Schedule::ranges`] splits `0..group_count` into contiguous
//! sub-ranges, several per worker so the work-stealing executor always
//! has spare chunks to steal: `threads × chunks_per_thread` target
//! chunks (default [`DEFAULT_CHUNKS_PER_THREAD`] = 4). Chunk sizing is
//! **steal-aware** ([`Schedule::ranges_for`]): when the group space is
//! cost-skewed — some trailing (sequential) level's bounds read a doall
//! prefix variable, so per-group cost varies across the space
//! ([`cost_skewed`]) — the split targets `threads ×
//! steal_chunks_per_thread` finer chunks (default
//! [`DEFAULT_STEAL_CHUNKS_PER_THREAD`] = 16) so workers stuck behind fat
//! groups leave plenty for idle threads to steal. Rectangular nests keep
//! the coarse split. Override with the `PDM_CHUNKS_PER_THREAD` and
//! `PDM_STEAL_CHUNKS_PER_THREAD` environment variables (any positive
//! integer; larger values smooth imbalanced group costs at the price of
//! more per-range cursor positioning). Each range is walked by one task
//! with one cursor and one reused scratch, so peak simultaneously-live
//! group state stays `O(threads × chunks_per_thread)` (or the steal
//! variant on skewed spaces) instead of `O(#groups)`.
//!
//! # Stages
//!
//! `run_stages` is the crate's one parallel driver: a list of stages,
//! each a list of independent tasks (a kernel's group range), run on the
//! work-stealing pool with a barrier between stages. Plain plans are one
//! stage; staged multi-kernel programs and refined inspector verdicts
//! are several. No executor materializes its group list — each task
//! walks its range with one cursor.

use crate::{Result, RuntimeError};
use pdm_matrix::MatrixError;
use pdm_poly::bounds::LoopBounds;
use rayon::prelude::*;

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

/// Per-level bounds a cursor can walk: evaluate a level's `(lo, hi)`
/// range at a point and report whether the range depends on outer levels.
///
/// Implemented by [`pdm_poly::bounds::LoopBounds`] (interpreter paths)
/// and [`crate::compile::CompiledBounds`] (compiled engine), so one
/// cursor serves both executors.
pub trait PrefixBounds {
    /// Number of loop levels.
    fn dim(&self) -> usize;

    /// Effective `(lo, hi)` of level `level` at point `x`. `x` must be
    /// padded to full dimension; only `x[..level]` is read through
    /// nonzero coefficients.
    fn level_range(&self, level: usize, x: &[i64]) -> Result<(i64, i64)>;

    /// Does level `level`'s range read any outer loop variable? `false`
    /// means the level's extent is one fixed interval, enabling the
    /// arithmetic counting and O(1)-per-level seek fast paths.
    fn prefix_dependent(&self, level: usize) -> bool;

    /// Does level `level`'s range read any of the first `z` (doall
    /// prefix) variables specifically? Distinct from
    /// [`PrefixBounds::prefix_dependent`]: a trailing sequential level
    /// whose bounds read only *other trailing* variables has the same
    /// extent under every prefix, so it does not skew per-group cost.
    /// The default conservatively falls back to `prefix_dependent`;
    /// implementations with access to bound coefficients answer
    /// precisely.
    fn reads_prefix(&self, level: usize, _z: usize) -> bool {
        self.prefix_dependent(level)
    }
}

impl PrefixBounds for LoopBounds {
    fn dim(&self) -> usize {
        LoopBounds::dim(self)
    }

    fn level_range(&self, level: usize, x: &[i64]) -> Result<(i64, i64)> {
        let lb = self.level(level);
        Ok((lb.lower(x)?, lb.upper(x)?))
    }

    fn prefix_dependent(&self, level: usize) -> bool {
        let lb = self.level(level);
        lb.lowers
            .iter()
            .chain(&lb.uppers)
            .any(|b| b.num.coeffs.iter().any(|&c| c != 0))
    }

    fn reads_prefix(&self, level: usize, z: usize) -> bool {
        let lb = self.level(level);
        lb.lowers
            .iter()
            .chain(&lb.uppers)
            .any(|b| b.num.coeffs.iter().take(z).any(|&c| c != 0))
    }
}

/// Streaming enumerator over a plan's independent groups.
///
/// Walks doall-prefix values in lexicographic order crossed with offset
/// indices `0..num_offsets` (offset-minor), holding `O(depth)` state —
/// never more than one group. See the [module docs](self) for the state,
/// ordering, and seek semantics.
#[derive(Debug)]
pub struct GroupCursor<'a, B: PrefixBounds> {
    bounds: &'a B,
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

// Manual impl: the derive would demand `B: Clone`, but the cursor only
// holds `&'a B` — cloning copies the `O(depth)` walk state and shares
// the borrow. Cheap clones are what make cursor-clone range splitting
// ([`plan_range_tasks`]) an `O(#groups)` single pass.
impl<'a, B: PrefixBounds> Clone for GroupCursor<'a, B> {
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
}

impl<'a, B: PrefixBounds> GroupCursor<'a, B> {
    /// Open a cursor over the first `z` levels of `bounds` crossed with
    /// `num_offsets` partition offsets, positioned at group 0 (or already
    /// exhausted when the prefix space is empty). `num_offsets` must be
    /// at least 1 — unpartitioned plans pass a single empty offset.
    pub fn new(bounds: &'a B, z: usize, num_offsets: usize) -> Result<Self> {
        if num_offsets == 0 {
            return Err(RuntimeError::Core(
                "group cursor needs a non-empty offset table".into(),
            ));
        }
        let n = bounds.dim();
        debug_assert!(z <= n, "doall prefix exceeds nest depth");
        let mut indep_from = z;
        while indep_from > 0 && !bounds.prefix_dependent(indep_from - 1) {
            indep_from -= 1;
        }
        let mut cur = GroupCursor {
            bounds,
            z,
            num_offsets,
            x: vec![0; n],
            lo: vec![0; z],
            hi: vec![0; z],
            offset: 0,
            pos: 0,
            indep_from,
            exhausted: false,
        };
        if !cur.first_from(0)? {
            cur.exhausted = true;
        }
        Ok(cur)
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
            let (lo, hi) = self.bounds.level_range(j, &self.x)?;
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
            let (lo, hi) = self.bounds.level_range(k, &self.x)?;
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
        let (lo, hi) = self.bounds.level_range(j, &self.x)?;
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
            let (lo, hi) = self.bounds.level_range(j, &self.x)?;
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

/// One schedulable unit of a group space: a contiguous linear range with
/// a [`GroupCursor`] already positioned at its start. Tasks are
/// [`Clone`] (an `O(depth)` copy), so a parallel region can execute a
/// task from a shared reference by cloning the embedded cursor.
#[derive(Debug)]
pub struct RangeTask<'a, B: PrefixBounds> {
    cursor: GroupCursor<'a, B>,
    end: u64,
}

// Manual impl for the same reason as [`GroupCursor`]'s: no `B: Clone`
// bound — the task shares the bounds borrow and copies cursor state.
impl<'a, B: PrefixBounds> Clone for RangeTask<'a, B> {
    fn clone(&self) -> Self {
        RangeTask {
            cursor: self.cursor.clone(),
            end: self.end,
        }
    }
}

impl<'a, B: PrefixBounds> RangeTask<'a, B> {
    /// A task over groups `start..end`, its cursor positioned by one
    /// [`GroupCursor::seek`] (an `end` past the space just stops at its
    /// last group).
    pub(crate) fn new(
        bounds: &'a B,
        z: usize,
        num_offsets: usize,
        start: u64,
        end: u64,
    ) -> Result<Self> {
        let mut cursor = GroupCursor::new(bounds, z, num_offsets)?;
        if start > 0 {
            cursor.seek(start)?;
        }
        Ok(RangeTask { cursor, end })
    }

    /// First linear index of the range.
    pub fn start(&self) -> u64 {
        self.cursor.position()
    }

    /// One-past-last linear index of the range.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Run `f(position, prefix, offset_index)` over every group in the
    /// range. The pre-positioned cursor is cloned, so a task can be
    /// executed repeatedly (and from `&self` inside a parallel region).
    pub fn for_each<F>(&self, mut f: F) -> Result<()>
    where
        F: FnMut(u64, &[i64], usize) -> Result<()>,
    {
        let mut cur = self.cursor.clone();
        while cur.position() < self.end {
            let pos = cur.position();
            match cur.current() {
                Some((prefix, o)) => f(pos, prefix, o)?,
                None => break,
            }
            if !cur.advance()? {
                break;
            }
        }
        Ok(())
    }
}

/// Run `stages` in order with a barrier between consecutive stages:
/// the tasks of one stage run concurrently on the rayon pool through
/// `work`, and `barrier(stage_index, results)` receives that stage's
/// results in task order before the next stage starts (an `Err` from
/// either stops the run). The crate's single parallel driver — plain
/// plans, staged programs, refined verdicts, race-checked runs and the
/// inspector's audit all go through here. Empty stages open no pool
/// region.
pub(crate) fn run_stages<T, R, W, F>(stages: &[Vec<T>], work: W, mut barrier: F) -> Result<()>
where
    T: Sync,
    R: Send,
    W: Fn(&T) -> Result<R> + Sync,
    F: FnMut(usize, Vec<R>) -> Result<()>,
{
    for (si, stage) in stages.iter().enumerate() {
        let results = if stage.is_empty() {
            Vec::new()
        } else {
            stage.par_iter().map(&work).collect::<Result<Vec<R>>>()?
        };
        barrier(si, results)?;
    }
    Ok(())
}

/// Per-group cost varies across the group space exactly when some
/// trailing (sequential) level's bounds read a doall prefix variable:
/// the trailing iteration count — the work one group does — is then a
/// function of which prefix the group carries. Levels reading only
/// other trailing variables contribute the same trailing volume to
/// every group and do not skew. [`Schedule::ranges_for`] splits skewed
/// spaces finer so work stealing has something to take.
pub fn cost_skewed<B: PrefixBounds>(bounds: &B, z: usize) -> bool {
    (z..bounds.dim()).any(|level| bounds.reads_prefix(level, z))
}

/// Split a group space into steal-aware [`RangeTask`]s: range sizing by
/// [`Schedule::ranges_for`] (finer when [`cost_skewed`]), cursor
/// positioning by per-range `O(depth)` [`GroupCursor::seek`] when every
/// prefix level is independent, and by the cursor-clone walk
/// ([`GroupCursor::advance_to`] + clone at each boundary) when seeks
/// would have to count prefix-dependent subtrees.
pub fn plan_range_tasks<'a, B: PrefixBounds>(
    bounds: &'a B,
    z: usize,
    num_offsets: usize,
    sched: &Schedule,
    threads: usize,
) -> Result<Vec<RangeTask<'a, B>>> {
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
                cursor: walker.clone(),
                end,
            });
        }
    } else {
        for &(start, end) in &ranges {
            let mut cursor = GroupCursor::new(bounds, z, num_offsets)?;
            cursor.seek(start)?;
            tasks.push(RangeTask { cursor, end });
        }
    }
    Ok(tasks)
}

/// Number of doall-prefix value combinations over the first `z` levels of
/// `bounds`, without enumerating the prefix-independent suffix: constant
/// extents multiply arithmetically and only the dependent head levels are
/// walked. Pure arithmetic on rectangular nests.
pub fn prefix_count<B: PrefixBounds>(bounds: &B, z: usize) -> Result<u64> {
    let mut j_star = z;
    while j_star > 0 && !bounds.prefix_dependent(j_star - 1) {
        j_star -= 1;
    }
    let x = vec![0i64; bounds.dim()];
    let mut tail: u64 = 1;
    for k in j_star..z {
        let (lo, hi) = bounds.level_range(k, &x)?;
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
/// upper bound of the index space [`Schedule::ranges`] splits.
pub fn group_count<B: PrefixBounds>(bounds: &B, z: usize, num_offsets: usize) -> Result<u64> {
    prefix_count(bounds, z)?
        .checked_mul(num_offsets as u64)
        .ok_or_else(overflow)
}

/// Default [`Schedule::chunks_per_thread`]: 4 contiguous ranges per
/// worker, the factor the pre-streaming chunked scheduler used.
pub const DEFAULT_CHUNKS_PER_THREAD: usize = 4;

/// Default [`Schedule::steal_chunks_per_thread`]: 16 ranges per worker
/// on cost-skewed group spaces, fine enough that a worker stuck behind
/// the fat end of a triangular nest leaves most of its share stealable.
pub const DEFAULT_STEAL_CHUNKS_PER_THREAD: usize = 16;

/// Range-splitting knobs for the streaming schedulers.
///
/// `chunks_per_thread` controls how many contiguous group ranges each
/// worker receives on *uniform-cost* (rectangular) group spaces;
/// `steal_chunks_per_thread` applies instead when the space is
/// [`cost_skewed`], splitting finer so the work-stealing executor's
/// idle threads always find a chunk to take. More chunks smooth
/// imbalanced group costs at the price of extra per-range cursor
/// positioning. Defaults are [`DEFAULT_CHUNKS_PER_THREAD`] and
/// [`DEFAULT_STEAL_CHUNKS_PER_THREAD`]; [`Schedule::from_env`] lets the
/// `PDM_CHUNKS_PER_THREAD` and `PDM_STEAL_CHUNKS_PER_THREAD`
/// environment variables override them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Target contiguous group ranges per worker thread (≥ 1) on
    /// uniform-cost group spaces.
    pub chunks_per_thread: usize,
    /// Target ranges per worker thread on [`cost_skewed`] group spaces
    /// (effective value never drops below `chunks_per_thread`).
    pub steal_chunks_per_thread: usize,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            chunks_per_thread: DEFAULT_CHUNKS_PER_THREAD,
            steal_chunks_per_thread: DEFAULT_STEAL_CHUNKS_PER_THREAD,
        }
    }
}

impl Schedule {
    /// The schedule configured by the environment:
    /// `PDM_CHUNKS_PER_THREAD` and `PDM_STEAL_CHUNKS_PER_THREAD`
    /// (positive integers) when set and parseable, defaults otherwise.
    pub fn from_env() -> Schedule {
        Self::from_env_value(
            std::env::var("PDM_CHUNKS_PER_THREAD").ok().as_deref(),
            std::env::var("PDM_STEAL_CHUNKS_PER_THREAD").ok().as_deref(),
        )
    }

    /// [`Schedule::from_env`] with the raw variable values injected —
    /// testable without mutating process environment.
    pub fn from_env_value(raw_chunks: Option<&str>, raw_steal: Option<&str>) -> Schedule {
        let parse = |raw: Option<&str>, default: usize| {
            raw.and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&c| c > 0)
                .unwrap_or(default)
        };
        Schedule {
            chunks_per_thread: parse(raw_chunks, DEFAULT_CHUNKS_PER_THREAD),
            steal_chunks_per_thread: parse(raw_steal, DEFAULT_STEAL_CHUNKS_PER_THREAD),
        }
    }

    /// Split `0..total` into contiguous `(start, end)` sub-ranges,
    /// targeting `threads × chunks_per_thread` chunks. Ranges cover the
    /// space exactly once, in order; `total == 0` yields no ranges.
    pub fn ranges(&self, total: u64, threads: usize) -> Vec<(u64, u64)> {
        Self::split(total, threads, self.chunks_per_thread)
    }

    /// Steal-aware [`Schedule::ranges`]: on a [`cost_skewed`] group
    /// space the split targets `threads × steal_chunks_per_thread`
    /// chunks so stealing has something to take; uniform spaces keep
    /// the coarse `chunks_per_thread` split.
    pub fn ranges_for<B: PrefixBounds>(
        &self,
        bounds: &B,
        z: usize,
        total: u64,
        threads: usize,
    ) -> Vec<(u64, u64)> {
        let chunks = if cost_skewed(bounds, z) {
            self.steal_chunks_per_thread.max(self.chunks_per_thread)
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

    /// Bounds of a rectangular box `lo_k ≤ x_k ≤ hi_k`.
    fn box_bounds(ranges: &[(i64, i64)]) -> LoopBounds {
        let n = ranges.len();
        let mut s = System::universe(n);
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            s.add_range(k, lo, hi).unwrap();
        }
        LoopBounds::from_system(&s).unwrap()
    }

    /// Bounds of the triangle `0 ≤ x_0 ≤ n`, `0 ≤ x_1 ≤ x_0`.
    fn triangle_bounds(n: i64) -> LoopBounds {
        let mut s = System::universe(2);
        s.add_range(0, 0, n).unwrap();
        let mut c = vec![0i64; 2];
        c[1] = 1;
        s.add_ge0(AffineExpr::new(pdm_matrix::vec::IVec(c), 0))
            .unwrap();
        // x_0 - x_1 >= 0
        s.add_ge0(AffineExpr::new(pdm_matrix::vec::IVec(vec![1, -1]), 0))
            .unwrap();
        LoopBounds::from_system(&s).unwrap()
    }

    fn collect(bounds: &LoopBounds, z: usize, noff: usize) -> Vec<(Vec<i64>, usize)> {
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
        for (total, threads) in [(0u64, 4usize), (1, 4), (7, 2), (1000, 3), (16, 16)] {
            let ranges = s.ranges(total, threads);
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

    #[test]
    fn schedule_env_parsing() {
        assert_eq!(
            Schedule::from_env_value(None, None).chunks_per_thread,
            DEFAULT_CHUNKS_PER_THREAD
        );
        assert_eq!(
            Schedule::from_env_value(None, None).steal_chunks_per_thread,
            DEFAULT_STEAL_CHUNKS_PER_THREAD
        );
        assert_eq!(
            Schedule::from_env_value(Some("8"), None).chunks_per_thread,
            8
        );
        assert_eq!(
            Schedule::from_env_value(Some(" 2 "), Some("32")),
            Schedule {
                chunks_per_thread: 2,
                steal_chunks_per_thread: 32
            }
        );
        // Garbage and zero fall back to the defaults, independently.
        assert_eq!(
            Schedule::from_env_value(Some("0"), Some("nope")),
            Schedule::default()
        );
        assert_eq!(
            Schedule::from_env_value(Some("many"), None).chunks_per_thread,
            DEFAULT_CHUNKS_PER_THREAD
        );
    }

    /// Bounds of `0 ≤ x_0 ≤ n` with trailing `0 ≤ x_1 ≤ x_0`: treated
    /// with `z = 1`, the sequential level's extent grows with the doall
    /// prefix — the canonical cost-skewed shape.
    fn skewed_tail_bounds(n: i64) -> LoopBounds {
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
        let b = LoopBounds::from_system(&s).unwrap();
        assert!(b.prefix_dependent(2), "x_2 does read an outer variable");
        assert!(!b.reads_prefix(2, 1), "but not a doall-prefix one");
        assert!(!cost_skewed(&b, 1));
    }

    #[test]
    fn steal_aware_ranges_split_skewed_spaces_finer() {
        let sched = Schedule::default();
        let threads = 4;
        let total = 4096u64;
        // Skewed: the split targets steal_chunks_per_thread per worker.
        let tri = skewed_tail_bounds(7);
        let fine = sched.ranges_for(&tri, 1, total, threads);
        assert_eq!(
            fine.len(),
            threads * DEFAULT_STEAL_CHUNKS_PER_THREAD,
            "skewed spaces must split into steal-sized chunks"
        );
        // Rectangular: the coarse split is unchanged.
        let b = box_bounds(&[(0, 9), (0, 9)]);
        let coarse = sched.ranges_for(&b, 1, total, threads);
        assert_eq!(coarse, sched.ranges(total, threads));
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
            for t in &tasks {
                assert!(t.start() <= t.end());
                t.for_each(|pos, prefix, o| {
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
