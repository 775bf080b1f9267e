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
//! # Counting
//!
//! One routine, the cursor's `count_completions`, sizes every group
//! space and every subtree a seek skips. A level is
//! **prefix-independent** when its bound rows read no outer variable.
//! The prefix-independent levels at the bottom of the prefix have
//! constant extents, so their completions are one product of widths. A
//! dependent level whose deeper levels are all independent counts as its
//! width × that product, with no loop over its values: the product reads
//! no outer variable. Only a dependent level with dependent levels below
//! it loops over its values. [`group_count`] is that count from level 0
//! × `num_offsets`: pure arithmetic on rectangular nests, one pass over
//! the outer level on a triangle.
//!
//! # Seek
//!
//! [`GroupCursor::seek`] positions the cursor at the `k`-th group of the
//! sequence. Linear index `k` decomposes as `k = prefix_ordinal ×
//! num_offsets + offset_index`, and the prefix ordinal is resolved level
//! by level. When every level below is prefix-independent, subtree sizes
//! are equal and the level value is one division, so a rectangular seek
//! is `O(depth)`. Otherwise the cursor scans the level's values,
//! counting each subtree as above: `O(extent)` for one dependent level.
//! `seek(k)` agrees with `k` calls to [`GroupCursor::advance`] from the
//! start, asserted by the property tests on random nests and on fixed
//! triangles.
//!
//! # Scheduling
//!
//! The vendored pool owns the split. [`crate::compile::Walker::tasks`]
//! cuts `0..group_count` into `threads × rayon::BLOCKS_PER_WORKER`
//! contiguous ranges, so each block a pool region hands out is one
//! [`RangeTask`]. A task is just its bounds: a worker walks every task
//! it claims with one cursor and one scratch of its own. The region's
//! caller claims blocks in order, so its cursor already sits at each
//! next start; a helper's block start is one seek. Simultaneously-live
//! group state is `O(threads × depth)` instead of `O(#groups)`, and a
//! range allocates nothing before its first group. The split has no
//! knob: the block count is the only number that decides it.
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

/// The counting view of a group space: its bounds, the prefix depth,
/// and where its prefix-independent levels start. It holds no point, so
/// a count needs nothing but a point buffer to write in.
#[derive(Debug, Clone, Copy)]
struct Levels<'a> {
    bounds: &'a CompiledBounds,
    /// Number of leading (doall) levels enumerated.
    z: usize,
    /// Smallest `j` such that levels `j..z` are all prefix-independent.
    indep_from: usize,
}

impl<'a> Levels<'a> {
    fn new(bounds: &'a CompiledBounds, z: usize) -> Self {
        debug_assert!(z <= bounds.dim(), "doall prefix exceeds nest depth");
        let mut indep_from = z;
        while indep_from > 0 && !bounds.prefix_dependent(indep_from - 1) {
            indep_from -= 1;
        }
        Levels {
            bounds,
            z,
            indep_from,
        }
    }

    /// Are levels `j..z` all prefix-independent?
    #[inline]
    fn indep_below(&self, j: usize) -> bool {
        j >= self.indep_from
    }

    /// Product of the (constant) extents of the prefix-independent levels
    /// `j..z` — the completions below any value at level `j − 1`.
    fn tail_product(&self, x: &[i64], j: usize) -> Result<u64> {
        debug_assert!(self.indep_below(j));
        let mut t: u64 = 1;
        for k in j..self.z {
            let (lo, hi) = self.bounds.range(k, x)?;
            t = t.checked_mul(width(lo, hi)?).ok_or_else(overflow)?;
            if t == 0 {
                return Ok(0);
            }
        }
        Ok(t)
    }

    /// Exact number of prefix completions of levels `j..z` given the
    /// values in `x[..j]`; deeper slots of `x` are scribbled on. A
    /// dependent level whose deeper levels are all prefix-independent
    /// counts as its width × their product; only a level with dependent
    /// levels below it loops over its values (see the [module
    /// docs](self)).
    fn count_completions(&self, x: &mut [i64], j: usize) -> Result<u64> {
        if self.indep_below(j) {
            return self.tail_product(x, j);
        }
        let (lo, hi) = self.bounds.range(j, x)?;
        if self.indep_below(j + 1) {
            let tail = self.tail_product(x, j + 1)?;
            return width(lo, hi)?.checked_mul(tail).ok_or_else(overflow);
        }
        let mut total: u64 = 0;
        let mut v = lo;
        while v <= hi {
            x[j] = v;
            total = total
                .checked_add(self.count_completions(x, j + 1)?)
                .ok_or_else(overflow)?;
            if v == hi {
                break;
            }
            v += 1;
        }
        Ok(total)
    }
}

/// Streaming enumerator over a plan's independent groups.
///
/// Walks doall-prefix values in lexicographic order crossed with offset
/// indices `0..num_offsets` (offset-minor), holding `O(depth)` state —
/// never more than one group. See the [module docs](self) for the state,
/// ordering, and seek semantics.
#[derive(Debug)]
pub struct GroupCursor<'a> {
    levels: Levels<'a>,
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
    exhausted: bool,
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
    /// in place. `num_offsets` must be at least 1.
    pub fn unpositioned(bounds: &'a CompiledBounds, z: usize, num_offsets: usize) -> Self {
        debug_assert!(
            num_offsets > 0,
            "group cursor needs a non-empty offset table"
        );
        GroupCursor {
            levels: Levels::new(bounds, z),
            num_offsets,
            x: vec![0; bounds.dim()],
            lo: vec![0; z],
            hi: vec![0; z],
            offset: 0,
            pos: 0,
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
            Some((&self.x[..self.levels.z], self.offset))
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
            if j == self.levels.z {
                return Ok(true);
            }
            let (lo, hi) = self.levels.bounds.range(j, &self.x)?;
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
        let mut j = self.levels.z;
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

    /// Position the cursor at the group with linear index `target`.
    /// Returns `false` (and exhausts the cursor) when `target` is past
    /// the last group. `O(depth)` when all prefix levels are
    /// independent; with prefix-dependent levels it counts subtrees
    /// exactly: see the [module docs](self) for the cost model.
    pub fn seek(&mut self, target: u64) -> Result<bool> {
        self.exhausted = false;
        self.pos = target;
        self.offset = (target % self.num_offsets as u64) as usize;
        let mut p = target / self.num_offsets as u64;
        for j in 0..self.levels.z {
            let (lo, hi) = self.levels.bounds.range(j, &self.x)?;
            self.lo[j] = lo;
            self.hi[j] = hi;
            if lo > hi {
                self.exhausted = true;
                return Ok(false);
            }
            if self.levels.indep_below(j + 1) {
                let sub = self.levels.tail_product(&self.x, j + 1)?;
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
                    let c = self.levels.count_completions(&mut self.x, j + 1)?;
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
        if self.levels.z == 0 && p > 0 {
            self.exhausted = true;
            return Ok(false);
        }
        Ok(true)
    }
}

/// One schedulable unit of a group space: the contiguous linear range
/// `start..end`. A task owns no walk state; a worker runs every task it
/// claims with one reused cursor ([`GroupCursor::unpositioned`]), which
/// the task positions in place: not at all when the worker's previous
/// range ended where this one starts, else by one [`GroupCursor::seek`].
#[derive(Debug)]
pub struct RangeTask<'a> {
    bounds: &'a CompiledBounds,
    start: u64,
    end: u64,
}

impl<'a> RangeTask<'a> {
    /// A task over groups `start..end` of the space `bounds` spans,
    /// positioned by a seek when it runs (an `end` past the space just
    /// stops at its last group).
    pub(crate) fn new(bounds: &'a CompiledBounds, start: u64, end: u64) -> Self {
        RangeTask { bounds, start, end }
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
        if !std::ptr::eq(cursor.levels.bounds, self.bounds) {
            return Err(RuntimeError::Core(
                "cursor walks a different group space than the task".into(),
            ));
        }
        // A worker claiming ranges in order finds its cursor where the
        // last range ended, already at this start.
        if cursor.is_exhausted() || cursor.position() != self.start {
            cursor.seek(self.start)?;
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

/// Target task count for a group space run on `threads` workers: one
/// task per block the vendored pool splits a region into, so the pool's
/// block count is the only number that decides the split.
pub(crate) fn task_target(threads: usize) -> usize {
    threads.max(1) * rayon::BLOCKS_PER_WORKER
}

/// Total group count: prefix completions of the first `z` levels of
/// `bounds` × `num_offsets`, counted by the cursor's one counting
/// routine without enumerating a group (see the [module docs](self)).
/// This is the length of the sequence a [`GroupCursor`] yields.
pub fn group_count(bounds: &CompiledBounds, z: usize, num_offsets: usize) -> Result<u64> {
    Levels::new(bounds, z)
        .count_completions(&mut vec![0; bounds.dim()], 0)?
        .checked_mul(num_offsets as u64)
        .ok_or_else(overflow)
}

/// A replay-only shim: `Schedule` carries no setting, and no production
/// path reads it. It survives only because servebench's staged replay
/// passes `pdm_service::Session::schedule`'s value to
/// [`CompiledPlan::run_parallel_scheduled`](crate::CompiledPlan::run_parallel_scheduled)
/// and [`run_refined_compiled`](crate::inspector::run_refined_compiled);
/// it is deleted with that replay. Group work is split by the vendored
/// pool's block count alone ([`crate::compile::Walker::tasks`]).
#[derive(Debug, Clone, Copy)]
pub struct Schedule;

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
    }

    #[test]
    fn triangular_cursor_skips_and_counts_exactly() {
        let b = triangle_bounds(4);
        let got = collect(&b, 2, 1);
        // (x0, x1) with 0 <= x1 <= x0 <= 4: 1+2+3+4+5 = 15 prefixes.
        assert_eq!(got.len(), 15);
        assert_eq!(group_count(&b, 2, 1).unwrap(), 15);
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
}
