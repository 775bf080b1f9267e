//! Counting, seeking and range scheduling of independent groups.
//!
//! The parallel plans of this crate expose their work as *groups* — one
//! per (doall-prefix value × Theorem-2 partition offset), numbered in
//! lexicographic prefix order, offset-minor. Schedulers hand workers
//! contiguous *ranges* of that index space, and
//! [`Walker::walk_range`](crate::compile::Walker::walk_range) walks a
//! range as one walk whose outer levels are the prefix levels and the
//! offset index. This module holds what the walk needs besides its own
//! levels: the count of a group space, the prefix a range that starts
//! elsewhere seeks to, the split, and the stage driver. All of it reads
//! the plan's lowered [`CompiledBounds`], the bounds the walk steps.
//!
//! # Counting
//!
//! One routine, `Levels::count_completions`, sizes every group space
//! and every subtree a seek skips. A level is **prefix-independent**
//! when its bound rows read no outer variable. The prefix-independent
//! levels at the bottom of the prefix have constant extents, so their
//! completions are one product of widths. A dependent level whose
//! deeper levels are all independent counts as its width × that
//! product, with no loop over its values: the product reads no outer
//! variable. Only a dependent level with dependent levels below it
//! loops over its values. [`group_count`] is that count from level 0 ×
//! `num_offsets`: pure arithmetic on rectangular nests, one pass over
//! the outer level on a triangle.
//!
//! # Seek
//!
//! A range that does not start where its worker's last range stopped
//! seeks once. Linear index `k` decomposes as `k = prefix_ordinal ×
//! num_offsets + offset_index`, and `Levels::seek` resolves the prefix
//! ordinal level by level. When every level below is
//! prefix-independent, subtree sizes are equal and the level value is
//! one division, so a rectangular seek is `O(depth)`. Otherwise it
//! scans the level's values, counting each subtree as above:
//! `O(extent)` for one dependent level. The walk then shifts its prefix
//! levels to the values found. A seek to `k` lands where a walk from
//! group 0 arrives after `k` groups, asserted by the property tests on
//! random nests and on fixed triangles.
//!
//! # Scheduling
//!
//! The vendored pool owns the split. [`crate::compile::Walker::tasks`]
//! cuts `0..group_count` into `threads × rayon::BLOCKS_PER_WORKER`
//! contiguous ranges (`task_target`), so each block a pool region
//! hands out is one range; a stage of several kernels shares that one
//! target among its kernels. A task is just `start..end`: a worker
//! walks every task it claims with one walk scratch of its own, which
//! records where its last walk stopped. The region's caller claims
//! blocks in order, so its walk already sits at each next start; a
//! helper's block start is one seek. Simultaneously-live group state is
//! `O(threads × depth)` instead of `O(#groups)`, and a range allocates
//! nothing before its first group. The split has no knob: the block
//! count is the only number that decides it.
//!
//! # Stages
//!
//! `run_stages` is the crate's one parallel driver: a list of stages,
//! each a list of independent tasks (a kernel's group range), run on
//! the vendored pool's work-first `par_iter` with a barrier between
//! stages. Plain plans are one stage; staged multi-kernel programs and
//! refined inspector verdicts are several. No executor materializes its
//! group list, and worker state (the walk scratch) is built once per
//! thread and carried from stage to stage.

use crate::compile::CompiledBounds;
use crate::{Result, RuntimeError};
use pdm_matrix::MatrixError;
use rayon::prelude::*;
use std::ops::Range;
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
/// a count or a seek needs nothing but a point buffer to write in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Levels<'a> {
    bounds: &'a CompiledBounds,
    /// Number of leading (doall) levels enumerated.
    z: usize,
    /// Smallest `j` such that levels `j..z` are all prefix-independent.
    indep_from: usize,
}

impl<'a> Levels<'a> {
    pub(crate) fn new(bounds: &'a CompiledBounds, z: usize) -> Self {
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

    /// Write the prefix of ordinal `p` (in lexicographic order of the
    /// feasible prefixes) into `x[..z]`, and each prefix level's upper
    /// bound along it into `hi[..z]`; deeper slots of `x` are scribbled
    /// on. Returns `false` when `p` is past the last prefix. `O(depth)`
    /// when every prefix level is independent of the ones above; see the
    /// [module docs](self) for the cost of dependent levels.
    pub(crate) fn seek(&self, mut p: u64, x: &mut [i64], hi: &mut [i64]) -> Result<bool> {
        for j in 0..self.z {
            let (lo, h) = self.bounds.range(j, x)?;
            hi[j] = h;
            if self.indep_below(j + 1) {
                let sub = self.tail_product(x, j + 1)?;
                if sub == 0 || p / sub >= width(lo, h)? {
                    return Ok(false);
                }
                x[j] = lo + (p / sub) as i64;
                p %= sub;
                continue;
            }
            let mut v = lo;
            loop {
                if v > h {
                    return Ok(false);
                }
                x[j] = v;
                let c = self.count_completions(x, j + 1)?;
                if p < c {
                    break;
                }
                p -= c;
                if v == h {
                    return Ok(false);
                }
                v += 1;
            }
        }
        // With no prefix level the space has one prefix, ordinal 0.
        Ok(p == 0)
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
/// `init` (its walk scratch), reused for every task it claims. A
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

/// `0..total` cut into at most `parts` contiguous, non-empty ranges of
/// near-equal length (none when `total` is 0).
pub(crate) fn split(total: u64, parts: u64) -> impl Iterator<Item = Range<u64>> {
    let chunk = total.div_ceil(parts.max(1)).max(1);
    (0..total)
        .step_by(chunk as usize)
        .map(move |start| start..(start + chunk).min(total))
}

/// Total group count: prefix completions of the first `z` levels of
/// `bounds` × `num_offsets`, counted by the one counting routine
/// without enumerating a group (see the [module docs](self)). This is
/// the number of groups a walk from group 0 enters.
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
    use crate::compile::{Visit, Walker};
    use pdm_core::parallelize;
    use pdm_core::plan::ParallelPlan;
    use pdm_loopir::parse::parse_loop_with;

    /// The plan of `src` at `n` for `N`, with its prefix depth and
    /// offset count checked.
    fn plan(src: &str, n: i64, z: usize, noff: u64) -> ParallelPlan {
        let plan = parallelize(&parse_loop_with(src, &[("N", n)]).unwrap()).unwrap();
        assert_eq!(plan.doall_count(), z, "{src}");
        assert_eq!(plan.partition_count() as u64, noff, "{src}");
        plan
    }

    /// The `(id, prefix, offset)` of every group a walk of `groups`
    /// enters, on `s`.
    fn entered(
        walker: &Walker,
        groups: Range<u64>,
        s: &mut crate::compile::PlanScratch,
    ) -> Vec<(u64, Vec<i64>, usize)> {
        let mut out = Vec::new();
        walker
            .walk_range(groups, s, |step| {
                if let Visit::Group { id, prefix, offset } = step {
                    out.push((id, prefix.to_vec(), offset));
                }
                Ok(())
            })
            .unwrap();
        out
    }

    /// Every group of `plan`, walked from group 0, checked against
    /// [`group_count`].
    fn all_groups(plan: &ParallelPlan) -> Vec<(Vec<i64>, usize)> {
        let walker = Walker::for_plan(plan);
        let got = entered(&walker, 0..u64::MAX, &mut walker.new_scratch());
        assert_eq!(got.len() as u64, crate::exec::group_count(plan).unwrap());
        got.into_iter()
            .enumerate()
            .map(|(k, (id, p, o))| {
                assert_eq!(id, k as u64, "ids run in walk order");
                (p, o)
            })
            .collect()
    }

    /// A 3 × 3 prefix box crossed with two offsets.
    const BOX: &str = "for a = 0..=2 { for b = 1..=3 { for c = 0..=N {
        A[a, b, c] = A[a, b, c - 2] + 1; } } }";
    /// The triangle `0 ≤ j ≤ i ≤ N`, every level doall.
    const TRIANGLE: &str = "for i = 0..=N { for j = 0..=i { A[i, j] = A[i, j] + j; } }";

    #[test]
    fn rectangular_walk_order_and_count() {
        let got = all_groups(&plan(BOX, 3, 2, 2));
        assert_eq!(got.len(), 3 * 3 * 2);
        // Offset-minor, prefix lexicographic.
        assert_eq!(got[0], (vec![0, 1], 0));
        assert_eq!(got[1], (vec![0, 1], 1));
        assert_eq!(got[2], (vec![0, 2], 0));
        assert_eq!(got.last().unwrap(), &(vec![2, 3], 1));
    }

    #[test]
    fn triangular_walk_skips_and_counts_exactly() {
        let got = all_groups(&plan(TRIANGLE, 4, 2, 1));
        // (x0, x1) with 0 <= x1 <= x0 <= 4: 1+2+3+4+5 = 15 prefixes.
        assert_eq!(got.len(), 15);
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0, "not lexicographic: {w:?}");
        }
    }

    #[test]
    fn zero_prefix_levels_yield_one_prefix_per_offset() {
        let got = all_groups(&plan("for i = 0..=N { A[i] = A[i - 3] + 1; }", 5, 0, 3));
        assert_eq!(
            got,
            vec![(vec![], 0), (vec![], 1), (vec![], 2)],
            "z == 0 must yield exactly the offset table"
        );
    }

    #[test]
    fn empty_space_enters_no_group() {
        let p = plan(BOX, -1, 2, 2);
        assert!(all_groups(&p).is_empty());
        let walker = Walker::for_plan(&p);
        let mut s = walker.new_scratch();
        for start in [0, 1, 7] {
            assert!(entered(&walker, start..start + 2, &mut s).is_empty());
            assert_eq!(s.position(), None);
        }
    }

    #[test]
    fn seek_lands_where_the_walk_from_zero_arrives() {
        for p in [plan(BOX, 4, 2, 2), plan(TRIANGLE, 5, 2, 1)] {
            let all = all_groups(&p);
            let total = all.len() as u64;
            let walker = Walker::for_plan(&p);
            for k in 0..total {
                // A fresh scratch seeks `k`, then walks on to `k + 1`.
                let mut s = walker.new_scratch();
                let got = entered(&walker, k..k + 2, &mut s);
                let want: Vec<_> = (k..(k + 2).min(total))
                    .map(|g| (g, all[g as usize].0.clone(), all[g as usize].1))
                    .collect();
                assert_eq!(got, want, "seek({k})");
                let next = (k + 2 < total).then_some(k + 2);
                assert_eq!(s.position(), next, "the walk stops at the next group");
            }
            let mut s = walker.new_scratch();
            assert!(entered(&walker, total..total + 1, &mut s).is_empty());
        }
    }
}
