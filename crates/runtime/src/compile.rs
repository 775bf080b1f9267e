//! Compile-once execution of loop nests and parallel plans.
//!
//! [`crate::exec`] interprets: every iteration re-walks the `Expr` tree,
//! re-evaluates affine bounds through allocating helpers, and recomputes
//! subscripts from scratch. This module lowers a `(LoopNest,
//! ParallelPlan)` pair **once** into a flat program and then executes it
//! with none of that per-iteration work:
//!
//! * the body becomes postfix bytecode with linearized accesses
//!   ([`crate::program`]);
//! * per-level loop bounds become [`CompiledBounds`] — raw coefficient
//!   rows evaluated by one fused dot product, no allocation;
//! * the `y → i = y·T⁻¹` back-substitution and every access's flat
//!   offset are updated **incrementally**: advancing transformed level
//!   `ℓ` by `δ` adds `δ·T⁻¹[ℓ]` to the original index vector and a
//!   precomputed `δ·(coeff·T⁻¹[ℓ])` to each flat offset — strength
//!   reduction of every address computation in the nest;
//! * Theorem-2 partition residues are computed once per level *entry*
//!   (they depend only on outer lattice coordinates), and the lattice
//!   coordinate `q_k` advances by 1 per step instead of being re-derived;
//! * the walk itself is an iterative state machine over pre-allocated
//!   level arrays — no recursion, no per-group allocation.
//!
//! # One walker, many visitors
//!
//! The group geometry — compiled bounds, `T⁻¹` deltas, lattice steps and
//! the offset table — lives in a [`Walker`], which needs neither a
//! [`Program`] nor a [`Memory`]. [`Walker::walk_range`] walks a
//! contiguous range of groups as **one** walk: the doall-prefix levels
//! (step 1, no residue) and the partition offset index are its outer
//! levels, so the next group of a range is one strength-reduced `shift`
//! and one bound check away, like the next value of an inner level. It
//! is generic over one visitor (monomorphised, never `dyn`) that hears
//! of every group entry, a group that runs no iteration included, and
//! of every iteration: execution runs the bytecode, the race checker
//! ([`crate::checked`]) logs the cells the bytecode touches, the
//! inspector ([`crate::inspector`]) summarises the same cells per group
//! without reading a [`Memory`], and test oracles record the groups and
//! points they see.
//!
//! # Scheduling
//!
//! [`CompiledPlan::run_parallel`] splits the group *index space*
//! (doall-prefix values × partition offsets) into one contiguous range
//! per pool block ([`Walker::tasks`]) and hands them to the crate's one
//! stage driver. Each worker keeps one [`PlanScratch`], which records
//! the group its last walk stopped at: a range that starts there (the
//! region's caller claims in order) walks on from it, and any other
//! range seeks its start once ([`crate::schedule`]). The group list is
//! never materialized, and a range allocates nothing.

use crate::memory::{Layout, Memory};
use crate::program::{Program, Scratch};
use crate::schedule::{self, Levels, Schedule};
use crate::{Result, RuntimeError};
use pdm_core::partition::Partitioning;
use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;
use pdm_matrix::num::{ceil_div, floor_div};
use pdm_matrix::MatrixError;
use pdm_poly::bounds::{BoundExpr, LoopBounds};
use pdm_poly::expr::AffineExpr;
use std::ops::Range;

fn overflow() -> RuntimeError {
    RuntimeError::Matrix(MatrixError::Overflow)
}

/// One side of a compiled bound: `num(x) / den` with `den > 0`.
#[derive(Debug, Clone)]
struct CBound {
    coeffs: Vec<i64>,
    constant: i64,
    den: i64,
}

impl CBound {
    fn lower(b: &BoundExpr) -> CBound {
        CBound {
            coeffs: b.num.coeffs.0.clone(),
            constant: b.num.constant,
            den: b.den,
        }
    }

    #[inline]
    fn num(&self, x: &[i64]) -> Result<i64> {
        let mut acc = self.constant as i128;
        for (c, v) in self.coeffs.iter().zip(x) {
            acc += *c as i128 * *v as i128;
        }
        i64::try_from(acc).map_err(|_| overflow())
    }
}

/// Per-level bounds compiled to coefficient rows (no allocation to
/// evaluate; inner coefficients are structurally zero, so evaluation may
/// pass the full current point).
///
/// Upstream bound generation prunes redundant constraints exactly
/// (`pdm_poly::bounds`), so the rows lowered here are irredundant — every
/// `max`/`min` candidate evaluated per level entry is necessary.
#[derive(Debug, Clone)]
pub struct CompiledBounds {
    levels: Vec<(Vec<CBound>, Vec<CBound>)>,
}

impl CompiledBounds {
    /// A concrete nest's own loop bounds, one lower and one upper row
    /// per level. They already bound each level by outer indices only,
    /// so the original lexicographic walk needs no Fourier–Motzkin: an
    /// outer value whose inner range is empty is skipped by the walk.
    fn for_nest(nest: &LoopNest) -> Result<CompiledBounds> {
        if let Some(name) = nest.param_names().first() {
            return Err(pdm_loopir::IrError::UnboundParameter { name: name.clone() }.into());
        }
        let row = |e: &AffineExpr| CBound {
            coeffs: e.coeffs.0.clone(),
            constant: e.constant,
            den: 1,
        };
        let levels = (0..nest.depth())
            .map(|k| (vec![row(nest.lower(k))], vec![row(nest.upper(k))]))
            .collect();
        Ok(CompiledBounds { levels })
    }

    /// Lower every level of `bounds`.
    pub fn compile(bounds: &LoopBounds) -> CompiledBounds {
        let levels = (0..bounds.dim())
            .map(|k| {
                let lb = bounds.level(k);
                (
                    lb.lowers.iter().map(CBound::lower).collect(),
                    lb.uppers.iter().map(CBound::lower).collect(),
                )
            })
            .collect();
        CompiledBounds { levels }
    }

    /// Number of compiled levels.
    pub fn dim(&self) -> usize {
        self.levels.len()
    }

    /// Does level `k`'s range read any outer loop variable? (Inner
    /// coefficients are structurally zero, so any nonzero coefficient
    /// means prefix dependence.)
    pub fn prefix_dependent(&self, k: usize) -> bool {
        let (lowers, uppers) = &self.levels[k];
        lowers
            .iter()
            .chain(uppers)
            .any(|b| b.coeffs.iter().any(|&c| c != 0))
    }

    /// Effective `(lo, hi)` of level `k` at the current point `x` (only
    /// `x[..k]` is read through nonzero coefficients).
    #[inline]
    pub fn range(&self, k: usize, x: &[i64]) -> Result<(i64, i64)> {
        let (lowers, uppers) = &self.levels[k];
        let mut lo: Option<i64> = None;
        for b in lowers {
            let v = ceil_div(b.num(x)?, b.den)?;
            lo = Some(lo.map_or(v, |c| c.max(v)));
        }
        let mut hi: Option<i64> = None;
        for b in uppers {
            let v = floor_div(b.num(x)?, b.den)?;
            hi = Some(hi.map_or(v, |c| c.min(v)));
        }
        match (lo, hi) {
            (Some(l), Some(h)) => Ok((l, h)),
            _ => Err(RuntimeError::Matrix(MatrixError::Unbounded)),
        }
    }
}

/// Reusable walk state: transformed point, lattice coordinates, level
/// uppers, the group the last walk stopped at, and the visited
/// [`Scratch`] (original indices, flat offsets, operand stack). The
/// stage driver keeps one per worker thread, so a range allocates
/// nothing before its first iteration.
#[derive(Debug, Clone)]
pub struct PlanScratch {
    y: Vec<i64>,
    q: Vec<i64>,
    hi: Vec<i64>,
    /// The prefix a seek finds, before the walk shifts to it (`z`
    /// entries: a prefix level's bounds read the levels above it only).
    target: Vec<i64>,
    /// The group the last walk stopped at, entered next: its prefix is
    /// `y[..z]` and its offset index `o`. `None` before the first walk,
    /// after the last group, and after a failed walk.
    at: Option<u64>,
    o: usize,
    inner: Scratch,
}

impl PlanScratch {
    /// The group the last [`Walker::walk_range`] stopped at: a range
    /// starting there walks on without a seek. `None` when the scratch
    /// sits at no group.
    pub fn position(&self) -> Option<u64> {
        self.at
    }
}

/// One step of [`Walker::walk_range`], handed to its visitor.
#[derive(Debug)]
pub enum Visit<'s> {
    /// Entry to group `id`, before its iterations; a group that runs no
    /// iteration is entered too.
    Group {
        /// Linear index of the group.
        id: u64,
        /// Its doall-prefix values.
        prefix: &'s [i64],
        /// Its index in [`Walker::offsets`].
        offset: usize,
    },
    /// One iteration of the current group, with the up-to-date scratch.
    Iteration(&'s mut Scratch),
}

/// The compiled group walker: the geometry of a (possibly transformed)
/// iteration space, independent of any body or memory.
///
/// It walks a range of groups — doall-prefix values crossed with
/// Theorem-2 offsets — each in transformed lexicographic order, keeping
/// the original indices (and, once [`Program`] accesses are attached,
/// every access's flat offset) up to date by strength reduction, and
/// hands each group entry and iteration to a visitor. Build one with
/// [`Walker::for_plan`] to walk a plan without a [`Memory`] (the
/// inspector does); [`CompiledPlan`] carries one with its program's
/// accesses attached, and builds the original nest's walker, straight
/// from the nest's loop bounds, for [`CompiledPlan::run_original_order`].
#[derive(Debug, Clone)]
pub struct Walker {
    /// Walk-space dimension (== nest depth).
    n: usize,
    /// Leading walk levels fixed per group (doall prefix; 0 when the
    /// walker drives the original nest, whose one group is the nest).
    z: usize,
    bounds: CompiledBounds,
    /// `dorig[ℓ][i]`: change of original index `i` per unit step of walk
    /// level `ℓ` (a row of `T⁻¹`; identity for the original nest).
    dorig: Vec<Vec<i64>>,
    /// `dflat[ℓ][a]`: change of access `a`'s flat offset per unit step of
    /// walk level `ℓ` (composition of the access strides with `dorig`;
    /// empty rows when no program is attached).
    dflat: Vec<Vec<i64>>,
    /// Per trailing level `kk = ℓ − z`: the lattice step `H[kk][kk]`
    /// (all 1 when unpartitioned).
    steps: Vec<i64>,
    /// Per trailing level: above-diagonal column `H[0..kk][kk]` used by
    /// the once-per-entry residue computation.
    hcols: Vec<Vec<i64>>,
    partitioned: bool,
    /// The Theorem-2 offset table (a single empty offset when the plan
    /// is unpartitioned).
    offsets: Vec<Vec<i64>>,
}

impl Walker {
    /// The geometry of `plan`'s groups, with no access table attached:
    /// visitors see original indices only ([`Scratch::idx`]).
    pub fn for_plan(plan: &ParallelPlan) -> Walker {
        Walker::plan_with(plan, None)
    }

    /// `plan`'s geometry, with `program`'s accesses attached when given.
    fn plan_with(plan: &ParallelPlan, program: Option<&Program>) -> Walker {
        let n = plan.depth();
        let z = plan.doall_count();
        let tinv = plan.inverse().mat();
        let dorig: Vec<Vec<i64>> = (0..n)
            .map(|l| (0..n).map(|i| tinv.get(l, i)).collect())
            .collect();
        let dflat = flat_deltas(program, &dorig);
        let (steps, hcols, offsets) = match plan.partition() {
            Some(p) => {
                debug_assert_eq!(p.dim(), n - z);
                let hcols = (0..n - z)
                    .map(|kk| (0..kk).map(|pp| p.basis().get(pp, kk)).collect())
                    .collect();
                let offsets = p.offsets().into_iter().map(|o| o.0).collect();
                (p.steps().to_vec(), hcols, offsets)
            }
            None => (vec![1; n - z], vec![Vec::new(); n - z], vec![Vec::new()]),
        };
        Walker {
            n,
            z,
            bounds: CompiledBounds::compile(plan.bounds()),
            dorig,
            dflat,
            steps,
            hcols,
            partitioned: plan.partition().is_some(),
            offsets,
        }
    }

    /// The original nest in lexicographic order, `program`'s accesses
    /// attached: identity transform, no doall prefix, one group, walked
    /// within the nest's own loop bounds.
    fn for_nest(nest: &LoopNest, program: &Program) -> Result<Walker> {
        let n = nest.depth();
        let dorig: Vec<Vec<i64>> = (0..n)
            .map(|l| (0..n).map(|i| i64::from(l == i)).collect())
            .collect();
        Ok(Walker {
            n,
            z: 0,
            bounds: CompiledBounds::for_nest(nest)?,
            dflat: flat_deltas(Some(program), &dorig),
            dorig,
            steps: vec![1; n],
            hcols: vec![Vec::new(); n],
            partitioned: false,
            offsets: vec![Vec::new()],
        })
    }

    /// Number of flat offsets the walk maintains (the attached program's
    /// access count, 0 for a bare geometry).
    fn flat_count(&self) -> usize {
        self.dflat.first().map_or(0, Vec::len)
    }

    /// The Theorem-2 offset table (a single empty offset when the plan is
    /// unpartitioned).
    pub fn offsets(&self) -> &[Vec<i64>] {
        &self.offsets
    }

    /// Split the group space into contiguous ranges for `threads`
    /// workers, one per block the vendored pool cuts a region into
    /// (`threads × rayon::BLOCKS_PER_WORKER`, fewer when the space has
    /// fewer groups). A range seeks its start when it runs, unless the
    /// worker's walk stopped there.
    pub fn tasks(&self, threads: usize) -> Result<Vec<Range<u64>>> {
        let target = schedule::task_target(threads) as u64;
        Ok(schedule::split(self.group_count()?, target).collect())
    }

    /// Exact number of independent groups (prefix values × offsets),
    /// computed without materializing them ([`crate::schedule::group_count`]).
    fn group_count(&self) -> Result<u64> {
        schedule::group_count(&self.bounds, self.z, self.offsets.len())
    }

    /// Walk state around `inner`, at the origin and at no group.
    fn scratch_with(&self, inner: Scratch) -> PlanScratch {
        PlanScratch {
            y: vec![0; self.n],
            q: vec![0; self.n - self.z],
            hi: vec![0; self.n],
            target: vec![0; self.z],
            at: None,
            o: 0,
            inner,
        }
    }

    /// Walk state for a bare geometry: original indices only.
    pub fn new_scratch(&self) -> PlanScratch {
        self.scratch_with(Scratch::indices_only(self.n))
    }

    /// Advance walk level `ℓ` by `delta`, updating the transformed point,
    /// the original indices, and every flat offset incrementally.
    #[inline(always)]
    fn shift(&self, s: &mut PlanScratch, level: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        s.y[level] += delta;
        for (o, d) in s.inner.idx.iter_mut().zip(&self.dorig[level]) {
            *o = o.wrapping_add(delta.wrapping_mul(*d));
        }
        for (f, d) in s.inner.flats.iter_mut().zip(&self.dflat[level]) {
            *f = f.wrapping_add(delta.wrapping_mul(*d));
        }
    }

    /// Residue of trailing level `kk` given the offset vector and the
    /// outer lattice coordinates — evaluated once per level entry.
    #[inline]
    fn residue(&self, offset: &[i64], q: &[i64], kk: usize) -> Result<i64> {
        let mut r = offset[kk] as i128;
        for (qp, h) in q[..kk].iter().zip(&self.hcols[kk]) {
            r += *qp as i128 * *h as i128;
        }
        i64::try_from(r).map_err(|_| overflow())
    }

    /// Walk the groups `groups` of the space in order as one walk,
    /// calling `visit` with [`Visit::Group`] on entry to each group and
    /// with [`Visit::Iteration`] once per iteration, in transformed
    /// lexicographic order. Returns the iteration count.
    ///
    /// The walk has `n + 1` levels: the prefix levels `0..z` (step 1, no
    /// residue), the offset index, and the trailing levels `z..n`, which
    /// a Theorem-2 residue seats. The scratch records the group the walk stopped at (the
    /// first past the range), so a range starting there walks on; any
    /// other start seeks once ([`crate::schedule`]). A range past the
    /// last group walks nothing, and a scratch of another walker's shape
    /// is refused before anything is visited.
    pub fn walk_range<V>(
        &self,
        groups: Range<u64>,
        s: &mut PlanScratch,
        mut visit: V,
    ) -> Result<u64>
    where
        V: FnMut(Visit<'_>) -> Result<()>,
    {
        // A scratch from a different walker would silently corrupt the
        // strength-reduced offsets; reject it before visiting anything.
        if s.y.len() != self.n || s.inner.flats.len() != self.flat_count() {
            return Err(RuntimeError::Core(
                "scratch was allocated for a different compiled walker".into(),
            ));
        }
        let (n, z, noff) = (self.n, self.z, self.offsets.len());
        // Cleared until the walk stops cleanly, so a failed walk leaves a
        // scratch that seeks.
        let at = s.at.take();
        if groups.is_empty() {
            s.at = at;
            return Ok(0);
        }
        let mut pos = groups.start;
        // Depth `d` walks the `n + 1` levels: prefix level `d` below `z`,
        // the offset index at `z`, trailing level `d − 1` above it.
        let mut d = z;
        if at == Some(pos) {
            // The last walk stopped at this group: walk on.
        } else if pos == 0 {
            d = 0;
            s.o = 0;
        } else {
            let noff = noff as u64;
            let levels = Levels::new(&self.bounds, z);
            if !levels.seek(pos / noff, &mut s.target, &mut s.hi)? {
                return Ok(0);
            }
            for k in 0..z {
                let delta = s.target[k] - s.y[k];
                self.shift(s, k, delta);
            }
            s.o = (pos % noff) as usize;
        }
        let mut count = 0u64;
        let mut entering = true;
        loop {
            if entering {
                if d < z {
                    // A prefix level: step 1, no residue.
                    let (lo, hi) = self.bounds.range(d, &s.y)?;
                    if lo <= hi {
                        s.hi[d] = hi;
                        self.shift(s, d, lo - s.y[d]);
                        d += 1;
                    } else {
                        entering = false;
                    }
                    continue;
                }
                if d == z {
                    if pos == groups.end {
                        s.at = Some(pos);
                        return Ok(count);
                    }
                    let (prefix, offset) = (&s.y[..z], s.o);
                    visit(Visit::Group {
                        id: pos,
                        prefix,
                        offset,
                    })?;
                    d += 1;
                    if z == n {
                        // Fully parallel: the group is a single iteration.
                        visit(Visit::Iteration(&mut s.inner))?;
                        count += 1;
                        entering = false;
                    }
                    continue;
                }
                let level = d - 1;
                let kk = level - z;
                let step = self.steps[kk];
                let (lo, hi) = self.bounds.range(level, &s.y)?;
                let start = if self.partitioned {
                    let r = self.residue(&self.offsets[s.o], &s.q, kk)?;
                    let v = Partitioning::first_at_least(lo, r, step)?;
                    s.q[kk] = (v - r) / step;
                    v
                } else {
                    lo
                };
                if start <= hi {
                    s.hi[level] = hi;
                    self.shift(s, level, start - s.y[level]);
                    if d < n {
                        d += 1;
                        continue;
                    }
                    // Innermost: visit the whole row.
                    loop {
                        visit(Visit::Iteration(&mut s.inner))?;
                        count += 1;
                        if (s.y[level] as i128 + step as i128) > hi as i128 {
                            break;
                        }
                        self.shift(s, level, step);
                        s.q[kk] += 1;
                    }
                }
                entering = false;
            } else {
                // Depth `d` is exhausted: bump the level above it.
                if d == 0 {
                    // Past the last group.
                    return Ok(count);
                }
                d -= 1;
                if d < z {
                    if s.y[d] < s.hi[d] {
                        self.shift(s, d, 1);
                        d += 1;
                        entering = true;
                    }
                } else if d == z {
                    // The group is done: the next offset, or the next prefix.
                    pos += 1;
                    if s.o + 1 < noff {
                        s.o += 1;
                        entering = true;
                    } else {
                        s.o = 0;
                    }
                } else {
                    let level = d - 1;
                    let kk = level - z;
                    let step = self.steps[kk];
                    if (s.y[level] as i128 + step as i128) <= s.hi[level] as i128 {
                        self.shift(s, level, step);
                        s.q[kk] += 1;
                        d += 1;
                        entering = true;
                    }
                }
            }
        }
    }
}

/// `dflat[ℓ][a] = Σ_i coeff_a[i] · dorig[ℓ][i]`: each access's flat
/// stride along each walk level (empty rows with no program attached).
fn flat_deltas(program: Option<&Program>, dorig: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let accesses = program.map_or(&[][..], Program::accesses);
    dorig
        .iter()
        .map(|row| {
            accesses
                .iter()
                .map(|acc| {
                    let mut d = 0i64;
                    for (c, t) in acc.coeff.iter().zip(row) {
                        d = d.wrapping_add(c.wrapping_mul(*t));
                    }
                    d
                })
                .collect()
        })
        .collect()
}

/// A `(LoopNest, ParallelPlan)` pair lowered to the compiled engine,
/// ready for chunked parallel execution.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    program: Program,
    walker: Walker,
}

impl CompiledPlan {
    /// Lower the pair against `mem`'s layout. The plan must have been
    /// derived from the same nest.
    pub fn compile(nest: &LoopNest, plan: &ParallelPlan, mem: &Memory) -> Result<CompiledPlan> {
        CompiledPlan::lower(nest, plan, mem.layout())
    }

    /// Lower the pair against `layout`, which needs no cells allocated
    /// (the inspector's audit of a bare nest).
    pub(crate) fn lower(
        nest: &LoopNest,
        plan: &ParallelPlan,
        layout: &Layout,
    ) -> Result<CompiledPlan> {
        let program = Program::lower(nest, layout)?;
        let walker = Walker::plan_with(plan, Some(&program));
        Ok(CompiledPlan { program, walker })
    }

    /// The compiled body.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The group walker, with this program's accesses attached.
    pub(crate) fn walker(&self) -> &Walker {
        &self.walker
    }

    /// Exact number of independent groups (prefix values × offsets),
    /// computed without materializing them ([`crate::schedule::group_count`]).
    pub fn group_count(&self) -> Result<u64> {
        self.walker.group_count()
    }

    /// Allocate reusable walk state.
    pub fn new_scratch(&self) -> PlanScratch {
        self.walker.scratch_with(self.program.new_scratch())
    }

    /// Execute the groups `groups` of the plan with a worker's reused
    /// scratch. Returns the iteration count.
    pub(crate) fn run_range(
        &self,
        mem: &Memory,
        groups: Range<u64>,
        s: &mut PlanScratch,
    ) -> Result<u64> {
        self.walker.walk_range(groups, s, |step| match step {
            Visit::Group { .. } => Ok(()),
            Visit::Iteration(sc) => self.program.exec(mem, sc),
        })
    }

    /// Execute the plan's nest in **original lexicographic order** on
    /// this plan's lowered program: the range `0..1` of the identity
    /// walker, whose one group is the nest, without lowering the body
    /// again. `nest` must be the nest the plan was compiled from. The
    /// executor for valuations whose dependences the plan cannot honour
    /// (a rejected inspector verdict). The walk reads `nest`'s own loop
    /// bounds, so no call lowers bounds. Returns the iteration count.
    pub fn run_original_order(&self, nest: &LoopNest, mem: &Memory) -> Result<u64> {
        let walker = Walker::for_nest(nest, &self.program)?;
        let mut s = walker.scratch_with(self.program.new_scratch());
        walker.walk_range(0..1, &mut s, |step| match step {
            Visit::Group { .. } => Ok(()),
            Visit::Iteration(sc) => self.program.exec(mem, sc),
        })
    }

    /// [`CompiledPlan::run_parallel`], taking the replay-only
    /// [`Schedule`] shim, which it ignores.
    pub fn run_parallel_scheduled(&self, mem: &Memory, _: Schedule) -> Result<u64> {
        self.run_parallel(mem)
    }

    /// Execute all groups **in parallel** with streaming range
    /// scheduling: one stage of group ranges, one per pool block
    /// ([`Walker::tasks`]), through `schedule::run_stages`, each worker
    /// reusing one scratch; zero up-front group materialization.
    /// Returns the total iteration count.
    pub fn run_parallel(&self, mem: &Memory) -> Result<u64> {
        let tasks = self.walker.tasks(rayon::current_num_threads())?;
        let mut total = 0u64;
        schedule::run_stages(
            std::slice::from_ref(&tasks),
            || self.new_scratch(),
            |s, task| self.run_range(mem, task.clone(), s),
            |_, counts| {
                total += counts.iter().sum::<u64>();
                Ok(())
            },
        )?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sequential;
    use pdm_core::parallelize;
    use pdm_loopir::parse::{parse_loop, parse_loop_with};

    fn three_way(src: &str, seed: u64) {
        let nest = parse_loop(src).unwrap();
        let plan = parallelize(&nest).unwrap();
        let mut m_seq = Memory::for_nest(&nest).unwrap();
        let mut m_cseq = Memory::for_nest(&nest).unwrap();
        let mut m_cpar = Memory::for_nest(&nest).unwrap();
        m_seq.init_deterministic(seed);
        m_cseq.init_deterministic(seed);
        m_cpar.init_deterministic(seed);
        let c1 = run_sequential(&nest, &m_seq).unwrap();
        // Both memories share one geometry, so one lowering serves both.
        let cp = CompiledPlan::compile(&nest, &plan, &m_cseq).unwrap();
        let c2 = cp.run_original_order(&nest, &m_cseq).unwrap();
        let c3 = cp.run_parallel(&m_cpar).unwrap();
        assert_eq!(c1, c2, "compiled sequential iteration count");
        assert_eq!(c1, c3, "compiled parallel iteration count");
        assert_eq!(
            m_seq.snapshot(),
            m_cseq.snapshot(),
            "compiled sequential memory"
        );
        assert_eq!(
            m_seq.snapshot(),
            m_cpar.snapshot(),
            "compiled parallel memory"
        );
    }

    #[test]
    fn paper_41_three_way() {
        three_way(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
            7,
        );
    }

    #[test]
    fn paper_42_three_way() {
        three_way(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[i1, 3*i2 + 2] = B[i1, i2] + 1;
               B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
             } }",
            3,
        );
    }

    #[test]
    fn workload_suite_three_way() {
        for src in [
            "for i = 1..=40 { A[i] = A[i - 1] + 1; }",
            "for i = 0..=40 { A[i] = i * 3; }",
            "for i = 0..=40 { A[2*i] = A[i] + 1; }",
            "for i = 1..=12 { for j = 1..=12 { A[i, j] = A[i - 1, j] + A[i, j - 1]; } }",
            "for i = 1..=12 { for j = 0..=12 { A[i, j] = A[i - 1, j] + 1; } }",
            "for i = 2..=30 { A[i] = A[i - 2] + 1; }",
            "for i = 0..=12 { for j = 0..=i { A[i, j] = A[i, j] + j; } }",
            "for i = 1..=5 { for j = 0..=5 { for k = 0..=5 {
               A[i, j, k] = A[i - 1, j, k] + 1;
             } } }",
        ] {
            three_way(src, 11);
        }
    }

    #[test]
    fn original_order_skips_empty_rows_of_the_nests_own_bounds() {
        // The nest's bounds leave rows empty at the start, in the middle
        // and at the end of outer ranges; Fourier–Motzkin would have
        // trimmed the outer ranges, the walk skips those rows instead.
        for src in [
            "for i = 0..=9 { for j = 3..=i - 2 { A[i, j] = A[i - 1, j] + A[i, j - 1]; } }",
            "for i = 0..=6 { for j = i..=3 { for k = 1..=j { A[j, k] = A[j, k - 1] + i; } } }",
        ] {
            three_way(src, 5);
            let nest = parse_loop(src).unwrap();
            let mem = Memory::for_nest(&nest).unwrap();
            let cp = CompiledPlan::compile(&nest, &parallelize(&nest).unwrap(), &mem).unwrap();
            let count = cp.run_original_order(&nest, &mem).unwrap();
            assert_eq!(count, nest.iterations().unwrap().len() as u64, "{src}");
        }
    }

    #[test]
    fn group_walks_cover_every_iteration_exactly_once() {
        for src in [
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[i1, 3*i2 + 2] = B[i1, i2] + 1;
               B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
             } }",
            "for i = 0..=99 { A[i] = i * 2; }",
        ] {
            let nest = parse_loop(src).unwrap();
            let plan = parallelize(&nest).unwrap();
            let walker = Walker::for_plan(&plan);
            // A bare geometry walk (no Memory) records original points.
            // Membership is checked against `ParallelPlan::group_of`
            // (T, then forward substitution for the offset), which
            // shares no code with the walker's residue and T⁻¹ deltas.
            let mut seen = Vec::new();
            let mut s = walker.new_scratch();
            let mut group = (Vec::new(), 0);
            let mut groups = 0u64;
            let total = walker
                .walk_range(0..u64::MAX, &mut s, |step| {
                    match step {
                        Visit::Group { id, prefix, offset } => {
                            assert_eq!(id, groups, "{src}: group ids run in order");
                            groups += 1;
                            group = (prefix.to_vec(), offset);
                        }
                        Visit::Iteration(sc) => {
                            let point = pdm_matrix::vec::IVec(sc.idx.clone());
                            let (p, off) = plan.group_of(&point).unwrap();
                            assert_eq!(p.0, group.0, "{src}: {point:?} prefix");
                            assert_eq!(off.0, walker.offsets()[group.1], "{src}: {point:?}");
                            seen.push(sc.idx.clone());
                        }
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(groups, crate::exec::group_count(&plan).unwrap());
            let expect: std::collections::HashSet<Vec<i64>> = nest
                .iterations()
                .unwrap()
                .into_iter()
                .map(|v| v.0)
                .collect();
            let got: std::collections::HashSet<Vec<i64>> = seen.iter().cloned().collect();
            assert_eq!(seen.len(), expect.len(), "duplicates in group walk");
            assert_eq!(total as usize, seen.len());
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn foreign_scratch_rejected() {
        let nest_a = parse_loop("for i = 0..=9 { A[i] = A[i] + 1; }").unwrap();
        let nest_b = parse_loop("for i = 0..=9 { A[i] = A[i] + B[i] + 1; }").unwrap();
        let mem_a = Memory::for_nest(&nest_a).unwrap();
        let mem_b = Memory::for_nest(&nest_b).unwrap();
        let plan_a = parallelize(&nest_a).unwrap();
        let cp_a = CompiledPlan::compile(&nest_a, &plan_a, &mem_a).unwrap();
        let program_b = Program::lower(&nest_b, mem_b.layout()).unwrap();
        let walker_b = Walker::for_nest(&nest_b, &program_b).unwrap();
        let run_b = |s: &mut PlanScratch| {
            walker_b.walk_range(0..1, s, |step| match step {
                Visit::Group { .. } => Ok(()),
                Visit::Iteration(sc) => program_b.exec(&mem_b, sc),
            })
        };
        let mut foreign = cp_a.new_scratch();
        assert!(matches!(run_b(&mut foreign), Err(RuntimeError::Core(_))));
        // A bare geometry scratch carries no flat offsets either.
        let mut bare = cp_a.walker().new_scratch();
        assert!(matches!(run_b(&mut bare), Err(RuntimeError::Core(_))));
    }

    #[test]
    fn thread_override_respected() {
        let nest = parse_loop_with(
            "for i1 = 0..N { for i2 = 0..N {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
            &[("N", 24)],
        )
        .unwrap();
        let plan = parallelize(&nest).unwrap();
        let mut m1 = Memory::for_nest(&nest).unwrap();
        let mut m2 = Memory::for_nest(&nest).unwrap();
        m1.init_deterministic(1);
        m2.init_deterministic(1);
        run_sequential(&nest, &m1).unwrap();
        let cp = CompiledPlan::compile(&nest, &plan, &m2).unwrap();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        pool.install(|| cp.run_parallel(&m2)).unwrap();
        assert_eq!(m1.snapshot(), m2.snapshot());
    }

    #[test]
    fn helpers_seek_into_a_prefix_dependent_space() {
        // Level 1 reads level 0 (z = 2, 45,150 one-iteration groups), and
        // the run outlives `rayon::SPAWN_AFTER`, so a helper joins and
        // seeks to the start of every block it claims.
        let nest =
            parse_loop("for i = 0..=299 { for j = 0..=i { A[i, j] = A[i, j] + j; } }").unwrap();
        let plan = parallelize(&nest).unwrap();
        assert_eq!(plan.doall_count(), 2);
        let mut m1 = Memory::for_nest(&nest).unwrap();
        let mut m2 = Memory::for_nest(&nest).unwrap();
        m1.init_deterministic(3);
        m2.init_deterministic(3);
        run_sequential(&nest, &m1).unwrap();
        let cp = CompiledPlan::compile(&nest, &plan, &m2).unwrap();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let (count, threads) = pool.install(|| {
            let count = cp.run_parallel(&m2).unwrap();
            (count, rayon::last_region_threads())
        });
        assert_eq!(count, 45_150);
        assert_eq!(threads, 2, "a helper must have joined the region");
        assert_eq!(m1.snapshot(), m2.snapshot());
    }
}
