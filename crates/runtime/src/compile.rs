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
//! [`Program`] nor a [`Memory`]. [`Walker::walk`] is generic over a
//! per-iteration visitor (monomorphised, never `dyn`): execution runs
//! the bytecode, the race checker ([`crate::checked`]) logs the flat
//! cells the bytecode touches, the inspector ([`crate::inspector`])
//! summarises `(array, subscript)` touches from the original indices,
//! and test oracles record the points they see.
//!
//! Scheduling: [`CompiledPlan::run_parallel`] splits the group *index
//! space* (doall-prefix values × partition offsets) into contiguous
//! ranges with steal-aware sizing
//! ([`crate::schedule::plan_range_tasks`] — finer chunks when per-group
//! cost is skewed) and hands them to the crate's one stage driver; each
//! task arrives with a pre-positioned streaming
//! [`crate::schedule::GroupCursor`] and walks forward reusing one
//! [`PlanScratch`] — the group list is never materialized.

use crate::memory::Memory;
use crate::program::{Program, Scratch};
use crate::schedule::{self, PrefixBounds, RangeTask, Schedule};
use crate::{Result, RuntimeError};
use pdm_core::partition::Partitioning;
use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;
use pdm_matrix::num::{ceil_div, floor_div};
use pdm_matrix::MatrixError;
use pdm_poly::bounds::{BoundExpr, LoopBounds};

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
/// `max`/`min` candidate evaluated per level entry is necessary. The
/// [`CompiledBounds::rows`] count is therefore also the per-level
/// dot-product work, the quantity the `bench_fm` gate tracks.
#[derive(Debug, Clone)]
pub struct CompiledBounds {
    levels: Vec<(Vec<CBound>, Vec<CBound>)>,
}

impl CompiledBounds {
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

    /// Total bound rows across all levels (lowers + uppers).
    pub fn rows(&self) -> usize {
        self.levels.iter().map(|(l, u)| l.len() + u.len()).sum()
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

    /// Does level `k`'s range read any of the first `z` variables
    /// specifically? Drives cost-skew detection
    /// ([`crate::schedule::cost_skewed`]): only trailing levels reading
    /// a *doall prefix* variable make per-group cost uneven.
    pub fn reads_prefix(&self, k: usize, z: usize) -> bool {
        let (lowers, uppers) = &self.levels[k];
        lowers
            .iter()
            .chain(uppers)
            .any(|b| b.coeffs.iter().take(z).any(|&c| c != 0))
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

impl PrefixBounds for CompiledBounds {
    fn dim(&self) -> usize {
        CompiledBounds::dim(self)
    }

    fn level_range(&self, level: usize, x: &[i64]) -> Result<(i64, i64)> {
        self.range(level, x)
    }

    fn prefix_dependent(&self, level: usize) -> bool {
        CompiledBounds::prefix_dependent(self, level)
    }

    fn reads_prefix(&self, level: usize, z: usize) -> bool {
        CompiledBounds::reads_prefix(self, level, z)
    }
}

/// Reusable walk state: transformed point, lattice coordinates, level
/// uppers, and the visited [`Scratch`] (original indices, flat offsets,
/// operand stack).
#[derive(Debug, Clone)]
pub struct PlanScratch {
    y: Vec<i64>,
    q: Vec<i64>,
    hi: Vec<i64>,
    inner: Scratch,
}

/// The compiled group walker: the geometry of a (possibly transformed)
/// iteration space, independent of any body or memory.
///
/// It walks one group — a doall-prefix value plus a Theorem-2 offset —
/// in transformed lexicographic order, keeping the original indices
/// (and, once [`Program`] accesses are attached, every access's flat
/// offset) up to date by strength reduction, and hands each iteration
/// to a visitor. Build one with [`Walker::for_plan`] to walk a plan
/// without a [`Memory`] (the inspector does); [`CompiledPlan`] and
/// [`CompiledNest`] carry one with their program's accesses attached.
#[derive(Debug, Clone)]
pub struct Walker {
    /// Walk-space dimension (== nest depth).
    n: usize,
    /// Leading walk levels fixed per group (doall prefix; 0 when the
    /// walker drives the original nest).
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
    /// attached: identity transform, no doall prefix, one group.
    fn for_nest(nest: &LoopNest, program: &Program) -> Result<Walker> {
        let n = nest.depth();
        let bounds = LoopBounds::from_system(&nest.iteration_system()?)?;
        let dorig: Vec<Vec<i64>> = (0..n)
            .map(|l| (0..n).map(|i| i64::from(l == i)).collect())
            .collect();
        Ok(Walker {
            n,
            z: 0,
            bounds: CompiledBounds::compile(&bounds),
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

    /// Split the group space into steal-aware range tasks for `threads`
    /// workers ([`crate::schedule::plan_range_tasks`]).
    pub(crate) fn tasks(
        &self,
        sched: &Schedule,
        threads: usize,
    ) -> Result<Vec<RangeTask<'_, CompiledBounds>>> {
        schedule::plan_range_tasks(&self.bounds, self.z, self.offsets.len(), sched, threads)
    }

    /// One range task over groups `start..end`, positioned by a seek.
    pub fn range(&self, start: u64, end: u64) -> Result<RangeTask<'_, CompiledBounds>> {
        RangeTask::new(&self.bounds, self.z, self.offsets.len(), start, end)
    }

    /// Walk state around `inner`, positioned at the origin.
    fn scratch_with(&self, inner: Scratch) -> PlanScratch {
        PlanScratch {
            y: vec![0; self.n],
            q: vec![0; self.n - self.z],
            hi: vec![0; self.n],
            inner,
        }
    }

    /// Walk state for a bare geometry: original indices only.
    pub fn new_scratch(&self) -> PlanScratch {
        self.scratch_with(Scratch::indices_only(self.n))
    }

    /// Advance walk level `ℓ` by `delta`, updating the transformed point,
    /// the original indices, and every flat offset incrementally.
    #[inline]
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

    /// Walk every iteration of the group `(prefix, offsets[o])` in
    /// transformed lexicographic order, calling `visit` once per
    /// iteration with the up-to-date [`Scratch`]. Returns the iteration
    /// count.
    pub fn walk<V>(
        &self,
        prefix: &[i64],
        o: usize,
        s: &mut PlanScratch,
        mut visit: V,
    ) -> Result<u64>
    where
        V: FnMut(&mut Scratch) -> Result<()>,
    {
        // A scratch from a different walker would silently corrupt the
        // strength-reduced offsets; reject it before visiting anything.
        if s.y.len() != self.n || s.inner.flats.len() != self.flat_count() {
            return Err(RuntimeError::Core(
                "scratch was allocated for a different compiled walker".into(),
            ));
        }
        let (n, z) = (self.n, self.z);
        debug_assert_eq!(prefix.len(), z);
        for k in 0..n {
            let target = if k < z { prefix[k] } else { 0 };
            self.shift(s, k, target - s.y[k]);
        }
        if z == n {
            // Fully parallel: the group is a single iteration.
            visit(&mut s.inner)?;
            return Ok(1);
        }
        let offset = &self.offsets[o];
        let mut count = 0u64;
        let mut level = z;
        let mut entering = true;
        loop {
            if entering {
                let (lo, hi) = self.bounds.range(level, &s.y)?;
                let kk = level - z;
                let step = self.steps[kk];
                let start = if self.partitioned {
                    let r = self.residue(offset, &s.q, kk)?;
                    let v = Partitioning::first_at_least(lo, r, step)?;
                    s.q[kk] = (v - r) / step;
                    v
                } else {
                    lo
                };
                if start <= hi {
                    s.hi[level] = hi;
                    self.shift(s, level, start - s.y[level]);
                    if level + 1 < n {
                        level += 1;
                        continue;
                    }
                    // Innermost: visit the whole row.
                    loop {
                        visit(&mut s.inner)?;
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
                // Level exhausted: pop, try to bump an outer level.
                if level == z {
                    return Ok(count);
                }
                level -= 1;
                let kk = level - z;
                let step = self.steps[kk];
                if (s.y[level] as i128 + step as i128) <= s.hi[level] as i128 {
                    self.shift(s, level, step);
                    s.q[kk] += 1;
                    level += 1;
                    entering = true;
                }
            }
        }
    }

    /// Walk every group of `task`, calling `visit(group_id, scratch)`
    /// once per iteration. Returns the iteration count.
    pub fn walk_task<V>(
        &self,
        task: &RangeTask<'_, CompiledBounds>,
        s: &mut PlanScratch,
        mut visit: V,
    ) -> Result<u64>
    where
        V: FnMut(u64, &mut Scratch) -> Result<()>,
    {
        let mut total = 0u64;
        task.for_each(|gid, prefix, o| {
            total += self.walk(prefix, o, s, |sc| visit(gid, sc))?;
            Ok(())
        })?;
        Ok(total)
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

/// A nest compiled for **original-order sequential** execution: the
/// same walker as [`CompiledPlan`] with the identity transform and one
/// group.
#[derive(Debug, Clone)]
pub struct CompiledNest {
    program: Program,
    walker: Walker,
}

impl CompiledNest {
    /// Lower the nest against `mem`'s array geometry.
    pub fn compile(nest: &LoopNest, mem: &Memory) -> Result<CompiledNest> {
        let program = Program::compile(nest, mem)?;
        let walker = Walker::for_nest(nest, &program)?;
        Ok(CompiledNest { program, walker })
    }

    /// Allocate reusable walk state.
    pub fn new_scratch(&self) -> PlanScratch {
        self.walker.scratch_with(self.program.new_scratch())
    }

    /// Bound rows the compiled walker evaluates across all levels.
    pub fn bound_rows(&self) -> usize {
        self.walker.bounds.rows()
    }

    /// Execute the nest in original lexicographic order. Returns the
    /// iteration count.
    pub fn run(&self, mem: &Memory) -> Result<u64> {
        let mut s = self.new_scratch();
        self.run_with_scratch(mem, &mut s)
    }

    /// [`CompiledNest::run`] reusing caller-provided state.
    pub fn run_with_scratch(&self, mem: &Memory, s: &mut PlanScratch) -> Result<u64> {
        self.walker.walk(&[], 0, s, |sc| self.program.exec(mem, sc))
    }
}

/// A `(LoopNest, ParallelPlan)` pair lowered to the compiled engine,
/// ready for chunked parallel execution.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    program: Program,
    walker: Walker,
}

impl CompiledPlan {
    /// Lower the pair against `mem`'s array geometry. The plan must have
    /// been derived from the same nest.
    pub fn compile(nest: &LoopNest, plan: &ParallelPlan, mem: &Memory) -> Result<CompiledPlan> {
        let program = Program::compile(nest, mem)?;
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

    /// Bound rows the compiled walker evaluates across all levels.
    pub fn bound_rows(&self) -> usize {
        self.walker.bounds.rows()
    }

    /// Exact number of independent groups (prefix values × offsets),
    /// computed without materializing them ([`crate::schedule::group_count`]).
    pub fn group_count(&self) -> Result<u64> {
        let w = &self.walker;
        schedule::group_count(&w.bounds, w.z, w.offsets.len())
    }

    /// Allocate reusable walk state.
    pub fn new_scratch(&self) -> PlanScratch {
        self.walker.scratch_with(self.program.new_scratch())
    }

    /// Execute every group of one range task with a fresh scratch.
    /// Returns the iteration count.
    pub(crate) fn run_task(
        &self,
        mem: &Memory,
        task: &RangeTask<'_, CompiledBounds>,
    ) -> Result<u64> {
        let mut s = self.new_scratch();
        self.walker
            .walk_task(task, &mut s, |_, sc| self.program.exec(mem, sc))
    }

    /// Execute all groups **in parallel** with streaming range
    /// scheduling and the environment-configured [`Schedule`]
    /// (`PDM_CHUNKS_PER_THREAD` / `PDM_STEAL_CHUNKS_PER_THREAD`): the
    /// group index space is split into contiguous ranges — finer when
    /// per-group cost is skewed ([`crate::schedule::cost_skewed`]), so
    /// the work-stealing executor always finds chunks to steal — with a
    /// pre-positioned cursor per range
    /// ([`crate::schedule::plan_range_tasks`]) and one reused scratch
    /// per task; zero up-front group materialization. Returns the total
    /// iteration count.
    pub fn run_parallel(&self, mem: &Memory) -> Result<u64> {
        self.run_parallel_scheduled(mem, crate::config::RuntimeConfig::global().schedule())
    }

    /// [`CompiledPlan::run_parallel`] with an explicit [`Schedule`]: one
    /// stage of range tasks through `schedule::run_stages`.
    pub fn run_parallel_scheduled(&self, mem: &Memory, sched: Schedule) -> Result<u64> {
        let tasks = self.walker.tasks(&sched, rayon::current_num_threads())?;
        let mut total = 0u64;
        schedule::run_stages(
            std::slice::from_ref(&tasks),
            |task| self.run_task(mem, task),
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
        let cn = CompiledNest::compile(&nest, &m_cseq).unwrap();
        let c2 = cn.run(&m_cseq).unwrap();
        let cp = CompiledPlan::compile(&nest, &plan, &m_cpar).unwrap();
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
            let task = walker.range(0, u64::MAX).unwrap();
            let mut total = 0u64;
            let mut groups = 0u64;
            task.for_each(|_, prefix, o| {
                groups += 1;
                total += walker.walk(prefix, o, &mut s, |sc| {
                    let point = pdm_matrix::vec::IVec(sc.idx.clone());
                    let (p, off) = plan.group_of(&point).unwrap();
                    assert_eq!(p.as_slice(), prefix, "{src}: {point:?} prefix");
                    assert_eq!(off.as_slice(), &walker.offsets()[o][..], "{src}: {point:?}");
                    seen.push(sc.idx.clone());
                    Ok(())
                })?;
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
        let cn_b = CompiledNest::compile(&nest_b, &mem_b).unwrap();
        let mut foreign = cp_a.new_scratch();
        assert!(matches!(
            cn_b.run_with_scratch(&mem_b, &mut foreign),
            Err(RuntimeError::Core(_))
        ));
        // A bare geometry scratch carries no flat offsets either.
        let mut bare = cp_a.walker().new_scratch();
        assert!(matches!(
            cn_b.run_with_scratch(&mem_b, &mut bare),
            Err(RuntimeError::Core(_))
        ));
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
}
