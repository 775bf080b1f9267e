//! Staged execution of multi-kernel [`ProgramPlan`]s — imperfect nests,
//! end to end.
//!
//! A normalized imperfect nest is a sequence of perfect kernels with a
//! dependence DAG (`pdm-core`'s [`ProgramPlan`]). This module supplies
//! every executor tier for that shape:
//!
//! * [`run_imperfect_sequential`] — the **reference semantics**: walk
//!   the imperfect nest itself, recursively, executing `pre` / inner
//!   loop / `post` in exact source order. Slow and obvious on purpose
//!   (the imperfect analogue of [`crate::exec::run_sequential`]).
//! * [`run_program_sequential`] — the fissioned baseline: kernels in
//!   source order, each interpreted in original lexicographic order.
//! * [`CompiledProgram`] — staged parallel execution: kernels grouped by
//!   DAG **stage**; within a stage, the kernels share one split of one
//!   range per pool block (`schedule::task_target`), in proportion to
//!   their group counts, and their ranges form one task list for the
//!   crate's stage driver (`schedule::run_stages`), so
//!   independent kernels' groups interleave freely across workers. A
//!   barrier exists **only between stages** — i.e. only where a DAG
//!   edge forces one.
//!
//! All kernels share one [`Memory`] sized by [`Memory::for_imperfect`]
//! (array ids are stable across kernels by construction). The
//! correctness claim — staged parallel execution is bit-identical to the
//! imperfect reference — is pinned by [`crate::equivalence`]'s program
//! harness and validated at runtime by
//! [`crate::checked::run_program_parallel_checked`].

use crate::compile::{CompiledPlan, PlanScratch};
use crate::exec;
use crate::memory::Memory;
use crate::schedule;
use crate::Result;
use pdm_core::program::ProgramPlan;
use pdm_loopir::imperfect::ImperfectNest;
use std::ops::Range;

/// Execute the imperfect nest in its original, fully interleaved source
/// order: at every iteration of level `k`, run `pre[k]`, then the inner
/// loop, then `post[k]`. Returns the number of **statement executions**
/// (pre/post statements run once per *outer* iteration, so innermost
/// iteration counts would undercount the work).
pub fn run_imperfect_sequential(imp: &ImperfectNest, mem: &Memory) -> Result<u64> {
    let n = imp.depth();
    let mut idx = vec![0i64; n];
    let mut count = 0u64;
    walk_imperfect(imp, mem, &mut idx, 0, &mut count)?;
    Ok(count)
}

fn walk_imperfect(
    imp: &ImperfectNest,
    mem: &Memory,
    idx: &mut Vec<i64>,
    level: usize,
    count: &mut u64,
) -> Result<()> {
    let n = imp.depth();
    // Bounds of level `k` read indices `< k` only; deeper slots may hold
    // stale values from a previous subtree, which is fine for the same
    // reason.
    let lo = imp.lower(level).eval(idx)?;
    let hi = imp.upper(level).eval(idx)?;
    for v in lo..=hi {
        idx[level] = v;
        if level + 1 == n {
            for stmt in imp.body() {
                exec::exec_stmt(stmt, mem, idx)?;
                *count += 1;
            }
        } else {
            for stmt in imp.pre(level) {
                exec::exec_stmt(stmt, mem, idx)?;
                *count += 1;
            }
            walk_imperfect(imp, mem, idx, level + 1, count)?;
            for stmt in imp.post(level) {
                exec::exec_stmt(stmt, mem, idx)?;
                *count += 1;
            }
        }
    }
    Ok(())
}

/// Execute a program plan **sequentially**: kernels in source order,
/// each interpreted in original lexicographic order (the
/// fissioned-sequential baseline of the differential tests). Returns
/// the summed kernel iteration count.
pub fn run_program_sequential(pp: &ProgramPlan, mem: &Memory) -> Result<u64> {
    let mut total = 0u64;
    for kp in pp.kernels() {
        total += exec::run_sequential(kp.nest(), mem)?;
    }
    Ok(total)
}

/// A program plan lowered to per-kernel compiled engines, ready for
/// staged parallel execution.
pub struct CompiledProgram {
    kernels: Vec<CompiledPlan>,
    stages: Vec<Vec<usize>>,
}

impl CompiledProgram {
    /// Lower every kernel of the plan against the **shared** program
    /// memory (allocate it with [`Memory::for_imperfect`] — per-kernel
    /// memories would disagree on array geometry).
    pub fn compile(pp: &ProgramPlan, mem: &Memory) -> Result<CompiledProgram> {
        let kernels = pp
            .kernels()
            .iter()
            .map(|kp| CompiledPlan::compile(kp.nest(), &kp.plan, mem))
            .collect::<Result<Vec<_>>>()?;
        Ok(CompiledProgram {
            kernels,
            stages: pp.stages().to_vec(),
        })
    }

    /// Kernel count.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// The lowered kernels, in plan order.
    pub(crate) fn kernels(&self) -> &[CompiledPlan] {
        &self.kernels
    }

    /// Per stage, the `(kernel, group range)` list of every kernel in
    /// the stage. The stage is split once for `threads` workers: its
    /// kernels share one range per pool block
    /// ([`schedule::task_target`]) in proportion to their group counts,
    /// each non-empty kernel at least one, so a stage of `k` kernels
    /// yields at most `task_target + k` ranges.
    pub(crate) fn stage_tasks(&self, threads: usize) -> Result<Vec<Vec<(usize, Range<u64>)>>> {
        let target = schedule::task_target(threads) as u128;
        self.stages
            .iter()
            .map(|stage| {
                let counts = stage
                    .iter()
                    .map(|&k| self.kernels[k].group_count())
                    .collect::<Result<Vec<u64>>>()?;
                let total = counts.iter().map(|&c| u128::from(c)).sum::<u128>().max(1);
                let mut tasks = Vec::new();
                for (&k, &c) in stage.iter().zip(&counts) {
                    let parts = (u128::from(c) * target / total).max(1) as u64;
                    tasks.extend(schedule::split(c, parts).map(|r| (k, r)));
                }
                Ok(tasks)
            })
            .collect()
    }

    /// One worker's walk scratches, one per kernel.
    pub(crate) fn new_scratches(&self) -> Vec<PlanScratch> {
        self.kernels.iter().map(CompiledPlan::new_scratch).collect()
    }

    /// Execute the whole program with staged compiled parallelism:
    /// within a stage, every kernel's group ranges share one rayon
    /// region (each worker reuses one walk scratch per kernel);
    /// barriers exist only at stage boundaries. Returns the summed
    /// kernel iteration count.
    pub fn run_parallel(&self, mem: &Memory) -> Result<u64> {
        let stages = self.stage_tasks(rayon::current_num_threads())?;
        let mut total = 0u64;
        schedule::run_stages(
            &stages,
            || self.new_scratches(),
            |scratches, (k, task)| {
                self.kernels[*k].run_range(mem, task.clone(), &mut scratches[*k])
            },
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
    use pdm_core::program::parallelize_program;
    use pdm_loopir::parse::parse_imperfect;

    fn three_way(src: &str, seed: u64) {
        let imp = parse_imperfect(src).unwrap();
        let pp = parallelize_program(&imp).unwrap();
        let mut m_ref = Memory::for_imperfect(&imp).unwrap();
        let mut m_seq = Memory::for_imperfect(&imp).unwrap();
        let mut m_comp = Memory::for_imperfect(&imp).unwrap();
        m_ref.init_deterministic(seed);
        m_seq.init_deterministic(seed);
        m_comp.init_deterministic(seed);
        run_imperfect_sequential(&imp, &m_ref).unwrap();
        let c_seq = run_program_sequential(&pp, &m_seq).unwrap();
        let compiled = CompiledProgram::compile(&pp, &m_comp).unwrap();
        let c_comp = compiled.run_parallel(&m_comp).unwrap();
        assert_eq!(c_seq, c_comp, "compiled iteration count diverged");
        assert_eq!(m_ref.snapshot(), m_seq.snapshot(), "fissioned-sequential");
        assert_eq!(m_ref.snapshot(), m_comp.snapshot(), "compiled-parallel");
    }

    #[test]
    fn a_stage_of_two_kernels_is_split_once() {
        // Two independent kernels, 64 and 4,096 groups, in one stage: they
        // share one range per pool block, each at least one range.
        let imp = parse_imperfect(
            "for i = 0..=63 {
               B[i, 0] = i;
               for j = 0..=63 { C[i, j] = i + j; }
             }",
        )
        .unwrap();
        let pp = parallelize_program(&imp).unwrap();
        let mem = Memory::for_imperfect(&imp).unwrap();
        let program = CompiledProgram::compile(&pp, &mem).unwrap();
        assert_eq!(program.stages, vec![vec![0, 1]], "one stage of two kernels");
        for threads in 1..=4 {
            let stages = program.stage_tasks(threads).unwrap();
            for (stage, tasks) in program.stages.iter().zip(&stages) {
                let bound = schedule::task_target(threads) + stage.len();
                assert!(tasks.len() <= bound, "{} ranges at {threads}", tasks.len());
                for &k in stage {
                    let mut next = 0;
                    for (_, r) in tasks.iter().filter(|(kk, _)| *kk == k) {
                        assert_eq!(r.start, next, "kernel {k} at {threads} threads");
                        assert!(r.start < r.end);
                        next = r.end;
                    }
                    assert_eq!(next, program.kernels[k].group_count().unwrap());
                }
            }
        }
    }

    #[test]
    fn initialization_prologue_program() {
        three_way(
            "for i = 0..=8 {
               B[i, 0] = i;
               for j = 1..=8 { A[i, j] = A[i, j - 1] + B[i, 0]; }
             }",
            7,
        );
    }

    #[test]
    fn sunk_cycle_program() {
        three_way(
            "for i = 1..=6 {
               A[i, 0] = A[i - 1, 6] + 1;
               for j = 1..=6 { A[i, j] = A[i, j - 1] + 1; }
             }",
            3,
        );
    }

    #[test]
    fn epilogue_and_triangular_program() {
        three_way(
            "for i = 0..=6 {
               B[i, 0] = i;
               for j = 0..=i { A[i, j] = A[i, j] + B[i, 0]; }
               C[0, i] = i + 1;
             }",
            11,
        );
    }

    #[test]
    fn depth3_imperfect_program() {
        three_way(
            "for i = 0..=4 {
               B[i, 0, 0] = i;
               for j = 0..=4 {
                 C[i, j, 0] = B[i, 0, 0] + j;
                 for k = 0..=4 { A[i, j, k] = A[i, j, k] + C[i, j, 0]; }
               }
             }",
            5,
        );
    }
}
