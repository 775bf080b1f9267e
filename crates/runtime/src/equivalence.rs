//! Execution-equivalence harnesses.
//!
//! The strongest end-to-end statement the library can make about a
//! generated schedule: running it on rayon produces bit-identical array
//! contents to the original sequential loop, from identical initial data.
//! [`compare`] pins the compiled walker — in original order
//! ([`CompiledNest`]) and under the parallel plan ([`CompiledPlan`]) — to
//! the reference interpreter ([`run_sequential`]); [`compare_program`]
//! does the same for staged multi-kernel programs.

use crate::compile::{CompiledNest, CompiledPlan};
use crate::exec::run_sequential;
use crate::memory::Memory;
use crate::Result;
use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;

/// Outcome of an equivalence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// Iterations executed by the sequential reference.
    pub iterations: u64,
    /// Number of independent parallel groups the plan produced.
    pub groups: usize,
    /// Did both compiled runs reproduce the reference memory and
    /// iteration count?
    pub equal: bool,
}

/// Run `nest` through the sequential reference interpreter, the compiled
/// walker in original order, and the compiled walker under `plan` on
/// rayon, from identical deterministic initial memory, and compare both
/// compiled results against the reference.
pub fn compare(nest: &LoopNest, plan: &ParallelPlan, seed: u64) -> Result<EquivalenceReport> {
    let mut m_ref = Memory::for_nest(nest)?;
    let mut m_nest = Memory::for_nest(nest)?;
    let mut m_par = Memory::for_nest(nest)?;
    m_ref.init_deterministic(seed);
    m_nest.init_deterministic(seed);
    m_par.init_deterministic(seed);
    let c_ref = run_sequential(nest, &m_ref)?;
    let c_nest = CompiledNest::compile(nest, &m_nest)?.run(&m_nest)?;
    let c_par = CompiledPlan::compile(nest, plan, &m_par)?.run_parallel(&m_par)?;
    let reference = m_ref.snapshot();
    Ok(EquivalenceReport {
        iterations: c_ref,
        groups: crate::exec::group_count(plan)? as usize,
        equal: c_ref == c_nest
            && c_ref == c_par
            && reference == m_nest.snapshot()
            && reference == m_par.snapshot(),
    })
}

/// Convenience assertion for tests: analyze, plan, execute, compare.
pub fn assert_plan_equivalent(nest: &LoopNest, seed: u64) {
    let plan = pdm_core::parallelize(nest).expect("parallelize");
    let rep = compare(nest, &plan, seed).expect("execute");
    assert!(
        rep.equal,
        "compiled execution diverged from sequential ({} iterations, {} groups)",
        rep.iterations, rep.groups
    );
}

/// Outcome of a program (imperfect-nest) equivalence run: every
/// normalized executor against the imperfect reference interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramReport {
    /// Statement executions of the imperfect reference.
    pub reference_stmts: u64,
    /// Summed kernel iterations (identical across the program executors
    /// by construction).
    pub kernel_iterations: u64,
    /// Kernels in the plan.
    pub kernels: usize,
    /// Fissioned-sequential (kernels in order) matched the reference.
    pub fission_seq_equal: bool,
    /// Staged compiled-parallel matched the reference.
    pub compiled_par_equal: bool,
}

impl ProgramReport {
    /// All executors agreed with the reference.
    pub fn all_equal(&self) -> bool {
        self.fission_seq_equal && self.compiled_par_equal
    }
}

/// Run the imperfect reference interpreter, the fissioned-sequential
/// baseline, and the staged compiled-parallel engine from identical
/// deterministic initial memory, and compare every result against the
/// reference.
pub fn compare_program(
    imp: &pdm_loopir::imperfect::ImperfectNest,
    pp: &pdm_core::program::ProgramPlan,
    seed: u64,
) -> Result<ProgramReport> {
    let mut m_ref = Memory::for_imperfect(imp)?;
    let mut m_seq = Memory::for_imperfect(imp)?;
    let mut m_comp = Memory::for_imperfect(imp)?;
    m_ref.init_deterministic(seed);
    m_seq.init_deterministic(seed);
    m_comp.init_deterministic(seed);
    let reference_stmts = crate::staged::run_imperfect_sequential(imp, &m_ref)?;
    let c_seq = crate::staged::run_program_sequential(pp, &m_seq)?;
    let compiled = crate::staged::CompiledProgram::compile(pp, &m_comp)?;
    let c_comp = compiled.run_parallel(&m_comp)?;
    let reference = m_ref.snapshot();
    Ok(ProgramReport {
        reference_stmts,
        kernel_iterations: c_seq,
        kernels: pp.kernel_count(),
        fission_seq_equal: reference == m_seq.snapshot(),
        compiled_par_equal: reference == m_comp.snapshot() && c_seq == c_comp,
    })
}

/// Convenience assertion: normalize, plan, and require every program
/// executor to match the imperfect reference bit-for-bit.
pub fn assert_program_equivalent(imp: &pdm_loopir::imperfect::ImperfectNest, seed: u64) {
    let pp = pdm_core::program::parallelize_program(imp).expect("parallelize_program");
    let rep = compare_program(imp, &pp, seed).expect("execute");
    assert!(
        rep.all_equal(),
        "program executors diverged from the imperfect reference: {rep:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_loopir::parse::{parse_loop, parse_loop_with};

    #[test]
    fn paper_examples_equivalent() {
        for src in [
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[i1, 3*i2 + 2] = B[i1, i2] + 1;
               B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
             } }",
        ] {
            let nest = parse_loop(src).unwrap();
            assert_plan_equivalent(&nest, 1);
            assert_plan_equivalent(&nest, 99);
        }
    }

    #[test]
    fn workload_suite_equivalent() {
        for src in [
            // chain (fully sequential plan)
            "for i = 1..=40 { A[i] = A[i - 1] + 1; }",
            // independent
            "for i = 0..=40 { A[i] = i * 3; }",
            // variable-distance scan
            "for i = 0..=40 { A[2*i] = A[i] + 1; }",
            // classic stencil
            "for i = 1..=12 { for j = 1..=12 { A[i, j] = A[i - 1, j] + A[i, j - 1]; } }",
            // inner parallel
            "for i = 1..=12 { for j = 0..=12 { A[i, j] = A[i - 1, j] + 1; } }",
            // strided uniform
            "for i = 2..=30 { A[i] = A[i - 2] + 1; }",
            // triangular bounds
            "for i = 0..=12 { for j = 0..=i { A[i, j] = A[i, j] + j; } }",
            // 3-deep mixed
            "for i = 1..=5 { for j = 0..=5 { for k = 0..=5 {
               A[i, j, k] = A[i - 1, j, k] + 1;
             } } }",
        ] {
            let nest = parse_loop(src).unwrap();
            assert_plan_equivalent(&nest, 7);
        }
    }

    #[test]
    fn larger_sizes_equivalent() {
        let nest = parse_loop_with(
            "for i1 = 0..N { for i2 = 0..N {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
            &[("N", 40)],
        )
        .unwrap();
        assert_plan_equivalent(&nest, 3);
    }

    #[test]
    fn report_fields() {
        let nest = parse_loop("for i = 0..=9 { A[i] = 1; }").unwrap();
        let plan = pdm_core::parallelize(&nest).unwrap();
        let rep = compare(&nest, &plan, 0).unwrap();
        assert_eq!(rep.iterations, 10);
        assert_eq!(rep.groups, 10); // fully parallel: one group per point
        assert!(rep.equal);
    }
}
