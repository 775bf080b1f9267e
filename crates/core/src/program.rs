//! Multi-kernel **program plans**: the imperfect-nest counterpart of
//! [`crate::plan::ParallelPlan`].
//!
//! An imperfect nest normalizes into an ordered sequence of perfect
//! kernels ([`pdm_loopir::normalize::to_perfect_kernels`]); this module
//! runs the paper's whole pipeline — analysis, Algorithm 1, Theorem-2
//! partitioning, Fourier–Motzkin bounds — **per kernel** and sequences
//! the kernels by their dependence DAG:
//!
//! * kernels are grouped into **stages** (longest-path levels of the
//!   DAG): two kernels in the same stage have no dependence path between
//!   them and may run concurrently;
//! * an executor needs a barrier **only between stages** — i.e. only
//!   where a DAG edge forces one — never between independent kernels.
//!
//! Identical kernels (same [`structural hash`], verified by equality)
//! are planned once and share the plan — the template cache's idea applied
//! within one program, which pays off when fission emits several
//! same-shaped statement kernels.
//!
//! [`structural hash`]: LoopNest::structural_hash

use crate::plan::{parallelize, ParallelPlan};
use crate::{CoreError, Result};
use pdm_loopir::imperfect::ImperfectNest;
use pdm_loopir::nest::LoopNest;
use pdm_loopir::normalize::{to_perfect_kernels, NormalizedProgram, PerfectKernel};

/// One kernel of a program plan: the perfect nest plus its own complete
/// parallel schedule.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// The kernel (nest + origin position in the imperfect source).
    pub kernel: PerfectKernel,
    /// The kernel's parallel plan, exactly as [`parallelize`] builds it.
    pub plan: ParallelPlan,
}

impl KernelPlan {
    /// The kernel's nest.
    pub fn nest(&self) -> &LoopNest {
        &self.kernel.nest
    }
}

/// A complete schedule for a normalized imperfect nest: per-kernel plans
/// plus the inter-kernel dependence DAG and its barrier stages.
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    kernels: Vec<KernelPlan>,
    edges: Vec<(usize, usize)>,
    stages: Vec<Vec<usize>>,
}

/// Normalize an imperfect nest and plan every kernel: the one-call
/// imperfect analogue of [`parallelize`].
pub fn parallelize_program(imp: &ImperfectNest) -> Result<ProgramPlan> {
    let normalized = to_perfect_kernels(imp).map_err(CoreError::Ir)?;
    plan_program(normalized)
}

/// Plan an already-normalized program. Kernels with identical structure
/// are planned once (hash-keyed, equality-verified — an in-program
/// template cache).
pub fn plan_program(normalized: NormalizedProgram) -> Result<ProgramPlan> {
    let NormalizedProgram { kernels, edges } = normalized;
    let mut planned: Vec<(u64, LoopNest, ParallelPlan)> = Vec::new();
    let mut out = Vec::with_capacity(kernels.len());
    for kernel in kernels {
        let h = kernel.nest.structural_hash();
        let plan = match planned
            .iter()
            .find(|(ph, pn, _)| *ph == h && *pn == kernel.nest)
        {
            Some((_, _, p)) => p.clone(),
            None => {
                let p = parallelize(&kernel.nest)?;
                planned.push((h, kernel.nest.clone(), p.clone()));
                p
            }
        };
        out.push(KernelPlan { kernel, plan });
    }
    let stages = compute_stages(out.len(), &edges)?;
    Ok(ProgramPlan {
        kernels: out,
        edges,
        stages,
    })
}

/// Longest-path levels of the (forward-edged) kernel DAG. Every edge
/// `(f, t)` has `f < t`, so one ascending pass suffices; an edge
/// violating that order is an invariant error, not a panic.
fn compute_stages(n: usize, edges: &[(usize, usize)]) -> Result<Vec<Vec<usize>>> {
    let mut level = vec![0usize; n];
    for &(f, t) in edges {
        if f >= t || t >= n {
            return Err(CoreError::Invariant("kernel DAG edge is not forward"));
        }
        level[t] = level[t].max(level[f] + 1);
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut stages = vec![Vec::new(); max_level + 1];
    for (k, &l) in level.iter().enumerate() {
        stages[l].push(k);
    }
    Ok(stages)
}

impl ProgramPlan {
    /// The kernels in sequential (source) order.
    pub fn kernels(&self) -> &[KernelPlan] {
        &self.kernels
    }

    /// Inter-kernel dependence edges `(from, to)`, all forward.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Barrier stages: kernels of one stage have no dependence path
    /// between them; stage `s + 1` must wait for stage `s`.
    pub fn stages(&self) -> &[Vec<usize>] {
        &self.stages
    }

    /// Number of kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Number of barriers an executor needs: one fewer than the stage
    /// count (barriers exist only at DAG edges).
    pub fn barrier_count(&self) -> usize {
        self.stages.len().saturating_sub(1)
    }

    /// Is the kernel DAG acyclic and consistent with the stage order?
    /// (Always true by construction; exposed for the oracle tests.)
    pub fn validate_dag(&self) -> bool {
        let mut stage_of = vec![0usize; self.kernels.len()];
        for (s, ks) in self.stages.iter().enumerate() {
            for &k in ks {
                stage_of[k] = s;
            }
        }
        self.edges
            .iter()
            .all(|&(f, t)| f < t && stage_of[f] < stage_of[t])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_loopir::parse::parse_imperfect;

    #[test]
    fn independent_kernels_share_a_stage() {
        // Pre writes B, post writes C, body writes A: three kernels, no
        // edges, one stage, zero barriers.
        let imp = parse_imperfect(
            "for i = 0..=5 {
               B[i, 0] = i;
               for j = 0..=5 { A[i, j] = A[i, j] + 1; }
               C[0, i] = i;
             }",
        )
        .unwrap();
        let pp = parallelize_program(&imp).unwrap();
        assert_eq!(pp.kernel_count(), 3);
        assert!(pp.edges().is_empty());
        assert_eq!(pp.stages().len(), 1);
        assert_eq!(pp.barrier_count(), 0);
        assert!(pp.validate_dag());
    }

    #[test]
    fn dependent_kernels_get_barriers() {
        // Pre initializes A's column 0; body reads it: edge 0 -> 1.
        let imp = parse_imperfect(
            "for i = 0..=5 { A[i, 0] = i; for j = 1..=5 { A[i, j] = A[i, 0] + j; } }",
        )
        .unwrap();
        let pp = parallelize_program(&imp).unwrap();
        assert_eq!(pp.kernel_count(), 2);
        assert_eq!(pp.edges(), &[(0, 1)]);
        assert_eq!(pp.stages().len(), 2);
        assert_eq!(pp.barrier_count(), 1);
        assert!(pp.validate_dag());
    }

    #[test]
    fn identical_kernels_plan_once() {
        // Pre and post write disjoint *rows* of B with the same shape:
        // both fission into structurally identical depth-1 kernels
        // differing only in offsets — not identical, so both plan; but
        // two *identical* statements do share.
        let imp = parse_imperfect(
            "for i = 0..=5 {
               B[i, 0] = B[i, 0] + 1;
               for j = 0..=5 { A[i, j] = A[i, j] + 1; }
             }",
        )
        .unwrap();
        let pp = parallelize_program(&imp).unwrap();
        assert_eq!(pp.kernel_count(), 2);
        // Each kernel's plan drives its own nest — depth must match.
        for kp in pp.kernels() {
            assert_eq!(kp.plan.depth(), kp.nest().depth());
        }
    }

    #[test]
    fn stage_computation_rejects_backward_edges() {
        assert!(compute_stages(2, &[(1, 0)]).is_err());
        assert_eq!(
            compute_stages(3, &[(0, 2), (1, 2)]).unwrap(),
            vec![vec![0, 1], vec![2]]
        );
    }
}
