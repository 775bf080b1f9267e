//! The end-to-end parallelization plan.
//!
//! [`parallelize`] chains the whole paper: PDM analysis → Algorithm 1
//! (legal unimodular transformation exposing `n − rank` outer `doall`
//! loops) → Theorem 2 partitioning of the remaining full-rank block
//! (`det` further independent groups) → Fourier–Motzkin bounds for the
//! transformed space. The resulting [`ParallelPlan`] is a complete,
//! executable schedule description consumed by `pdm-runtime` and printed
//! by [`crate::codegen`].
//!
//! The transformed-space bound rows are **irredundant**: the substituted
//! iteration polyhedron is exactly pruned before bound extraction and
//! `LoopBounds::from_system` prunes every intermediate FM system, so the
//! `max`/`min` candidate lists the runtime evaluates per level carry no
//! implied rows (see `pdm_poly::bounds` for the exactness argument).

use crate::algorithm1::algorithm1;
use crate::partition::Partitioning;
use crate::pdm::{analyze, PdmAnalysis};
use crate::{CoreError, Result};
use pdm_loopir::nest::LoopNest;
use pdm_matrix::mat::IMat;
use pdm_matrix::unimodular::Unimodular;
use pdm_matrix::vec::IVec;
use pdm_poly::bounds::LoopBounds;
use pdm_poly::expr::AffineExpr;

/// A complete parallel schedule for a loop nest.
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    analysis: PdmAnalysis,
    transform: Unimodular,
    inverse: Unimodular,
    transformed_pdm: IMat,
    doall_prefix: usize,
    partition: Option<Partitioning>,
    bounds: LoopBounds,
    depth: usize,
}

/// The bounds-independent half of a plan: everything the paper derives
/// from the PDM alone — the legal transformation, its inverse, the
/// transformed PDM, the doall prefix, and the Theorem-2 partitioning.
/// Computed once per nest *shape* by [`crate::template::plan_template`]
/// and per nest by [`parallelize`]; both attach bounds afterwards.
pub(crate) struct PlanStructure {
    pub(crate) transform: Unimodular,
    pub(crate) inverse: Unimodular,
    pub(crate) transformed_pdm: IMat,
    pub(crate) doall_prefix: usize,
    pub(crate) partition: Option<Partitioning>,
}

/// Derive the [`PlanStructure`] from an analysis (Algorithm 1 + the
/// Theorem-2 partitioning of the trailing full-rank block when it buys
/// parallelism).
pub(crate) fn derive_structure(depth: usize, analysis: &PdmAnalysis) -> Result<PlanStructure> {
    let zeroed = algorithm1(analysis.pdm())?;
    let rho = analysis.rank();

    // Partition the trailing full-rank block when it buys parallelism.
    let partition = if rho > 0 {
        let sub = zeroed
            .transformed
            .submatrix(0, rho, zeroed.zero_cols, depth);
        let p = Partitioning::new(sub)?;
        if p.count() > 1 {
            Some(p)
        } else {
            None
        }
    } else {
        None
    };
    let inverse = zeroed.t.inverse().map_err(CoreError::Matrix)?;
    Ok(PlanStructure {
        transform: zeroed.t,
        inverse,
        transformed_pdm: zeroed.transformed,
        doall_prefix: zeroed.zero_cols,
        partition,
    })
}

/// Analyze and transform a nest into a parallel plan.
pub fn parallelize(nest: &LoopNest) -> Result<ParallelPlan> {
    let analysis = analyze(nest)?;
    plan_from_analysis(nest, analysis)
}

/// Build the plan from an existing analysis (lets callers inspect or
/// modify the PDM first — e.g. the ablation benches).
pub fn plan_from_analysis(nest: &LoopNest, analysis: PdmAnalysis) -> Result<ParallelPlan> {
    let n = nest.depth();
    let structure = derive_structure(n, &analysis)?;

    // Transformed-space bounds: y = i·T, i = y·T⁻¹; substitute into the
    // original iteration polyhedron and re-derive per-level bounds by FM.
    // Substitution often manufactures implied rows (several original
    // constraints can map to parallel or dominated images);
    // `from_system` prunes every level exactly before reading its rows
    // off, so codegen and the runtime see irredundant per-level bounds.
    let tsys = transformed_system(nest, &structure.inverse)?;
    let bounds = LoopBounds::from_system(&tsys).map_err(CoreError::Matrix)?;

    Ok(ParallelPlan::from_parts(analysis, structure, bounds, n))
}

/// The iteration polyhedron rewritten into transformed coordinates:
/// with `y = i·T` and `i = y·T⁻¹`, substitute each original index by the
/// matching column of `T⁻¹` — the planner's input to bound generation
/// in [`plan_from_analysis`].
pub fn transformed_system(
    nest: &LoopNest,
    inverse: &Unimodular,
) -> Result<pdm_poly::system::System> {
    let n = nest.depth();
    let sys = nest.iteration_system()?;
    let exprs: Vec<AffineExpr> = (0..n)
        .map(|i| AffineExpr::new(inverse.mat().col_vec(i), 0))
        .collect();
    sys.change_of_variables(&exprs, n)
        .map_err(CoreError::Matrix)
}

impl ParallelPlan {
    /// Assemble a plan from its bounds-independent structure and a set
    /// of (already concrete) transformed-space bounds — the shared final
    /// step of [`plan_from_analysis`] and of template instantiation
    /// ([`crate::template::PlanTemplate::instantiate`]), which is what
    /// makes instantiated plans *the same type* as freshly planned ones.
    pub(crate) fn from_parts(
        analysis: PdmAnalysis,
        structure: PlanStructure,
        bounds: LoopBounds,
        depth: usize,
    ) -> ParallelPlan {
        ParallelPlan {
            analysis,
            transform: structure.transform,
            inverse: structure.inverse,
            transformed_pdm: structure.transformed_pdm,
            doall_prefix: structure.doall_prefix,
            partition: structure.partition,
            bounds,
            depth,
        }
    }

    /// The underlying PDM analysis.
    pub fn analysis(&self) -> &PdmAnalysis {
        &self.analysis
    }

    /// The legal unimodular transformation `T` (`y = i·T`).
    pub fn transform(&self) -> &Unimodular {
        &self.transform
    }

    /// `T⁻¹` (`i = y·T⁻¹`).
    pub fn inverse(&self) -> &Unimodular {
        &self.inverse
    }

    /// The transformed PDM `H·T`.
    pub fn transformed_pdm(&self) -> &IMat {
        &self.transformed_pdm
    }

    /// Number of leading fully-parallel (`doall`) transformed loops.
    pub fn doall_count(&self) -> usize {
        self.doall_prefix
    }

    /// The Theorem-2 partitioning of the trailing block, if profitable.
    pub fn partition(&self) -> Option<&Partitioning> {
        self.partition.as_ref()
    }

    /// Independent partitions of the sequential block (1 when none).
    pub fn partition_count(&self) -> i64 {
        self.partition.as_ref().map_or(1, |p| p.count())
    }

    /// Per-level bounds of the transformed iteration space (irredundant
    /// rows — see the module docs).
    pub fn bounds(&self) -> &LoopBounds {
        &self.bounds
    }

    /// Loop depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Map a transformed index back to the original iteration vector.
    pub fn original_index(&self, y: &IVec) -> Result<IVec> {
        self.inverse.apply(y).map_err(CoreError::Matrix)
    }

    /// Map an original iteration vector into the transformed space.
    pub fn transformed_index(&self, i: &IVec) -> Result<IVec> {
        self.transform.apply(i).map_err(CoreError::Matrix)
    }

    /// Is every loop parallel (no dependences at all)?
    pub fn is_fully_parallel(&self) -> bool {
        self.doall_prefix == self.depth
    }

    /// The parallel **group id** of an original iteration: the tuple of
    /// its doall-prefix coordinates and its partition offset. Two
    /// iterations may be dependent only if they share a group id — the
    /// property the runtime's race checker and the ISDG oracle verify.
    pub fn group_of(&self, i: &IVec) -> Result<(IVec, IVec)> {
        let y = self.transformed_index(i)?;
        let prefix = IVec::from_slice(&y.as_slice()[..self.doall_prefix]);
        let offset = match &self.partition {
            Some(p) => {
                let tail = IVec::from_slice(&y.as_slice()[self.doall_prefix..]);
                p.offset_of(&tail)?
            }
            None => IVec::zeros(0),
        };
        Ok((prefix, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_loopir::parse::parse_loop;
    use pdm_matrix::lex::lex_cmp;

    fn paper41() -> LoopNest {
        parse_loop(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
        )
        .unwrap()
    }

    fn paper42() -> LoopNest {
        parse_loop(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[i1, 3*i2 + 2] = B[i1, i2] + 1;
               B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
             } }",
        )
        .unwrap()
    }

    #[test]
    fn plan_paper_41_one_doall_two_partitions() {
        let plan = parallelize(&paper41()).unwrap();
        assert_eq!(plan.doall_count(), 1);
        assert_eq!(plan.partition_count(), 2);
        assert_eq!(
            plan.transformed_pdm(),
            &IMat::from_rows(&[vec![0, 2]]).unwrap()
        );
    }

    #[test]
    fn plan_paper_42_four_partitions() {
        let plan = parallelize(&paper42()).unwrap();
        assert_eq!(plan.doall_count(), 0);
        assert_eq!(plan.partition_count(), 4);
    }

    #[test]
    fn pruned_bound_rows_on_paper_shapes_are_pinned() {
        // Exact per-level pruning leaves only irredundant rows; these
        // totals are what the compiled walker evaluates per level entry.
        let rows = |src: &str, n: i64| {
            let nest = pdm_loopir::parse::parse_loop_with(src, &[("N", n)]).unwrap();
            parallelize(&nest).unwrap().bounds().total_rows()
        };
        let p41 = "for i1 = 0..N { for i2 = 0..N {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }";
        let p42 = "for i1 = 0..N { for i2 = 0..N {
               A[i1, 3*i2 + 2] = B[i1, i2] + 1;
               B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
             } }";
        let stencil = "for i = 1..N { for j = 1..N { A[i, j] = A[i - 1, j] + A[i, j - 1]; } }";
        let stencil4 = "for i = 1..N { for j = 1..N { for k = 1..N { for l = 1..N {
               A[i, j, k, l] = A[i - 1, j, k, l] + A[i, j - 1, k, l]
                             + A[i, j, k - 1, l] + A[i, j, k, l - 1];
             } } } }";
        assert_eq!(rows(p41, 200), 6);
        assert_eq!(rows(p42, 200), 4);
        assert_eq!(rows(stencil, 200), 4);
        assert_eq!(rows(stencil4, 8), 8);
    }

    #[test]
    fn independent_loop_fully_parallel() {
        let nest = parse_loop("for i = 0..=9 { A[i] = i; }").unwrap();
        let plan = parallelize(&nest).unwrap();
        assert!(plan.is_fully_parallel());
        assert_eq!(plan.doall_count(), 1);
        assert_eq!(plan.partition_count(), 1);
    }

    #[test]
    fn transformed_space_is_bijective() {
        let plan = parallelize(&paper41()).unwrap();
        let nest = paper41();
        let its = nest.iterations().unwrap();
        let transformed = plan.bounds().enumerate().unwrap();
        assert_eq!(its.len(), transformed.len(), "bijection cardinality");
        // Round-trip each original iteration.
        let set: std::collections::HashSet<Vec<i64>> = transformed.into_iter().collect();
        for i in &its {
            let y = plan.transformed_index(i).unwrap();
            assert!(set.contains(&y.0), "missing image {y}");
            assert_eq!(plan.original_index(&y).unwrap(), *i);
        }
    }

    #[test]
    fn dependent_iterations_share_group_and_keep_order() {
        // The schedule-soundness core check, on ground-truth dependences.
        let nest = paper41();
        let plan = parallelize(&nest).unwrap();
        let its = nest.iterations().unwrap();
        let accs = nest.accesses();
        let mut deps = 0;
        for (_, ka, ra) in &accs {
            for (_, kb, rb) in &accs {
                use pdm_loopir::stmt::AccessKind;
                if ra.array != rb.array || (*ka == AccessKind::Read && *kb == AccessKind::Read) {
                    continue;
                }
                for i in &its {
                    for j in &its {
                        if i == j || ra.access.eval(i).unwrap() != rb.access.eval(j).unwrap() {
                            continue;
                        }
                        deps += 1;
                        // Same parallel group.
                        assert_eq!(
                            plan.group_of(i).unwrap(),
                            plan.group_of(j).unwrap(),
                            "dependent {i} {j} split across groups"
                        );
                        // Lexicographic order preserved in y-space.
                        let yi = plan.transformed_index(i).unwrap();
                        let yj = plan.transformed_index(j).unwrap();
                        assert_eq!(lex_cmp(i, j), lex_cmp(&yi, &yj));
                    }
                }
            }
        }
        assert!(deps > 0, "test loop must carry dependences");
    }

    #[test]
    fn group_count_matches_plan() {
        let nest = paper42();
        let plan = parallelize(&nest).unwrap();
        let its = nest.iterations().unwrap();
        let groups: std::collections::HashSet<_> =
            its.iter().map(|i| plan.group_of(i).unwrap()).collect();
        // No doall prefix; exactly det(H) = 4 partitions.
        assert_eq!(groups.len() as i64, plan.partition_count());
    }
}
