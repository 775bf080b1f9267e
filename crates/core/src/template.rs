//! Parametric partition plans: plan once **symbolically**, instantiate
//! per problem size.
//!
//! The paper's whole derivation — dependence equations (§2.2), pair
//! lattices (§2.3), the PDM (§2.4), Algorithm 1, and the Theorem-2
//! partitioning — reads only the array **subscripts**, never the loop
//! bounds. The bounds enter exactly once, at the final Fourier–Motzkin
//! step that re-bounds the transformed space. A service answering many
//! problem sizes of one kernel therefore wastes almost all of its
//! planning time re-deriving size-independent facts.
//!
//! [`plan_template`] splits the pipeline on that line:
//!
//! * **Template** (once per nest *shape*): analysis, transformation,
//!   partitioning, **and** the transformed-space bounds with the nest's
//!   named parameters carried as live columns through elimination
//!   ([`pdm_poly::bounds::LoopBounds::from_system_parametric`]). The FM
//!   runs — the expensive, potentially exponential part — happen here.
//! * **Instantiate** ([`PlanTemplate::instantiate`], once per size):
//!   fold a parameter valuation into the symbolic bound rows
//!   ([`pdm_poly::bounds::LoopBounds::substitute_params`]) and assemble
//!   a [`ParallelPlan`]. One pass over the rows — **no dependence
//!   testing, no Fourier–Motzkin, no planning** — and the result is the
//!   same type the concrete pipeline produces, so every downstream
//!   consumer (codegen, executors, the race checker) works unchanged.
//!
//! Soundness: the template's transformation is legal for every valuation
//! because legality (Theorem 1) is a property of `H·T` alone, and the
//! parametric bound rows are exact for every valuation because FM
//! elimination never touches the parameter columns (see
//! [`pdm_poly::fm`]'s parameter-column notes). The differential suite
//! (`tests/template_vs_concrete.rs`) pins instantiation to the concrete
//! path — same groups, same evaluated bound rows, same execution
//! results — on randomized parametric nests.
//!
//! ```
//! use pdm_core::template::plan_template;
//! use pdm_loopir::parse::parse_loop_symbolic;
//!
//! let shape = parse_loop_symbolic(
//!     "for i1 = 0..=N { for i2 = 0..=N {
//!        A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
//!     } }",
//!     &["N"],
//! ).unwrap();
//! let template = plan_template(&shape).unwrap();     // all FM happens here
//! for n in [9i64, 99] {
//!     let plan = template.instantiate(&[("N", n)]).unwrap(); // no FM
//!     assert_eq!(plan.doall_count(), 1);
//!     assert_eq!(plan.partition_count(), 2);
//! }
//! ```

use crate::partition::Partitioning;
use crate::pdm::{analyze, PdmAnalysis};
use crate::plan::{derive_structure, ParallelPlan, PlanStructure};
use crate::{CoreError, Result};
use pdm_loopir::access::AffineAccess;
use pdm_loopir::nest::LoopNest;
use pdm_loopir::IrError;
use pdm_matrix::mat::IMat;
use pdm_matrix::unimodular::Unimodular;
use pdm_matrix::vec::IVec;
use pdm_poly::bounds::LoopBounds;
use pdm_poly::expr::AffineExpr;
use pdm_poly::system::System;
use std::sync::OnceLock;

/// A parallel schedule computed once per nest **shape**: the complete
/// bounds-independent plan structure plus transformed-space bound rows
/// that still carry the nest's parameter columns. Instantiate per size
/// with [`PlanTemplate::instantiate`].
#[derive(Debug, Clone)]
pub struct PlanTemplate {
    nest: LoopNest,
    analysis: PdmAnalysis,
    transform: Unimodular,
    inverse: Unimodular,
    transformed_pdm: IMat,
    doall_prefix: usize,
    partition: Option<Partitioning>,
    /// Parametric transformed-space bounds (`params() == #parameters`).
    bounds: LoopBounds,
    /// [`PlanTemplate::stability_box`]'s access envelopes, computed on
    /// its first call (they do not depend on the valuation).
    envelopes: OnceLock<Vec<Envelope>>,
}

/// One access occurrence with the exact per-subscript envelope of
/// `i·A` over its statement's guarded iteration points.
#[derive(Debug, Clone)]
struct Envelope {
    array: usize,
    access: AffineAccess,
    ranges: Vec<(i128, i128)>,
}

/// Plan a (symbolic or concrete) nest once: full analysis,
/// transformation, partitioning, and parametric Fourier–Motzkin bounds.
/// On a concrete nest the template degenerates gracefully — zero
/// parameter columns, and `instantiate(&[])` reproduces
/// [`crate::plan::parallelize`]'s plan.
pub fn plan_template(nest: &LoopNest) -> Result<PlanTemplate> {
    let analysis = analyze(nest)?;
    plan_template_from_analysis(nest, analysis)
}

/// [`plan_template`] from an existing analysis (mirrors
/// [`crate::plan::plan_from_analysis`]).
pub fn plan_template_from_analysis(nest: &LoopNest, analysis: PdmAnalysis) -> Result<PlanTemplate> {
    let n = nest.depth();
    let structure = derive_structure(n, &analysis)?;
    let tsys = transformed_symbolic_system(nest, &structure.inverse)?;
    let bounds = LoopBounds::from_system_parametric(&tsys, n).map_err(CoreError::Matrix)?;
    Ok(PlanTemplate {
        nest: nest.clone(),
        analysis,
        transform: structure.transform,
        inverse: structure.inverse,
        transformed_pdm: structure.transformed_pdm,
        doall_prefix: structure.doall_prefix,
        partition: structure.partition,
        bounds,
        envelopes: OnceLock::new(),
    })
}

/// The symbolic iteration polyhedron rewritten into transformed
/// coordinates: index columns map through `T⁻¹` exactly as in
/// [`crate::plan::transformed_system`], parameter columns map to
/// themselves (the transformation acts on iteration space only).
pub fn transformed_symbolic_system(nest: &LoopNest, inverse: &Unimodular) -> Result<System> {
    let n = nest.depth();
    let p = nest.param_names().len();
    let w = n + p;
    let sys = nest.symbolic_system()?;
    let mut exprs = Vec::with_capacity(w);
    for i in 0..n {
        let mut col = inverse.mat().col_vec(i).0;
        col.resize(w, 0);
        exprs.push(AffineExpr::new(IVec(col), 0));
    }
    for j in 0..p {
        exprs.push(AffineExpr::var(w, n + j));
    }
    sys.change_of_variables(&exprs, w)
        .map_err(CoreError::Matrix)
}

impl PlanTemplate {
    /// The symbolic nest shape the template was planned from.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// Parameter names, in the bound-column order valuations are folded.
    pub fn param_names(&self) -> &[String] {
        self.nest.param_names()
    }

    /// The underlying PDM analysis (size-independent).
    pub fn analysis(&self) -> &PdmAnalysis {
        &self.analysis
    }

    /// The legal unimodular transformation `T` (`y = i·T`).
    pub fn transform(&self) -> &Unimodular {
        &self.transform
    }

    /// Number of leading fully-parallel (`doall`) transformed loops.
    pub fn doall_count(&self) -> usize {
        self.doall_prefix
    }

    /// Independent partitions of the sequential block (1 when none) —
    /// `det(H)` of the trailing full-rank block, size-independent.
    pub fn partition_count(&self) -> i64 {
        self.partition.as_ref().map_or(1, |p| p.count())
    }

    /// Loop depth.
    pub fn depth(&self) -> usize {
        self.nest.depth()
    }

    /// The parametric transformed-space bound rows (trailing parameter
    /// columns; see [`pdm_poly::bounds::LoopBounds::params`]).
    pub fn symbolic_bounds(&self) -> &LoopBounds {
        &self.bounds
    }

    /// Was the template planned **speculatively** — do any array
    /// subscripts read a symbolic parameter? The static analysis saw
    /// only the parameter-free hull of those accesses, so every
    /// instantiation must be audited by the runtime inspector before
    /// the parallel plan may run (`pdm_runtime::inspector`).
    pub fn requires_inspection(&self) -> bool {
        self.nest.has_parametric_accesses()
    }

    /// Order a `(name, value)` valuation into bound-column order,
    /// validating exactly like [`LoopNest::substitute`]: every parameter
    /// must be bound (else [`IrError::UnboundParameter`]), unknown names
    /// are rejected.
    fn param_values(&self, params: &[(&str, i64)]) -> Result<Vec<i64>> {
        let names = self.nest.param_names();
        for (name, _) in params {
            if !names.iter().any(|p| p == name) {
                return Err(CoreError::Ir(IrError::Invalid(format!(
                    "instantiate: '{name}' is not a parameter of this template"
                ))));
            }
        }
        names
            .iter()
            .map(|p| {
                params
                    .iter()
                    .find(|(name, _)| name == p)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| CoreError::Ir(IrError::UnboundParameter { name: p.clone() }))
            })
            .collect()
    }

    /// Instantiate the template at a parameter valuation: fold the
    /// valuation into the symbolic bound rows and assemble a complete
    /// [`ParallelPlan`]. Cheap — one pass over the bound rows plus
    /// clones of the fixed-size structure; no dependence testing, no
    /// Fourier–Motzkin, no planning.
    pub fn instantiate(&self, params: &[(&str, i64)]) -> Result<ParallelPlan> {
        let vals = self.param_values(params)?;
        let bounds = self
            .bounds
            .substitute_params(&vals)
            .map_err(CoreError::Matrix)?;
        Ok(ParallelPlan::from_parts(
            self.analysis.clone(),
            PlanStructure {
                transform: self.transform.clone(),
                inverse: self.inverse.clone(),
                transformed_pdm: self.transformed_pdm.clone(),
                doall_prefix: self.doall_prefix,
                partition: self.partition.clone(),
            },
            bounds,
            self.nest.depth(),
        ))
    }

    /// Lower the template's nest at the same valuation — the concrete
    /// nest an executor pairs with [`PlanTemplate::instantiate`]'s plan.
    pub fn instantiate_nest(&self, params: &[(&str, i64)]) -> Result<LoopNest> {
        self.nest.substitute(params).map_err(CoreError::Ir)
    }

    /// The **stability box** of the inspector verdict at `params`: a
    /// per-parameter interval vector (ordered like
    /// [`PlanTemplate::param_names`]; `i64::MIN`/`i64::MAX` encode
    /// unbounded sides) such that *every* valuation inside the box
    /// provably audits to the same verdict as `params` — or `None`
    /// when no such box can be certified and the verdict must be
    /// cached per point.
    ///
    /// Why this is sound: the audit's verdict is a function of (a) the
    /// walk geometry — groups, walk order — and (b) the *equality
    /// relation* on access instances (which `(iteration, access)`
    /// pairs touch the same cell). The box is built so both are
    /// valuation-invariant inside it:
    ///
    /// * (a) holds whenever the transformed bound rows and guards read
    ///   no parameter ([`pdm_poly::bounds::LoopBounds::reads_params`])
    ///   — the iteration set, grouping, and walk order are then
    ///   literally identical at every valuation.
    /// * (b) two occurrences of accesses `a`, `b` on one array collide
    ///   at iterations `i`, `i'` iff for every subscript `r`:
    ///   `(v·D)_r = (i'·A_b − i·A_a + b_b − b_a)_r` where
    ///   `D = P_a − P_b`. The right side ranges over a box `S_r`
    ///   computed *exactly* from the enumerated (guard-filtered)
    ///   iteration points — once per template, since by (a) they are
    ///   the same at every valuation. If at the audited valuation some
    ///   row `r` has `(v·D)_r ∉ S_r`, the pair collides **nowhere**,
    ///   and the box constrains the parameters to keep that row
    ///   excluded. A pair with `D = 0` collides identically at every
    ///   valuation and constrains nothing. If some variable pair
    ///   (`D ≠ 0`) has *no* excluding row, the equality relation may
    ///   shift with the valuation — return `None`.
    ///
    /// Note read–read pairs are **not** skipped: a read–read collision
    /// changes the audit's touch-class structure (which cells merge),
    /// so it too must stay invariant across the box.
    ///
    /// Conservative by construction (the box excludes the same rows,
    /// it never proves a *different* verdict), and exact enough in
    /// practice: for `A[i + K] = A[i]` over `i ∈ 0..=19` at `K = 25`
    /// it certifies `K ∈ [20, ∞)`.
    pub fn stability_box(&self, params: &[(&str, i64)]) -> Result<Option<Vec<(i64, i64)>>> {
        let p = self.param_names().len();
        if p == 0 || !self.requires_inspection() {
            return Ok(None);
        }
        if self.bounds.reads_params() {
            return Ok(None);
        }
        let vals = self.param_values(params)?;
        let occs = self.envelopes(params)?;
        let mut boxes: Vec<(i64, i64)> = vec![(i64::MIN, i64::MAX); p];

        // Parameter coefficient of q_k in subscript col of (P_a - P_b);
        // canonically-empty params matrices read as zero.
        let dcoef = |a: &AffineAccess, b: &AffineAccess, k: usize, col: usize| {
            let pa = if k < a.params.rows() {
                a.params.get(k, col)
            } else {
                0
            };
            let pb = if k < b.params.rows() {
                b.params.get(k, col)
            } else {
                0
            };
            pa - pb
        };

        for ai in 0..occs.len() {
            for bi in ai + 1..occs.len() {
                let (oa, ob) = (&occs[ai], &occs[bi]);
                if oa.array != ob.array {
                    continue;
                }
                let m = oa.access.dims();
                if (0..p).all(|k| (0..m).all(|col| dcoef(&oa.access, &ob.access, k, col) == 0)) {
                    continue; // collides identically at every valuation
                }
                // Candidate excluding rows at the audited valuation.
                struct Row {
                    coeffs: Vec<i64>,
                    above: bool,
                    s_lo: i128,
                    s_hi: i128,
                    lhs: i128,
                }
                let mut rows: Vec<Row> = Vec::new();
                for col in 0..m {
                    let coeffs: Vec<i64> = (0..p)
                        .map(|k| dcoef(&oa.access, &ob.access, k, col))
                        .collect();
                    if coeffs.iter().all(|&c| c == 0) {
                        continue;
                    }
                    let (alo, ahi) = oa.ranges[col];
                    let (blo, bhi) = ob.ranges[col];
                    let db = ob.access.offset[col] as i128 - oa.access.offset[col] as i128;
                    let s_lo = blo - ahi + db;
                    let s_hi = bhi - alo + db;
                    let lhs: i128 = coeffs
                        .iter()
                        .zip(&vals)
                        .map(|(&c, &v)| c as i128 * v as i128)
                        .sum();
                    if lhs < s_lo || lhs > s_hi {
                        rows.push(Row {
                            coeffs,
                            above: lhs > s_hi,
                            s_lo,
                            s_hi,
                            lhs,
                        });
                    }
                }
                let Some(row) = rows.iter().min_by_key(|r| {
                    // Prefer rows touching fewest parameters (least
                    // pinning), then the widest margin outside the hull.
                    let nz = r.coeffs.iter().filter(|&&c| c != 0).count();
                    let margin = if r.above {
                        r.lhs - r.s_hi
                    } else {
                        r.s_lo - r.lhs
                    };
                    (nz, std::cmp::Reverse(margin))
                }) else {
                    // No row excludes this variable pair: its collision
                    // set can change with the valuation.
                    return Ok(None);
                };
                // Keep the excluding row excluded: pin every secondary
                // parameter to its audited value and bound the primary
                // one so Σ c_k·q_k stays on the audited side of S.
                let k0 = row
                    .coeffs
                    .iter()
                    .position(|&c| c != 0)
                    .expect("candidate row has a nonzero coefficient");
                for (k, &c) in row.coeffs.iter().enumerate() {
                    if k != k0 && c != 0 {
                        boxes[k].0 = boxes[k].0.max(vals[k]);
                        boxes[k].1 = boxes[k].1.min(vals[k]);
                    }
                }
                let c = row.coeffs[k0] as i128;
                let rest: i128 = row
                    .coeffs
                    .iter()
                    .zip(&vals)
                    .enumerate()
                    .filter(|&(k, _)| k != k0)
                    .map(|(_, (&cc, &v))| cc as i128 * v as i128)
                    .sum();
                if row.above {
                    // c·q_{k0} ≥ s_hi + 1 − rest
                    let rhs = row.s_hi + 1 - rest;
                    if c > 0 {
                        boxes[k0].0 = boxes[k0].0.max(clamp_i64(ceil_div_i128(rhs, c)));
                    } else {
                        boxes[k0].1 = boxes[k0].1.min(clamp_i64(floor_div_i128(rhs, c)));
                    }
                } else {
                    // c·q_{k0} ≤ s_lo − 1 − rest
                    let rhs = row.s_lo - 1 - rest;
                    if c > 0 {
                        boxes[k0].1 = boxes[k0].1.min(clamp_i64(floor_div_i128(rhs, c)));
                    } else {
                        boxes[k0].0 = boxes[k0].0.max(clamp_i64(ceil_div_i128(rhs, c)));
                    }
                }
            }
        }
        debug_assert!(
            boxes
                .iter()
                .zip(&vals)
                .all(|(&(lo, hi), &v)| lo <= v && v <= hi),
            "stability box must contain the audited valuation: {boxes:?} vs {vals:?}"
        );
        Ok(Some(boxes))
    }

    /// Every access occurrence with its exact per-subscript envelope of
    /// `i·A` over its statement's guarded iteration points (the
    /// symbolic accesses carry `(A, b, P)`; guards read indices only).
    /// Computed at `params` on the first call and kept: the caller has
    /// checked that the bounds read no parameter, so every valuation
    /// enumerates the same points. An empty space has no envelopes, and
    /// audits identically (trivially certified) everywhere.
    fn envelopes(&self, params: &[(&str, i64)]) -> Result<&[Envelope]> {
        if let Some(envelopes) = self.envelopes.get() {
            return Ok(envelopes);
        }
        let pts = self
            .instantiate_nest(params)?
            .iterations()
            .map_err(CoreError::Ir)?;
        let mut envelopes = Vec::new();
        for stmt in self.nest.body() {
            let guarded: Vec<&IVec> = pts.iter().filter(|i| stmt.guards_hold(&i.0)).collect();
            if guarded.is_empty() {
                continue;
            }
            for (_, r) in stmt.accesses() {
                let a = &r.access;
                let ranges = (0..a.dims())
                    .map(|col| {
                        let mut lo = i128::MAX;
                        let mut hi = i128::MIN;
                        for i in &guarded {
                            let v: i128 = (0..a.depth())
                                .map(|k| a.matrix.get(k, col) as i128 * i.0[k] as i128)
                                .sum();
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                        (lo, hi)
                    })
                    .collect();
                envelopes.push(Envelope {
                    array: r.array.0,
                    access: a.clone(),
                    ranges,
                });
            }
        }
        Ok(self.envelopes.get_or_init(|| envelopes))
    }
}

/// Floor division on `i128` (round toward −∞ for any sign of `b`).
fn floor_div_i128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on `i128` (round toward +∞ for any sign of `b`).
fn ceil_div_i128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

fn clamp_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::parallelize;
    use pdm_loopir::parse::{parse_loop, parse_loop_symbolic, parse_loop_with};

    const PAPER41: &str = "for i1 = 0..=N { for i2 = 0..=N {
        A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
    } }";

    #[test]
    fn template_plans_the_paper_nest_once_for_all_sizes() {
        let shape = parse_loop_symbolic(PAPER41, &["N"]).unwrap();
        let t = plan_template(&shape).unwrap();
        assert_eq!(t.doall_count(), 1);
        assert_eq!(t.partition_count(), 2);
        assert_eq!(t.symbolic_bounds().params(), 1);
        for n in [3i64, 9, 40] {
            let inst = t.instantiate(&[("N", n)]).unwrap();
            let conc = parallelize(&parse_loop_with(PAPER41, &[("N", n)]).unwrap()).unwrap();
            assert_eq!(inst.transform(), conc.transform());
            assert_eq!(inst.doall_count(), conc.doall_count());
            assert_eq!(inst.partition_count(), conc.partition_count());
            assert_eq!(
                inst.bounds().enumerate().unwrap(),
                conc.bounds().enumerate().unwrap(),
                "N={n}"
            );
        }
    }

    #[test]
    fn concrete_nests_degenerate_to_the_plain_pipeline() {
        let nest = parse_loop("for i = 1..=10 { A[i] = A[i - 1] + 1; }").unwrap();
        let t = plan_template(&nest).unwrap();
        assert_eq!(t.param_names(), &[] as &[String]);
        let inst = t.instantiate(&[]).unwrap();
        let conc = parallelize(&nest).unwrap();
        assert_eq!(inst.bounds(), conc.bounds());
        assert_eq!(inst.transform(), conc.transform());
    }

    #[test]
    fn instantiate_validates_the_valuation() {
        let shape = parse_loop_symbolic(PAPER41, &["N"]).unwrap();
        let t = plan_template(&shape).unwrap();
        assert!(matches!(
            t.instantiate(&[]),
            Err(CoreError::Ir(IrError::UnboundParameter { .. }))
        ));
        assert!(t.instantiate(&[("N", 5), ("M", 5)]).is_err());
    }

    #[test]
    fn empty_valuations_instantiate_to_empty_spaces() {
        let shape = parse_loop_symbolic(PAPER41, &["N"]).unwrap();
        let t = plan_template(&shape).unwrap();
        let inst = t.instantiate(&[("N", -1)]).unwrap();
        assert_eq!(inst.bounds().enumerate().unwrap().len(), 0);
        let nest = t.instantiate_nest(&[("N", -1)]).unwrap();
        assert_eq!(nest.iterations().unwrap().len(), 0);
    }

    const SHIFTED_CHAIN: &str = "for i = 0..=19 { A[i + K] = A[i] + 1; }";

    #[test]
    fn stability_box_certifies_disjoint_shift_ranges() {
        let shape = parse_loop_symbolic(SHIFTED_CHAIN, &["K"]).unwrap();
        let t = plan_template(&shape).unwrap();
        // Inside the overlap range (|K| <= 19) the write/read collision
        // set changes with K — no box.
        for k in [0i64, 1, -5, 19] {
            assert_eq!(t.stability_box(&[("K", k)]).unwrap(), None, "K={k}");
        }
        // Beyond the extent the accesses are provably disjoint for
        // every larger (resp. smaller) shift.
        assert_eq!(
            t.stability_box(&[("K", 25)]).unwrap(),
            Some(vec![(20, i64::MAX)])
        );
        assert_eq!(
            t.stability_box(&[("K", -30)]).unwrap(),
            Some(vec![(i64::MIN, -20)])
        );
    }

    #[test]
    fn stability_box_is_universal_when_parameters_cancel() {
        // Both accesses shift by the same K: every collision is
        // valuation-invariant, so the verdict is stable on all of Z.
        let src = "for i1 = 0..=9 { for i2 = 0..=9 {
            A[5*i1 + i2 + K, 7*i1 + 2*i2] = A[i1 + i2 + 4 + K, i1 + 2*i2 + 6] + 1;
        } }";
        let shape = parse_loop_symbolic(src, &["K"]).unwrap();
        let t = plan_template(&shape).unwrap();
        assert_eq!(
            t.stability_box(&[("K", 3)]).unwrap(),
            Some(vec![(i64::MIN, i64::MAX)])
        );
    }

    #[test]
    fn stability_box_refuses_parametric_bounds_and_concrete_nests() {
        // Parameter in a loop bound: the walk geometry itself moves.
        let src = "for i = 0..=N { A[i + K] = A[i] + 1; }";
        let shape = parse_loop_symbolic(src, &["N", "K"]).unwrap();
        let t = plan_template(&shape).unwrap();
        assert_eq!(t.stability_box(&[("N", 9), ("K", 100)]).unwrap(), None);
        // No parametric accesses: nothing to certify.
        let conc = parse_loop("for i = 0..=9 { A[i] = A[i] + 1; }").unwrap();
        let t = plan_template(&conc).unwrap();
        assert_eq!(t.stability_box(&[]).unwrap(), None);
    }

    #[test]
    fn stability_box_validates_the_valuation() {
        let shape = parse_loop_symbolic(SHIFTED_CHAIN, &["K"]).unwrap();
        let t = plan_template(&shape).unwrap();
        assert!(t.stability_box(&[]).is_err());
        assert!(t.stability_box(&[("Z", 1)]).is_err());
    }

    #[test]
    fn triangular_symbolic_template_matches_concrete() {
        let src = "for i = 0..=N { for j = 0..=i { A[i, j] = A[j, i] + 1; } }";
        let shape = parse_loop_symbolic(src, &["N"]).unwrap();
        let t = plan_template(&shape).unwrap();
        for n in [0i64, 1, 6] {
            let inst = t.instantiate(&[("N", n)]).unwrap();
            let conc = parallelize(&parse_loop_with(src, &[("N", n)]).unwrap()).unwrap();
            assert_eq!(
                inst.bounds().enumerate().unwrap(),
                conc.bounds().enumerate().unwrap(),
                "N={n}"
            );
        }
    }
}
