//! The perfect loop nest (the paper's eq. 2.1).

use crate::access::ArrayId;
use crate::stmt::{AccessKind, ArrayRef, Statement};
use crate::{IrError, Result};
use pdm_matrix::vec::IVec;
use pdm_poly::bounds::LoopBounds;
use pdm_poly::expr::AffineExpr;
use pdm_poly::system::System;

/// Declaration of an array used by the nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Source-level name.
    pub name: String,
    /// Dimensionality.
    pub dims: usize,
}

/// An `n`-fold perfectly nested loop.
///
/// Loop `k` runs from `lower[k]` to `upper[k]` **inclusive**, both affine
/// expressions over the *outer* indices `i_0 … i_{k−1}` (the paper's
/// `l_j, u_j` integer functions of outer indices; integer-constant bounds
/// are the common special case). The body is a sequence of assignments
/// executed for every iteration in lexicographic order.
///
/// # Symbolic bounds
///
/// A nest may additionally carry named **parameters** (`N`, `M`, …): the
/// bound expressions then live over `depth + params` columns — loop
/// indices first, parameters after — and stay symbolic until
/// [`LoopNest::substitute`] folds an integer valuation into the
/// constants. Array **subscripts** may also read parameters (a
/// [`crate::access::AffineAccess`] with nonzero `params` rows): the
/// dependence structure of such a nest varies with problem size, so
/// static planning sees only the parameter-free hull and the runtime
/// inspector must audit each concrete valuation before running a
/// speculative parallel plan ([`LoopNest::has_parametric_accesses`]
/// flags this). Body *expressions* (the values computed, as opposed to
/// the cells addressed) stay parameter-free. Concrete-only APIs reject
/// symbolic nests with [`IrError::UnboundParameter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    index_names: Vec<String>,
    param_names: Vec<String>,
    lower: Vec<AffineExpr>,
    upper: Vec<AffineExpr>,
    arrays: Vec<ArrayDecl>,
    body: Vec<Statement>,
}

impl LoopNest {
    /// Build a concrete (parameter-free) nest, validating every shape
    /// constraint.
    pub fn new(
        index_names: Vec<String>,
        lower: Vec<AffineExpr>,
        upper: Vec<AffineExpr>,
        arrays: Vec<ArrayDecl>,
        body: Vec<Statement>,
    ) -> Result<Self> {
        Self::new_symbolic(index_names, Vec::new(), lower, upper, arrays, body)
    }

    /// Build a nest whose bounds may mention the named parameters (as
    /// trailing columns of the bound expressions), validating every shape
    /// constraint.
    pub fn new_symbolic(
        index_names: Vec<String>,
        param_names: Vec<String>,
        lower: Vec<AffineExpr>,
        upper: Vec<AffineExpr>,
        arrays: Vec<ArrayDecl>,
        body: Vec<Statement>,
    ) -> Result<Self> {
        let n = index_names.len();
        let p = param_names.len();
        if n == 0 {
            return Err(IrError::Invalid("loop nest must have depth >= 1".into()));
        }
        for (j, name) in param_names.iter().enumerate() {
            if index_names.contains(name) {
                return Err(IrError::Invalid(format!(
                    "parameter '{name}' shadows a loop index"
                )));
            }
            if param_names[..j].contains(name) {
                return Err(IrError::Invalid(format!("duplicate parameter '{name}'")));
            }
        }
        if lower.len() != n || upper.len() != n {
            return Err(IrError::Invalid(format!(
                "expected {n} bounds, got {} lower / {} upper",
                lower.len(),
                upper.len()
            )));
        }
        for (k, b) in lower.iter().chain(upper.iter()).enumerate() {
            let k = k % n;
            if b.dim() != n + p {
                return Err(IrError::Invalid(format!(
                    "bound of loop {k} has dimension {} != depth {n} + params {p}",
                    b.dim()
                )));
            }
            // A bound may only mention outer indices (parameter columns
            // `n..n+p` are always allowed).
            for inner in k..n {
                if b.coeff(inner) != 0 {
                    return Err(IrError::Invalid(format!(
                        "bound of loop {k} mentions index i{} (not outer)",
                        inner + 1
                    )));
                }
            }
        }
        let nest = LoopNest {
            index_names,
            param_names,
            lower,
            upper,
            arrays,
            body,
        };
        nest.validate_body()?;
        Ok(nest)
    }

    fn validate_body(&self) -> Result<()> {
        let n = self.depth();
        for (si, stmt) in self.body.iter().enumerate() {
            for g in &stmt.guards {
                if g.index >= n {
                    return Err(IrError::Invalid(format!(
                        "statement {si}: guard on level {} but depth is {n}",
                        g.index
                    )));
                }
                if g.value.dim() != n {
                    return Err(IrError::Invalid(format!(
                        "statement {si}: guard value has dimension {} != depth {n}",
                        g.value.dim()
                    )));
                }
                for inner in g.index..n {
                    if g.value.coeff(inner) != 0 {
                        return Err(IrError::Invalid(format!(
                            "statement {si}: guard on level {} reads index i{} (not outer)",
                            g.index,
                            inner + 1
                        )));
                    }
                }
            }
            for (_, r) in stmt.accesses() {
                if r.access.depth() != n {
                    return Err(IrError::Invalid(format!(
                        "statement {si}: access expects depth {}, nest has {n}",
                        r.access.depth()
                    )));
                }
                let pr = r.access.params.rows();
                if pr != 0 && pr != self.param_names.len() {
                    return Err(IrError::Invalid(format!(
                        "statement {si}: access reads {pr} parameters, nest has {}",
                        self.param_names.len()
                    )));
                }
                let Some(decl) = self.arrays.get(r.array.0) else {
                    return Err(IrError::Invalid(format!(
                        "statement {si}: unknown array id {}",
                        r.array.0
                    )));
                };
                if decl.dims != r.access.dims() {
                    return Err(IrError::Invalid(format!(
                        "statement {si}: array {} has {} dims, access uses {}",
                        decl.name,
                        decl.dims,
                        r.access.dims()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Loop depth `n`.
    pub fn depth(&self) -> usize {
        self.index_names.len()
    }

    /// Index variable names, outermost first.
    pub fn index_names(&self) -> &[String] {
        &self.index_names
    }

    /// Names of the symbolic parameters (empty for concrete nests). A
    /// bound expression's columns are `index_names ++ param_names`.
    pub fn param_names(&self) -> &[String] {
        &self.param_names
    }

    /// Does the nest carry unbound symbolic parameters?
    pub fn is_symbolic(&self) -> bool {
        !self.param_names.is_empty()
    }

    /// Does any array subscript read a symbolic parameter? Such a nest's
    /// dependence structure changes with problem size: static planning
    /// covers only the parameter-free hull, and a plan built from it is
    /// **speculative** — the runtime inspector must certify each
    /// concrete valuation before parallel execution.
    pub fn has_parametric_accesses(&self) -> bool {
        self.body
            .iter()
            .flat_map(|s| s.accesses())
            .any(|(_, r)| r.access.is_parametric())
    }

    /// Error unless the nest is concrete; names the first unbound
    /// parameter otherwise.
    fn require_concrete(&self) -> Result<()> {
        match self.param_names.first() {
            None => Ok(()),
            Some(name) => Err(IrError::UnboundParameter { name: name.clone() }),
        }
    }

    /// Lower bound expression of level `k`.
    pub fn lower(&self, k: usize) -> &AffineExpr {
        &self.lower[k]
    }

    /// Upper bound expression of level `k` (inclusive).
    pub fn upper(&self, k: usize) -> &AffineExpr {
        &self.upper[k]
    }

    /// Fold an integer valuation of every parameter into the bound
    /// constants, yielding the concrete nest the executors run. The
    /// valuation must bind **exactly** the nest's parameters: a missing
    /// parameter is an [`IrError::UnboundParameter`], an unknown name an
    /// [`IrError::Invalid`] (catching typos loudly instead of silently
    /// ignoring a binding). Cheap: one pass over the `2·depth` bound
    /// rows; body and subscripts are shared unchanged unless a subscript
    /// is itself parametric, in which case the body is rebuilt with each
    /// access's parameter terms folded into its offsets.
    pub fn substitute(&self, params: &[(&str, i64)]) -> Result<LoopNest> {
        for (name, _) in params {
            if !self.param_names.iter().any(|p| p == name) {
                return Err(IrError::Invalid(format!(
                    "substitute: '{name}' is not a parameter of this nest"
                )));
            }
        }
        let mut vals = Vec::with_capacity(self.param_names.len());
        for p in &self.param_names {
            match params.iter().find(|(name, _)| name == p) {
                Some(&(_, v)) => vals.push(v),
                None => return Err(IrError::UnboundParameter { name: p.clone() }),
            }
        }
        let n = self.depth();
        let fold = |e: &AffineExpr| -> Result<AffineExpr> {
            let mut acc = e.constant as i128;
            for (j, &v) in vals.iter().enumerate() {
                acc += e.coeff(n + j) as i128 * v as i128;
            }
            let constant = i64::try_from(acc)
                .map_err(|_| IrError::Matrix(pdm_matrix::MatrixError::Overflow))?;
            Ok(AffineExpr::new(
                IVec::from_slice(&e.coeffs.as_slice()[..n]),
                constant,
            ))
        };
        let lower = self.lower.iter().map(&fold).collect::<Result<Vec<_>>>()?;
        let upper = self.upper.iter().map(&fold).collect::<Result<Vec<_>>>()?;
        let body = if self.has_parametric_accesses() {
            let values = IVec::from_slice(&vals);
            self.body
                .iter()
                .map(|s| substitute_stmt(s, &values))
                .collect::<Result<Vec<_>>>()?
        } else {
            self.body.clone()
        };
        LoopNest::new(
            self.index_names.clone(),
            lower,
            upper,
            self.arrays.clone(),
            body,
        )
    }

    /// Stable structural hash of the nest **shape** — index/parameter
    /// arity and names, bound coefficient rows, array declarations, and
    /// the full body structure. Two nests compare equal iff they hash
    /// equal up to collisions, so caches key on this and verify with
    /// `==` on hit (see `pdm-runtime`'s `ShardedPlanCache`). FNV-1a, stable
    /// across processes and platforms.
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.index_names.len() as u64);
        for name in self.index_names.iter().chain(&self.param_names) {
            h.bytes(name.as_bytes());
        }
        h.word(self.param_names.len() as u64);
        for e in self.lower.iter().chain(&self.upper) {
            h.expr(e);
        }
        h.word(self.arrays.len() as u64);
        for a in &self.arrays {
            h.bytes(a.name.as_bytes());
            h.word(a.dims as u64);
        }
        h.word(self.body.len() as u64);
        for stmt in &self.body {
            h.aref(&stmt.lhs);
            h.body_expr(&stmt.rhs);
            h.word(stmt.guards.len() as u64);
            for g in &stmt.guards {
                h.word(g.index as u64);
                h.expr(&g.value);
            }
        }
        h.finish()
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Body statements.
    pub fn body(&self) -> &[Statement] {
        &self.body
    }

    /// Look up an array by source name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|a| a.name == name).map(ArrayId)
    }

    /// The iteration polyhedron `{ i : l_k ≤ i_k ≤ u_k }` as a constraint
    /// system over the `n` indices. Concrete nests only: a symbolic nest
    /// gets [`IrError::UnboundParameter`] (use
    /// [`LoopNest::symbolic_system`] or substitute first).
    pub fn iteration_system(&self) -> Result<System> {
        self.require_concrete()?;
        let n = self.depth();
        let mut sys = System::universe(n);
        for k in 0..n {
            // i_k - lower_k >= 0
            let ik = AffineExpr::var(n, k);
            sys.add_ge0(ik.sub(&self.lower[k]).map_err(IrError::Matrix)?)
                .map_err(IrError::Matrix)?;
            // upper_k - i_k >= 0
            sys.add_ge0(self.upper[k].sub(&ik).map_err(IrError::Matrix)?)
                .map_err(IrError::Matrix)?;
        }
        Ok(sys)
    }

    /// The iteration polyhedron over `(indices, parameters)`: a system of
    /// `depth + params` columns, loop indices first. Parameter columns
    /// are ordinary (free) variables of the system; planning eliminates
    /// only the index columns and carries the parameter columns into the
    /// extracted bound rows ([`pdm_poly::bounds::LoopBounds`] with
    /// trailing parameter columns). For a concrete nest this is exactly
    /// [`LoopNest::iteration_system`].
    pub fn symbolic_system(&self) -> Result<System> {
        let n = self.depth();
        let w = n + self.param_names.len();
        let mut sys = System::universe(w);
        for k in 0..n {
            let ik = AffineExpr::var(w, k);
            sys.add_ge0(ik.sub(&self.lower[k]).map_err(IrError::Matrix)?)
                .map_err(IrError::Matrix)?;
            sys.add_ge0(self.upper[k].sub(&ik).map_err(IrError::Matrix)?)
                .map_err(IrError::Matrix)?;
        }
        Ok(sys)
    }

    /// Global inclusive `(min, max)` range of every loop variable over the
    /// iteration polyhedron, computed by Fourier–Motzkin projection.
    /// Errors with `Unbounded` when a direction has no finite bound, and
    /// with [`IrError::UnboundParameter`] on symbolic nests (a symbolic
    /// range has no integer endpoints to report).
    pub fn index_ranges(&self) -> Result<Vec<(i64, i64)>> {
        let n = self.depth();
        let sys = self.iteration_system()?;
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let others: Vec<usize> = (0..n).filter(|&v| v != k).collect();
            let proj = others
                .iter()
                .try_fold(sys.clone(), |s, &v| pdm_poly::fm::eliminate(&s, v))
                .map_err(IrError::Matrix)?;
            let mut lo: Option<i64> = None;
            let mut hi: Option<i64> = None;
            for e in proj.constraints() {
                let a = e.coeff(k);
                if a > 0 {
                    let b = pdm_matrix::num::ceil_div(-e.constant, a).map_err(IrError::Matrix)?;
                    lo = Some(lo.map_or(b, |c: i64| c.max(b)));
                } else if a < 0 {
                    let b = pdm_matrix::num::floor_div(e.constant, -a).map_err(IrError::Matrix)?;
                    hi = Some(hi.map_or(b, |c: i64| c.min(b)));
                }
            }
            match (lo, hi) {
                (Some(l), Some(h)) => out.push((l, h)),
                _ => return Err(IrError::Matrix(pdm_matrix::MatrixError::Unbounded)),
            }
        }
        Ok(out)
    }

    /// Enumerate the iteration vectors in lexicographic (execution) order.
    /// Concrete nests only ([`IrError::UnboundParameter`] otherwise).
    pub fn iterations(&self) -> Result<Vec<IVec>> {
        let sys = self.iteration_system()?;
        let b = LoopBounds::from_system(&sys).map_err(IrError::Matrix)?;
        Ok(b.enumerate()
            .map_err(IrError::Matrix)?
            .into_iter()
            .map(IVec)
            .collect())
    }

    /// Every access of the body, tagged with its statement index and kind.
    pub fn accesses(&self) -> Vec<(usize, AccessKind, &ArrayRef)> {
        let mut out = Vec::new();
        for (si, stmt) in self.body.iter().enumerate() {
            for (kind, r) in stmt.accesses() {
                out.push((si, kind, r));
            }
        }
        out
    }

    /// All ordered reference pairs that can induce a dependence: same
    /// array, at least one of the two is a write. Pairs are returned as
    /// `(from, to)` with their statement indices and kinds; both
    /// orientations of distinct accesses appear once (the analysis decides
    /// direction from the solution's lexicographic sign).
    pub fn dependence_pairs(&self) -> Vec<DependencePair<'_>> {
        let accs = self.accesses();
        let mut out = Vec::new();
        for (a_idx, &(s1, k1, r1)) in accs.iter().enumerate() {
            for &(s2, k2, r2) in accs.iter().skip(a_idx) {
                if r1.array != r2.array {
                    continue;
                }
                if k1 == AccessKind::Read && k2 == AccessKind::Read {
                    continue;
                }
                out.push(DependencePair {
                    stmt_a: s1,
                    kind_a: k1,
                    ref_a: r1,
                    stmt_b: s2,
                    kind_b: k2,
                    ref_b: r2,
                });
            }
        }
        out
    }
}

/// One statement with every parametric access folded to its concrete
/// form at `values` (ordered as the nest's parameters).
fn substitute_stmt(stmt: &Statement, values: &IVec) -> Result<Statement> {
    Ok(Statement {
        lhs: substitute_ref(&stmt.lhs, values)?,
        rhs: substitute_body_expr(&stmt.rhs, values)?,
        guards: stmt.guards.clone(),
    })
}

fn substitute_ref(r: &ArrayRef, values: &IVec) -> Result<ArrayRef> {
    Ok(ArrayRef {
        array: r.array,
        access: r.access.substitute_params(values)?,
    })
}

fn substitute_body_expr(e: &crate::expr::Expr, values: &IVec) -> Result<crate::expr::Expr> {
    use crate::expr::Expr;
    Ok(match e {
        Expr::Const(_) | Expr::Index(_) => e.clone(),
        Expr::Read(r) => Expr::Read(substitute_ref(r, values)?),
        Expr::Add(a, b) => Expr::add(
            substitute_body_expr(a, values)?,
            substitute_body_expr(b, values)?,
        ),
        Expr::Sub(a, b) => Expr::sub(
            substitute_body_expr(a, values)?,
            substitute_body_expr(b, values)?,
        ),
        Expr::Mul(a, b) => Expr::mul(
            substitute_body_expr(a, values)?,
            substitute_body_expr(b, values)?,
        ),
        Expr::Neg(a) => Expr::Neg(Box::new(substitute_body_expr(a, values)?)),
    })
}

/// FNV-1a folding over the nest structure (see
/// [`LoopNest::structural_hash`]): deliberately hand-rolled instead of
/// `std::hash::Hash` so the value is stable across processes, platforms,
/// and std versions — it is a cache key, not an in-process table hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.byte(b);
        }
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }
    fn expr(&mut self, e: &AffineExpr) {
        self.word(e.dim() as u64);
        for &c in e.coeffs.iter() {
            self.word(c as u64);
        }
        self.word(e.constant as u64);
    }
    fn aref(&mut self, r: &ArrayRef) {
        self.word(r.array.0 as u64);
        self.word(r.access.depth() as u64);
        self.word(r.access.dims() as u64);
        for k in 0..r.access.depth() {
            for d in 0..r.access.dims() {
                self.word(r.access.matrix.get(k, d) as u64);
            }
        }
        for &o in r.access.offset.iter() {
            self.word(o as u64);
        }
        // Parameter coefficient rows — hashed only when present, so the
        // hash of every pre-existing (parameter-free) shape is unchanged.
        if r.access.params.rows() > 0 {
            self.word(r.access.params.rows() as u64);
            for k in 0..r.access.params.rows() {
                for d in 0..r.access.params.cols() {
                    self.word(r.access.params.get(k, d) as u64);
                }
            }
        }
    }
    fn body_expr(&mut self, e: &crate::expr::Expr) {
        use crate::expr::Expr;
        match e {
            Expr::Const(c) => {
                self.byte(1);
                self.word(*c as u64);
            }
            Expr::Index(k) => {
                self.byte(2);
                self.word(*k as u64);
            }
            Expr::Read(r) => {
                self.byte(3);
                self.aref(r);
            }
            Expr::Add(a, b) => {
                self.byte(4);
                self.body_expr(a);
                self.body_expr(b);
            }
            Expr::Sub(a, b) => {
                self.byte(5);
                self.body_expr(a);
                self.body_expr(b);
            }
            Expr::Mul(a, b) => {
                self.byte(6);
                self.body_expr(a);
                self.body_expr(b);
            }
            Expr::Neg(a) => {
                self.byte(7);
                self.body_expr(a);
            }
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A pair of references that may be dependent (same array, ≥ 1 write).
#[derive(Debug, Clone, Copy)]
pub struct DependencePair<'a> {
    /// Statement index of the first reference.
    pub stmt_a: usize,
    /// Kind of the first reference.
    pub kind_a: AccessKind,
    /// First reference.
    pub ref_a: &'a ArrayRef,
    /// Statement index of the second reference.
    pub stmt_b: usize,
    /// Kind of the second reference.
    pub kind_b: AccessKind,
    /// Second reference.
    pub ref_b: &'a ArrayRef,
}

impl DependencePair<'_> {
    /// Classify: flow (W→R), anti (R→W), output (W→W) — direction resolved
    /// later by the solver; this is the unordered classification.
    pub fn class(&self) -> &'static str {
        match (self.kind_a, self.kind_b) {
            (AccessKind::Write, AccessKind::Write) => "output",
            (AccessKind::Write, AccessKind::Read) => "flow/anti",
            (AccessKind::Read, AccessKind::Write) => "flow/anti",
            (AccessKind::Read, AccessKind::Read) => unreachable!("filtered"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NestBuilder;

    fn paper41() -> LoopNest {
        crate::parse::parse_loop(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[i1 + i2, 3*i1 + i2 + 3] = A[i1 + i2 + 1, i1 + 2*i2] + 1;
             } }",
        )
        .unwrap()
    }

    #[test]
    fn depth_and_iterations() {
        let nest = paper41();
        assert_eq!(nest.depth(), 2);
        let its = nest.iterations().unwrap();
        assert_eq!(its.len(), 100);
        assert_eq!(its[0].as_slice(), &[0, 0]);
        assert_eq!(its[99].as_slice(), &[9, 9]);
        // Lexicographic order.
        for w in its.windows(2) {
            assert!(pdm_matrix::lex::lex_cmp(&w[0], &w[1]).is_lt());
        }
    }

    #[test]
    fn dependence_pairs_filter_read_read() {
        let nest = paper41();
        // Accesses: write A, read A => pairs: (W,W) self and (W,R);
        // the (R,R) pair is filtered out.
        let pairs = nest.dependence_pairs();
        assert_eq!(pairs.len(), 2);
        let classes: Vec<_> = pairs.iter().map(|p| p.class()).collect();
        assert!(classes.contains(&"output"));
        assert!(classes.contains(&"flow/anti"));
    }

    #[test]
    fn triangular_bounds_nest() {
        // for i1 = 0..=5 { for i2 = 0..=i1 { ... } }
        let nest = NestBuilder::new(&["i1", "i2"])
            .bounds_const(0, 0, 5)
            .bounds_expr(1, AffineExpr::constant(2, 0), AffineExpr::var(2, 0))
            .array("A", 1)
            .stmt_simple("A", &[(vec![1, 0], 0)], &[("A", vec![(vec![0, 1], 0)])])
            .build()
            .unwrap();
        let its = nest.iterations().unwrap();
        assert_eq!(its.len(), 6 + 5 + 4 + 3 + 2 + 1);
        for it in &its {
            assert!(it[1] <= it[0]);
        }
    }

    #[test]
    fn invalid_nests_rejected() {
        // Bound referencing an inner index.
        let bad = LoopNest::new(
            vec!["i1".into(), "i2".into()],
            vec![AffineExpr::constant(2, 0), AffineExpr::constant(2, 0)],
            vec![AffineExpr::var(2, 1), AffineExpr::constant(2, 3)],
            vec![],
            vec![],
        );
        assert!(bad.is_err());
        // Zero depth.
        assert!(LoopNest::new(vec![], vec![], vec![], vec![], vec![]).is_err());
    }

    fn symbolic_chain() -> LoopNest {
        crate::parse::parse_loop_symbolic("for i = 1..=N { A[i] = A[i - 1] + 1; }", &["N"]).unwrap()
    }

    #[test]
    fn symbolic_nest_rejects_concrete_apis_with_typed_error() {
        let nest = symbolic_chain();
        assert!(nest.is_symbolic());
        assert_eq!(nest.param_names(), &["N".to_string()]);
        for err in [
            nest.iteration_system().unwrap_err(),
            nest.index_ranges().unwrap_err(),
            nest.iterations().unwrap_err(),
        ] {
            match err {
                IrError::UnboundParameter { name } => assert_eq!(name, "N"),
                other => panic!("expected UnboundParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn substitute_lowers_to_the_concrete_nest() {
        let nest = symbolic_chain();
        let conc = nest.substitute(&[("N", 7)]).unwrap();
        assert!(!conc.is_symbolic());
        assert_eq!(conc.iterations().unwrap().len(), 7);
        // Missing and unknown bindings are loud, typed errors.
        assert!(matches!(
            nest.substitute(&[]),
            Err(IrError::UnboundParameter { .. })
        ));
        assert!(matches!(
            nest.substitute(&[("N", 7), ("M", 1)]),
            Err(IrError::Invalid(_))
        ));
        // Substituting an empty valuation into a concrete nest is the
        // identity.
        assert_eq!(conc.substitute(&[]).unwrap(), conc);
    }

    #[test]
    fn symbolic_system_spans_indices_and_params() {
        let nest = symbolic_chain();
        let sys = nest.symbolic_system().unwrap();
        assert_eq!(sys.dim(), 2); // i and N
                                  // i - 1 >= 0 and N - i >= 0.
        assert!(sys.contains(&[3, 5]).unwrap());
        assert!(!sys.contains(&[6, 5]).unwrap());
        assert!(!sys.contains(&[0, 5]).unwrap());
        // On a concrete nest it coincides with iteration_system.
        let conc = nest.substitute(&[("N", 5)]).unwrap();
        assert_eq!(
            conc.symbolic_system().unwrap(),
            conc.iteration_system().unwrap()
        );
    }

    #[test]
    fn structural_hash_distinguishes_shapes_not_sizes() {
        let a = symbolic_chain();
        let b = crate::parse::parse_loop_symbolic("for i = 1..=N { A[i] = A[i - 1] + 1; }", &["N"])
            .unwrap();
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert_eq!(a, b);
        let c = crate::parse::parse_loop_symbolic("for i = 1..=N { A[i] = A[i - 2] + 1; }", &["N"])
            .unwrap();
        assert_ne!(a.structural_hash(), c.structural_hash());
        // Substitution changes the shape (bounds become concrete).
        assert_ne!(
            a.structural_hash(),
            a.substitute(&[("N", 9)]).unwrap().structural_hash()
        );
    }

    #[test]
    fn parameter_shadowing_index_rejected() {
        let err = LoopNest::new_symbolic(
            vec!["i".into()],
            vec!["i".into()],
            vec![AffineExpr::constant(2, 0)],
            vec![AffineExpr::constant(2, 3)],
            vec![],
            vec![],
        );
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_parameter_rejected() {
        // A duplicate name would leave a dead trailing column (every
        // occurrence resolves to the first) and fork the structural hash
        // of an otherwise-identical shape.
        let err = LoopNest::new_symbolic(
            vec!["i".into()],
            vec!["N".into(), "N".into()],
            vec![AffineExpr::constant(3, 0)],
            vec![AffineExpr::constant(3, 3)],
            vec![],
            vec![],
        );
        assert!(matches!(err, Err(IrError::Invalid(_))));
        assert!(
            crate::parse::parse_loop_symbolic("for i = 0..=N { A[i] = 1; }", &["N", "N"]).is_err()
        );
    }

    #[test]
    fn self_dependence_pair_present() {
        // A single write access must still form a W-W self pair (output
        // dependence candidacy, as the paper's §4.1 uses).
        let nest = crate::parse::parse_loop("for i = 0..=4 { A[2*i] = 1; }").unwrap();
        let pairs = nest.dependence_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].class(), "output");
    }
}
