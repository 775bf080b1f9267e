//! Per-level loop bounds extracted by Fourier–Motzkin elimination.
//!
//! Given a polyhedron over loop indices `x_0 … x_{n−1}` (outermost first),
//! eliminate variables innermost-outward. The constraints of the system in
//! which `x_k` is the innermost surviving variable yield the bounds of loop
//! `k` as functions of `x_0 … x_{k−1}` only:
//!
//! ```text
//! a·x_k + e(x_outer) ≥ 0, a > 0   ⇒   x_k ≥ ⌈ −e / a ⌉   (lower)
//! a·x_k + e(x_outer) ≥ 0, a < 0   ⇒   x_k ≤ ⌊ e / −a ⌋   (upper)
//! ```
//!
//! The effective bound is the `max` of all lowers / `min` of all uppers —
//! exactly the `max(…, ⌈…⌉)` / `min(…, ⌊…⌋)` bounds in the paper's
//! transformed loops of §4.1.
//!
//! # Irredundance
//!
//! By default every intermediate system is pruned exactly
//! ([`System::prune_redundant`]) before its level's bounds are read off,
//! so the `lowers`/`uppers` rows of each [`LevelBounds`] are
//! **irredundant**: no row can be removed without changing the integer
//! iteration set. Consumers that evaluate the rows per iteration
//! (`pdm-runtime`'s compiled walkers, the interpreter's `max`/`min`
//! reductions) therefore do the minimum per-level work. Pruning an
//! intermediate system preserves the enumerated set because removal only
//! ever drops rows implied (over the integers) by surviving rows, and
//! every surviving row is still enforced at the level of its highest
//! variable. [`LoopBounds::from_system_pruned`] exposes the unpruned
//! baseline for measurement.
//!
//! # Parameter columns
//!
//! [`LoopBounds::from_system_parametric`] treats only the leading
//! `levels` columns of the input system as loop indices; the trailing
//! columns are **named parameters** (`N`, `M`, …) that Fourier–Motzkin
//! **never eliminates** — they ride through every combination step and
//! surface in the extracted [`BoundExpr`] numerators, producing bounds
//! like `x_k ≤ ⌊(N − x_0)/2⌋` that are valid for *every* parameter
//! valuation. Exact pruning in the parametric run treats parameters as
//! free variables, so a row is removed only when it is redundant for all
//! valuations simultaneously — conservative (a row redundant only for
//! specific sizes survives) and sound.
//!
//! [`LoopBounds::substitute_params`] folds an integer valuation into the
//! constants — a single pass over the rows, no FM — and re-normalizes
//! each row exactly as concrete constraint normalization would
//! (gcd reduction, denominator collapse with side-aware rounding,
//! parallel-row dominance).
//!
//! **Exactness contract.** The *integer points* enumerated by an
//! instantiated template are always identical to the concrete
//! pipeline's — every original constraint is still enforced at the
//! level of its highest variable, so no spurious iteration can appear
//! and none can vanish. The evaluated `(lo, hi)` *literals* also match
//! in practice (the differential suite pins them on randomized nests),
//! with one principled exception: concrete elimination integer-tightens
//! every row by the gcd of its coefficients, and when an intermediate
//! row's index-coefficient gcd exceeds 1 while a parameter coefficient
//! is not divisible by it, the parametric run cannot tighten before the
//! next combination — its descendants may then be rationally *wider*.
//! Such widening only ever adds dark-shadow positions whose subtrees
//! contain no integer point (the standard FM behaviour; see
//! [`crate::fm`]'s module docs), i.e. empty inner loops, never extra
//! work. Rows derived directly from nest bounds are immune: a
//! unimodular transform cannot give them a nontrivial index gcd
//! (columns of `T⁻¹` sharing a common factor would divide `det = ±1`).

use crate::expr::AffineExpr;
use crate::fm::{Eliminator, Prune};
use crate::system::System;
use pdm_matrix::gcd::gcd_slice;
use pdm_matrix::num::{ceil_div, floor_div};
use pdm_matrix::vec::IVec;
use pdm_matrix::{MatrixError, Result};

/// Exact pruning is skipped for intermediate systems larger than this
/// (each exact test is a full FM feasibility run; a working system this
/// large means the structural and Kohler defenses have already failed
/// badly enough that quadratic-many feasibility runs would dominate
/// planning).
const EXACT_PRUNE_CAP: usize = 96;

/// One side of a loop bound: the rational expression `num / den` with
/// `den > 0`, to be rounded up (lower bounds) or down (upper bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundExpr {
    /// Numerator, an affine expression over the *outer* variables.
    pub num: AffineExpr,
    /// Positive denominator.
    pub den: i64,
}

impl BoundExpr {
    /// Evaluate as a lower bound: `⌈ num(x) / den ⌉`.
    pub fn eval_lower(&self, x: &[i64]) -> Result<i64> {
        ceil_div(self.num.eval(x)?, self.den)
    }

    /// Evaluate as an upper bound: `⌊ num(x) / den ⌋`.
    pub fn eval_upper(&self, x: &[i64]) -> Result<i64> {
        floor_div(self.num.eval(x)?, self.den)
    }

    /// Render as source text (`ceil`/`floor` spelled only when `den > 1`).
    pub fn display_with(&self, names: &[String], lower: bool) -> String {
        let inner = self.num.display_with(names);
        if self.den == 1 {
            inner
        } else if lower {
            format!("ceil(({inner})/{})", self.den)
        } else {
            format!("floor(({inner})/{})", self.den)
        }
    }
}

/// The bounds of one loop level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelBounds {
    /// Lower bound candidates (effective bound = max of all).
    pub lowers: Vec<BoundExpr>,
    /// Upper bound candidates (effective bound = min of all).
    pub uppers: Vec<BoundExpr>,
}

impl LevelBounds {
    /// Effective lower bound at the given outer-index prefix. The prefix
    /// slice must be padded to full dimension (inner entries are ignored
    /// because their coefficients are zero).
    pub fn lower(&self, x: &[i64]) -> Result<i64> {
        let mut best: Option<i64> = None;
        for b in &self.lowers {
            let v = b.eval_lower(x)?;
            best = Some(best.map_or(v, |c: i64| c.max(v)));
        }
        best.ok_or(MatrixError::Unbounded)
    }

    /// Effective upper bound at the given outer-index prefix.
    pub fn upper(&self, x: &[i64]) -> Result<i64> {
        let mut best: Option<i64> = None;
        for b in &self.uppers {
            let v = b.eval_upper(x)?;
            best = Some(best.map_or(v, |c: i64| c.min(v)));
        }
        best.ok_or(MatrixError::Unbounded)
    }
}

/// Loop bounds for every level of a nest, outermost first.
///
/// `dim` counts loop levels; `params` counts trailing parameter columns
/// of the row numerators (0 for concrete bounds). Parametric bounds are
/// a planning artifact — substitute a valuation
/// ([`LoopBounds::substitute_params`]) before evaluating ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBounds {
    dim: usize,
    params: usize,
    levels: Vec<LevelBounds>,
    /// Parameter-only residual rows of the parametric elimination
    /// (`g(params) ≥ 0`; zero coefficients on every level column). A
    /// valuation violating a guard makes the space empty — these are
    /// exactly the rows whose concrete images surface as the constant
    /// contradictions [`LoopBounds::from_system`] folds into its
    /// empty-space encoding, so [`LoopBounds::substitute_params`] checks
    /// them and injects the same encoding. Empty for concrete bounds.
    guards: Vec<AffineExpr>,
}

impl LoopBounds {
    /// Derive bounds for all levels from the constraint system by
    /// Fourier–Motzkin elimination (innermost variable first), with exact
    /// per-level redundancy pruning — the per-level rows are irredundant
    /// (see the module docs).
    pub fn from_system(sys: &System) -> Result<LoopBounds> {
        Self::from_system_pruned(sys, Prune::Exact)
    }

    /// [`LoopBounds::from_system`] with an explicit pruning level.
    /// [`Prune::None`] reproduces the historical unpruned behaviour —
    /// kept as the baseline the pruned levels are measured against.
    /// [`Prune::Fast`] and [`Prune::Exact`] thread **one** eliminator
    /// through every level, so Kohler histories persist across the
    /// per-level steps and eagerly drop implied combinations even where
    /// exact pruning is capped out; [`Prune::Exact`] additionally prunes
    /// each level's system exactly before its rows are read off.
    pub fn from_system_pruned(sys: &System, prune: Prune) -> Result<LoopBounds> {
        Self::from_system_parametric_pruned(sys, sys.dim(), prune)
    }

    /// Derive **parametric** bounds: only the leading `levels` columns of
    /// `sys` are loop indices (eliminated innermost-first); the trailing
    /// `sys.dim() − levels` columns are parameters carried through
    /// elimination into the extracted rows (see the module docs). With
    /// `levels == sys.dim()` this is exactly [`LoopBounds::from_system`].
    pub fn from_system_parametric(sys: &System, levels: usize) -> Result<LoopBounds> {
        Self::from_system_parametric_pruned(sys, levels, Prune::Exact)
    }

    /// [`LoopBounds::from_system_parametric`] with an explicit pruning
    /// level.
    pub fn from_system_parametric_pruned(
        sys: &System,
        levels: usize,
        prune: Prune,
    ) -> Result<LoopBounds> {
        let w = sys.dim();
        assert!(levels <= w, "more loop levels than system columns");
        let n = levels;
        let params = w - n;
        let mut out_levels: Vec<LevelBounds> = Vec::with_capacity(n);
        // Single working system reused across levels (no per-level
        // clone); exact pruning runs pre-extraction, so the eliminator's
        // own per-step mode never needs to be Exact.
        let step_prune = match prune {
            Prune::None => Prune::None,
            _ => Prune::Fast,
        };
        let mut el = Eliminator::new(sys, step_prune);
        let mut infeasible = false;
        // Walk from the innermost level to the outermost, recording the
        // bounds of x_k before eliminating it. Parameter columns are
        // never stepped — they stay in `rest` and become symbolic terms
        // of the extracted rows.
        let mut collected: Vec<LevelBounds> = Vec::with_capacity(n);
        for k in (0..n).rev() {
            infeasible |= el.has_constant_contradiction();
            if prune == Prune::Exact && el.len() <= EXACT_PRUNE_CAP {
                el.exact_prune()?;
            }
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            for e in el.exprs() {
                let a = e.coeff(k);
                if a == 0 {
                    continue;
                }
                // Strip the x_k term: rest = e - a*x_k.
                let mut rest = e.clone();
                rest.coeffs[k] = 0;
                if a > 0 {
                    // x_k >= ceil(-rest / a)
                    lowers.push(BoundExpr {
                        num: rest.scale(-1)?,
                        den: a,
                    });
                } else {
                    // x_k <= floor(rest / -a)
                    uppers.push(BoundExpr { num: rest, den: -a });
                }
            }
            collected.push(LevelBounds { lowers, uppers });
            el.step(k)?;
        }
        infeasible |= el.has_constant_contradiction();
        // Every level column is eliminated, so surviving non-constant
        // rows read parameters only: the feasibility guards.
        let guards: Vec<AffineExpr> = el.exprs().filter(|e| !e.is_constant()).cloned().collect();
        debug_assert!(guards.iter().all(|g| (0..n).all(|k| g.coeff(k) == 0)));
        collected.reverse();
        out_levels.extend(collected);
        if infeasible && n > 0 {
            // A constant contradiction anywhere makes the whole space
            // empty — and, being parameter-free, empty for every
            // valuation. Encode that as an always-empty outermost range
            // (lower 1 > upper 0) so every consumer sees zero points
            // without special cases.
            out_levels[0].lowers.push(BoundExpr {
                num: AffineExpr::constant(w, 1),
                den: 1,
            });
            out_levels[0].uppers.push(BoundExpr {
                num: AffineExpr::constant(w, 0),
                den: 1,
            });
        }
        Ok(LoopBounds {
            dim: n,
            params,
            levels: out_levels,
            guards,
        })
    }

    /// The parameter-only feasibility guards (see the field docs; empty
    /// for concrete bounds).
    pub fn guards(&self) -> &[AffineExpr] {
        &self.guards
    }

    /// Number of loop levels.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of trailing parameter columns (0 for concrete bounds).
    pub fn params(&self) -> usize {
        self.params
    }

    /// Does any bound row or feasibility guard read a parameter
    /// column with a nonzero coefficient? `false` means the described
    /// iteration set is *identical at every valuation* — the
    /// geometric precondition interval certification
    /// (`PlanTemplate::stability_box` in `pdm-core`) needs before it
    /// can reason about valuations purely through access offsets.
    pub fn reads_params(&self) -> bool {
        if self.params == 0 {
            return false;
        }
        let n = self.dim;
        let reads = |e: &AffineExpr| (n..n + self.params).any(|c| e.coeff(c) != 0);
        self.guards.iter().any(reads)
            || self
                .levels
                .iter()
                .any(|l| l.lowers.iter().chain(&l.uppers).any(|b| reads(&b.num)))
    }

    /// Fold an integer valuation of the parameters into the row
    /// constants, yielding concrete bounds — the cheap instantiation step
    /// of a plan template: one pass over the rows, **no Fourier–Motzkin,
    /// no planning**. Each substituted row is re-normalized exactly as
    /// concrete constraint normalization would have produced it (the
    /// denominator collapses with side-aware `ceil`/`floor` rounding when
    /// it divides every coefficient, common factors reduce, and
    /// parallel rows merge keeping the tightest constant). The
    /// enumerated integer points always match the concrete pipeline
    /// exactly; the range literals may be rationally wider only at
    /// integer-empty dark-shadow positions (see the module docs'
    /// exactness contract).
    pub fn substitute_params(&self, vals: &[i64]) -> Result<LoopBounds> {
        if vals.len() != self.params {
            return Err(MatrixError::DimMismatch {
                op: "LoopBounds::substitute_params",
                lhs: (1, self.params),
                rhs: (1, vals.len()),
            });
        }
        if self.params == 0 {
            return Ok(self.clone());
        }
        let n = self.dim;
        let fold_side = |rows: &[BoundExpr], lower: bool| -> Result<Vec<BoundExpr>> {
            let mut out: Vec<BoundExpr> = Vec::with_capacity(rows.len());
            for b in rows {
                let mut acc = b.num.constant as i128;
                for (j, &v) in vals.iter().enumerate() {
                    acc += b.num.coeff(n + j) as i128 * v as i128;
                }
                let mut constant = i64::try_from(acc).map_err(|_| MatrixError::Overflow)?;
                let mut coeffs: Vec<i64> = b.num.coeffs.as_slice()[..n].to_vec();
                let mut den = b.den;
                if den > 1 && coeffs.iter().all(|c| c % den == 0) {
                    // ⌈(den·c'·x + b)/den⌉ = c'·x + ⌈b/den⌉ (resp. ⌊·⌋):
                    // the rounding lands entirely on the constant.
                    for c in &mut coeffs {
                        *c /= den;
                    }
                    constant = if lower {
                        ceil_div(constant, den)?
                    } else {
                        floor_div(constant, den)?
                    };
                    den = 1;
                } else {
                    let mut all = coeffs.clone();
                    all.push(constant);
                    all.push(den);
                    let g = gcd_slice(&all);
                    if g > 1 {
                        for c in &mut coeffs {
                            *c /= g;
                        }
                        constant /= g;
                        den /= g;
                    }
                }
                let cand = BoundExpr {
                    num: AffineExpr::new(IVec(coeffs), constant),
                    den,
                };
                // Parallel-row dominance: identical (coeffs, den) rows
                // merge keeping the tightest constant (max of lowers,
                // min of uppers) — what the concrete pipeline's
                // constraint dedup produces.
                match out
                    .iter_mut()
                    .find(|e| e.num.coeffs == cand.num.coeffs && e.den == cand.den)
                {
                    Some(e) if lower => e.num.constant = e.num.constant.max(cand.num.constant),
                    Some(e) => e.num.constant = e.num.constant.min(cand.num.constant),
                    None => out.push(cand),
                }
            }
            Ok(out)
        };
        let mut levels = Vec::with_capacity(self.levels.len());
        for l in &self.levels {
            levels.push(LevelBounds {
                lowers: fold_side(&l.lowers, true)?,
                uppers: fold_side(&l.uppers, false)?,
            });
        }
        // Feasibility guards: a violated guard means the space is empty
        // at this valuation — inject the same always-empty outermost
        // encoding the concrete pipeline derives from its constant
        // contradictions, so schedulers enumerate zero groups instead of
        // walking empty-work prefixes.
        let mut violated = false;
        for g in &self.guards {
            let mut acc = g.constant as i128;
            for (j, &v) in vals.iter().enumerate() {
                acc += g.coeff(n + j) as i128 * v as i128;
            }
            if acc < 0 {
                violated = true;
                break;
            }
        }
        if violated && n > 0 {
            levels[0].lowers.push(BoundExpr {
                num: AffineExpr::constant(n, 1),
                den: 1,
            });
            levels[0].uppers.push(BoundExpr {
                num: AffineExpr::constant(n, 0),
                den: 1,
            });
        }
        Ok(LoopBounds {
            dim: n,
            params: 0,
            levels,
            guards: Vec::new(),
        })
    }

    /// Bounds of level `k`.
    pub fn level(&self, k: usize) -> &LevelBounds {
        &self.levels[k]
    }

    /// Bound rows (lowers + uppers) at each level, outermost first — the
    /// per-iteration `max`/`min` work a consumer performs.
    pub fn rows_per_level(&self) -> Vec<usize> {
        self.levels
            .iter()
            .map(|l| l.lowers.len() + l.uppers.len())
            .collect()
    }

    /// Total bound rows across all levels.
    pub fn total_rows(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.lowers.len() + l.uppers.len())
            .sum()
    }

    /// The `(lower, upper)` range of level `k` for a given prefix of outer
    /// indices (`prefix.len() == k`). Returns `Err(Unbounded)` when FM
    /// found no bound on that side. Concrete bounds only: parametric
    /// bounds must be lowered with [`LoopBounds::substitute_params`]
    /// first (evaluation fails loudly on the dimension mismatch
    /// otherwise).
    pub fn range(&self, k: usize, prefix: &[i64]) -> Result<(i64, i64)> {
        assert_eq!(prefix.len(), k, "prefix must cover outer levels");
        let mut x = prefix.to_vec();
        x.resize(self.dim, 0);
        Ok((self.levels[k].lower(&x)?, self.levels[k].upper(&x)?))
    }

    /// Enumerate every integer point, lexicographically.
    pub fn enumerate(&self) -> Result<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        let mut prefix: Vec<i64> = Vec::with_capacity(self.dim);
        self.walk(&mut prefix, &mut out)?;
        Ok(out)
    }

    fn walk(&self, prefix: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) -> Result<()> {
        let k = prefix.len();
        if k == self.dim {
            out.push(prefix.clone());
            return Ok(());
        }
        let (lo, hi) = self.range(k, prefix)?;
        for v in lo..=hi {
            prefix.push(v);
            self.walk(prefix, out)?;
            prefix.pop();
        }
        Ok(())
    }

    /// Total number of integer points (counted via enumeration of the
    /// outer levels only where possible; exact but not asymptotically
    /// clever — used by tests and metrics, not inner loops).
    pub fn count_points(&self) -> Result<u64> {
        let mut count = 0u64;
        let mut prefix: Vec<i64> = Vec::with_capacity(self.dim);
        self.count_walk(&mut prefix, &mut count)?;
        Ok(count)
    }

    fn count_walk(&self, prefix: &mut Vec<i64>, count: &mut u64) -> Result<()> {
        let k = prefix.len();
        let (lo, hi) = self.range(k, prefix)?;
        if k == self.dim - 1 {
            if hi >= lo {
                *count += (hi - lo + 1) as u64;
            }
            return Ok(());
        }
        for v in lo..=hi {
            prefix.push(v);
            self.count_walk(prefix, count)?;
            prefix.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_matrix::vec::IVec;

    fn ge0(coeffs: &[i64], c: i64) -> AffineExpr {
        AffineExpr::new(IVec::from_slice(coeffs), c)
    }

    #[test]
    fn rectangular_bounds_roundtrip() {
        let mut s = System::universe(2);
        s.add_range(0, 1, 3).unwrap();
        s.add_range(1, -1, 1).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        assert_eq!(b.range(0, &[]).unwrap(), (1, 3));
        assert_eq!(b.range(1, &[2]).unwrap(), (-1, 1));
        let pts = b.enumerate().unwrap();
        assert_eq!(pts.len(), 9);
        assert_eq!(pts[0], vec![1, -1]);
        assert_eq!(pts[8], vec![3, 1]);
        assert_eq!(b.count_points().unwrap(), 9);
    }

    #[test]
    fn triangular_bounds() {
        // 0 <= x0 <= 4, 0 <= x1 <= x0.
        let mut s = System::universe(2);
        s.add_range(0, 0, 4).unwrap();
        s.add_ge0(ge0(&[0, 1], 0)).unwrap();
        s.add_ge0(ge0(&[1, -1], 0)).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        let pts = b.enumerate().unwrap();
        assert_eq!(pts.len(), 5 + 4 + 3 + 2 + 1);
        for p in &pts {
            assert!(p[1] >= 0 && p[1] <= p[0]);
        }
    }

    #[test]
    fn skewed_space_matches_brute_force() {
        // The paper's §4.1 transformed outer loop: j1 = i1 - i2 etc.
        // Use constraints 0 <= y0 + y1 <= 9, 0 <= y1 <= 9 (image of a box
        // under a skew) and compare with direct filtering.
        let mut s = System::universe(2);
        s.add_ge0(ge0(&[1, 1], 0)).unwrap();
        s.add_ge0(ge0(&[-1, -1], 9)).unwrap();
        s.add_range(1, 0, 9).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        let mut expect = Vec::new();
        for y0 in -20..=20i64 {
            for y1 in -20..=20i64 {
                if y0 + y1 >= 0 && y0 + y1 <= 9 && (0..=9).contains(&y1) {
                    expect.push(vec![y0, y1]);
                }
            }
        }
        let got = b.enumerate().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn divided_bounds_use_ceil_floor() {
        // 0 <= 2*x0 <= 7  =>  x0 in [0, 3].
        let mut s = System::universe(1);
        s.add_ge0(ge0(&[2], 0)).unwrap();
        s.add_ge0(ge0(&[-2], 7)).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        assert_eq!(b.range(0, &[]).unwrap(), (0, 3));
    }

    #[test]
    fn unbounded_detected() {
        let mut s = System::universe(1);
        s.add_ge0(ge0(&[1], 0)).unwrap(); // x0 >= 0 only
        let b = LoopBounds::from_system(&s).unwrap();
        assert_eq!(b.range(0, &[]), Err(MatrixError::Unbounded));
    }

    #[test]
    fn empty_ranges_enumerate_to_nothing() {
        let mut s = System::universe(2);
        s.add_range(0, 3, 2).unwrap(); // empty outer
        s.add_range(1, 0, 5).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        assert_eq!(b.enumerate().unwrap().len(), 0);
        assert_eq!(b.count_points().unwrap(), 0);
    }

    #[test]
    fn display_spells_ceil_floor() {
        let be = BoundExpr {
            num: ge0(&[1, 0], 3),
            den: 2,
        };
        let names = vec!["i".to_string(), "j".to_string()];
        assert_eq!(be.display_with(&names, true), "ceil((i + 3)/2)");
        assert_eq!(be.display_with(&names, false), "floor((i + 3)/2)");
        let be1 = BoundExpr {
            num: ge0(&[0, 1], 0),
            den: 1,
        };
        assert_eq!(be1.display_with(&names, true), "j");
    }

    #[test]
    fn pruned_bounds_enumerate_identically_with_fewer_rows() {
        use crate::fm::Prune;
        // A triangle plus redundant cuts: same points, fewer rows.
        let mut s = System::universe(2);
        s.add_ge0(ge0(&[1, 0], 0)).unwrap();
        s.add_ge0(ge0(&[0, 1], 0)).unwrap();
        s.add_ge0(ge0(&[-1, -1], 6)).unwrap();
        s.add_ge0(ge0(&[-1, 0], 20)).unwrap(); // x0 <= 20: implied
        s.add_ge0(ge0(&[0, -1], 11)).unwrap(); // x1 <= 11: implied
        s.add_ge0(ge0(&[-2, -1], 40)).unwrap(); // implied
        let pruned = LoopBounds::from_system(&s).unwrap();
        let raw = LoopBounds::from_system_pruned(&s, Prune::None).unwrap();
        assert_eq!(pruned.enumerate().unwrap(), raw.enumerate().unwrap());
        assert!(
            pruned.total_rows() < raw.total_rows(),
            "{} vs {}",
            pruned.total_rows(),
            raw.total_rows()
        );
        // The triangle needs exactly two rows per level.
        assert_eq!(pruned.rows_per_level(), vec![2, 2]);
    }

    #[test]
    fn dominated_parallel_rows_pruned_from_level_bounds() {
        // x >= 0, x <= 5, x <= 9: the dominated upper bound must not
        // survive into the extracted level rows (regression: exact_prune
        // once only synced rows removed by negation tests, not by the
        // structural merge).
        let mut s = System::universe(1);
        s.add_ge0(ge0(&[1], 0)).unwrap();
        s.add_ge0(ge0(&[-1], 5)).unwrap();
        s.add_ge0(ge0(&[-1], 9)).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        assert_eq!(b.rows_per_level(), vec![2]);
        assert_eq!(b.range(0, &[]).unwrap(), (0, 5));
    }

    /// The triangle `0 ≤ x_0 ≤ N`, `0 ≤ x_1 ≤ x_0` with one parameter
    /// column: parametric derivation + substitution must agree with the
    /// concrete pipeline for every size — including empty ones.
    #[test]
    fn parametric_triangle_matches_concrete_per_size() {
        // Columns: x0, x1, N.
        let mut sym = System::universe(3);
        sym.add_ge0(ge0(&[1, 0, 0], 0)).unwrap();
        sym.add_ge0(ge0(&[-1, 0, 1], 0)).unwrap(); // x0 <= N
        sym.add_ge0(ge0(&[0, 1, 0], 0)).unwrap();
        sym.add_ge0(ge0(&[1, -1, 0], 0)).unwrap(); // x1 <= x0
        let pb = LoopBounds::from_system_parametric(&sym, 2).unwrap();
        assert_eq!(pb.dim(), 2);
        assert_eq!(pb.params(), 1);
        assert!(pb.reads_params(), "x0 <= N reads the parameter column");
        for n in [-1i64, 0, 1, 5, 9] {
            let inst = pb.substitute_params(&[n]).unwrap();
            assert_eq!(inst.params(), 0);
            assert!(!inst.reads_params(), "concrete bounds read no params");
            let mut conc = System::universe(2);
            conc.add_range(0, 0, n).unwrap();
            conc.add_ge0(ge0(&[0, 1], 0)).unwrap();
            conc.add_ge0(ge0(&[1, -1], 0)).unwrap();
            let cb = LoopBounds::from_system(&conc).unwrap();
            assert_eq!(inst.enumerate().unwrap(), cb.enumerate().unwrap(), "N={n}");
        }
    }

    /// A parametric column that no row actually uses (concrete extents,
    /// parameters only in the nest's accesses) reads no params — the
    /// shape interval certification keys on.
    #[test]
    fn unused_parameter_columns_read_nothing() {
        let mut sym = System::universe(2); // x0, K (K never constrained)
        sym.add_ge0(ge0(&[1, 0], 0)).unwrap();
        sym.add_ge0(ge0(&[-1, 0], 9)).unwrap(); // x0 <= 9
        let pb = LoopBounds::from_system_parametric(&sym, 1).unwrap();
        assert_eq!(pb.params(), 1);
        assert!(!pb.reads_params());
    }

    /// Divided parametric bounds: `0 ≤ 2·x_0 ≤ N` must instantiate to the
    /// same rows concrete normalization produces (denominator collapse
    /// with floor rounding).
    #[test]
    fn parametric_substitution_renormalizes_rows() {
        let mut sym = System::universe(2); // x0, N
        sym.add_ge0(ge0(&[2, 0], 0)).unwrap();
        sym.add_ge0(ge0(&[-2, 1], 0)).unwrap(); // 2*x0 <= N
        let pb = LoopBounds::from_system_parametric(&sym, 1).unwrap();
        for n in [0i64, 7, 9, 10] {
            let inst = pb.substitute_params(&[n]).unwrap();
            let mut conc = System::universe(1);
            conc.add_ge0(ge0(&[2], 0)).unwrap();
            conc.add_ge0(ge0(&[-2], n)).unwrap();
            let cb = LoopBounds::from_system(&conc).unwrap();
            assert_eq!(inst.range(0, &[]).unwrap(), cb.range(0, &[]).unwrap());
            // Rows match structurally, not just semantically: the
            // substituted upper collapses to den 1 with a floor-divided
            // constant, exactly like the gcd-normalized concrete row.
            assert_eq!(inst.level(0), cb.level(0), "N={n}");
        }
    }

    /// Two parallel parametric uppers merge under substitution keeping
    /// the tightest, matching concrete dedup.
    #[test]
    fn parametric_substitution_merges_parallel_rows() {
        let mut sym = System::universe(3); // x0, N, M
        sym.add_ge0(ge0(&[1, 0, 0], 0)).unwrap();
        sym.add_ge0(ge0(&[-1, 1, 0], 0)).unwrap(); // x0 <= N
        sym.add_ge0(ge0(&[-1, 0, 1], 0)).unwrap(); // x0 <= M
        let pb = LoopBounds::from_system_parametric_pruned(&sym, 1, Prune::Exact).unwrap();
        let inst = pb.substitute_params(&[9, 4]).unwrap();
        assert_eq!(inst.level(0).uppers.len(), 1);
        assert_eq!(inst.range(0, &[]).unwrap(), (0, 4));
        let wider = pb.substitute_params(&[3, 8]).unwrap();
        assert_eq!(wider.range(0, &[]).unwrap(), (0, 3));
    }

    /// `x_0 ∈ [0,4]`, `x_1 ∈ [3, N]`: for `N < 3` the space is empty in a
    /// way only visible *across* levels — the parametric run must keep
    /// the `N − 3 ≥ 0` residual as a guard and inject the empty-space
    /// encoding at substitution, exactly like the concrete pipeline's
    /// constant-contradiction path, so schedulers enumerate zero
    /// outer-level values instead of empty-work ones.
    #[test]
    fn guards_empty_the_space_like_concrete_contradictions() {
        let mut sym = System::universe(3); // x0, x1, N
        sym.add_range(0, 0, 4).unwrap();
        sym.add_ge0(ge0(&[0, 1, 0], -3)).unwrap(); // x1 >= 3
        sym.add_ge0(ge0(&[0, -1, 1], 0)).unwrap(); // x1 <= N
        let pb = LoopBounds::from_system_parametric(&sym, 2).unwrap();
        assert!(
            pb.guards().iter().any(|g| g.coeff(2) != 0),
            "guard on N expected, got {:?}",
            pb.guards()
        );
        let empty = pb.substitute_params(&[2]).unwrap();
        assert!(empty.guards().is_empty());
        assert_eq!(empty.range(0, &[]).unwrap(), (1, 0), "empty encoding");
        assert_eq!(empty.enumerate().unwrap().len(), 0);
        let full = pb.substitute_params(&[9]).unwrap();
        assert_eq!(full.range(0, &[]).unwrap(), (0, 4));
        assert_eq!(full.enumerate().unwrap().len(), 5 * 7);
    }

    #[test]
    fn substitute_params_validates_arity() {
        let mut s = System::universe(1);
        s.add_range(0, 0, 4).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        // Concrete bounds: the empty valuation is the identity…
        assert_eq!(b.substitute_params(&[]).unwrap(), b);
        // …and a surplus valuation is an error.
        assert!(b.substitute_params(&[3]).is_err());
    }

    #[test]
    fn three_level_tetrahedron() {
        // 0 <= x0 <= x1 <= x2 <= 3: count = C(5,3)? Enumerate vs filter.
        let mut s = System::universe(3);
        s.add_ge0(ge0(&[1, 0, 0], 0)).unwrap();
        s.add_ge0(ge0(&[-1, 1, 0], 0)).unwrap();
        s.add_ge0(ge0(&[0, -1, 1], 0)).unwrap();
        s.add_ge0(ge0(&[0, 0, -1], 3)).unwrap();
        let b = LoopBounds::from_system(&s).unwrap();
        let got = b.enumerate().unwrap();
        let mut expect = Vec::new();
        for x0 in 0..=3i64 {
            for x1 in x0..=3 {
                for x2 in x1..=3 {
                    expect.push(vec![x0, x1, x2]);
                }
            }
        }
        assert_eq!(got, expect);
    }
}
