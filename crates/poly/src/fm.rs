//! Fourier–Motzkin elimination with redundancy control.
//!
//! Projecting a variable `x_k` out of a system of affine inequalities:
//! every pair of a lower bound `a·x_k ≥ L(x)` (`a > 0`) and an upper bound
//! `b·x_k ≤ U(x)` (`b > 0`) combines into the `x_k`-free consequence
//! `b·L(x) ≤ a·U(x)`. Constraints not mentioning `x_k` pass through.
//!
//! The rational projection is exact for the loop-bound use case: the
//! *original* constraints still bound the inner loops, and the projected
//! ones bound the outer loops, so every generated iteration is real and
//! none is missed (possible integer "dark shadow" gaps only manifest as
//! empty inner loops, the standard behaviour of FM-generated bounds which
//! the paper also exhibits with its `max/min/ceil/floor` bounds).
//!
//! # Redundancy pruning
//!
//! Raw pairing grows intermediate systems quadratically per step, and most
//! generated rows are implied by the others. Three defenses keep the
//! working system small (selected via [`Prune`]):
//!
//! 1. **Structural** (always on): every row is gcd-normalized, trivially
//!    true constants are dropped, and parallel rows (identical primitive
//!    coefficient vectors) are merged keeping the tightest constant — the
//!    dominated row is implied by the kept one, so removal is exact.
//! 2. **History bookkeeping** ([`Prune::Fast`]) — Imbert/Kohler style:
//!    each row carries the set of *original* constraints it was derived
//!    from; when two rows combine, the histories union. Kohler's
//!    acceleration theorem states that after eliminating `k` variables,
//!    any derived row whose history exceeds `k + 1` original rows is a
//!    redundant consequence of the rows with smaller histories, so it is
//!    dropped eagerly at combine time. Because gcd tightening only
//!    *strengthens* rows on integer points (`a·x + c ≥ 0 ⇔ (a/g)·x +
//!    ⌊c/g⌋ ≥ 0` for integer `x`), the implication certificate survives
//!    the tightening and the drop preserves the integer solution set.
//! 3. **Exact** ([`Prune::Exact`]): after each step the surviving rows
//!    are pruned with [`crate::system::System::prune_redundant`] — a row
//!    is removed iff the system with that row *negated* (`e ≤ −1`) is
//!    rationally infeasible, decided by [`is_rationally_feasible`]. This
//!    yields an irredundant system (over the integers) at every step.
//!
//! Elimination **order** matters for intermediate growth:
//! [`eliminate_all`] picks the next variable by the classic *min-pairs*
//! greedy — the candidate minimizing `#lower · #upper` produces the
//! fewest combined rows. The projection itself is order-independent, so
//! callers supply a *set* of variables.
//!
//! # Parameter columns
//!
//! Elimination only ever touches the variable it is stepping: columns a
//! caller never passes — the **parameter columns** of a symbolic
//! pipeline (`LoopBounds::from_system_parametric` eliminates loop
//! indices only) — are carried verbatim through every combination, so
//! the projected system stays exact *as a function of the parameters*.
//! The Kohler history rule and exact pruning remain sound in that
//! reading: both certify implications that hold with parameters as free
//! variables, hence for every instantiation.

use crate::expr::AffineExpr;
use crate::system::{negate_ge0, normalize_ge0, System};
use pdm_matrix::vec::IVec;
use pdm_matrix::Result;
use std::collections::HashMap;

/// Per-step exact pruning is skipped above this working-system size:
/// each exact test is itself an FM feasibility run, so on systems where
/// the Kohler rule already failed to contain growth, quadratic-many
/// feasibility runs would cost more than the rows they remove save.
const EXACT_STEP_CAP: usize = 64;

/// How aggressively elimination prunes redundant intermediate rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prune {
    /// Structural cleanup only (gcd normalization, parallel-row
    /// dominance) — the historical baseline.
    None,
    /// Structural cleanup plus Kohler/Imbert history bookkeeping: cheap,
    /// eager, and exact on integer points.
    Fast,
    /// [`Prune::Fast`] plus exact per-step pruning via rational
    /// feasibility of the negated row, skipped for working systems above
    /// an internal size cap. Produces (near-)irredundant intermediate
    /// systems at higher (polynomial, not exponential) per-step cost.
    Exact,
}

/// Row-count accounting for one multi-variable elimination run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElimStats {
    /// Largest working-system size observed after any step.
    pub peak_rows: usize,
    /// Combined rows dropped eagerly by the Kohler history rule.
    pub dropped_history: usize,
    /// Rows removed by exact (negation-infeasibility) pruning.
    pub dropped_exact: usize,
}

/// A working row: the constraint plus the set of original-system rows it
/// was derived from (bitset over original indices; meaningful only while
/// `tracked`).
#[derive(Debug, Clone)]
struct Row {
    expr: AffineExpr,
    hist: u128,
}

/// The mutable elimination state: one working system reused across steps
/// (no per-step clone of the full system). Crate-visible so
/// [`crate::bounds`] can walk the levels with persistent histories.
pub(crate) struct Eliminator {
    dim: usize,
    rows: Vec<Row>,
    /// Number of elimination steps performed (Kohler's `k`).
    eliminated: usize,
    /// Histories are valid (≤ 128 original rows and pruning requested).
    tracked: bool,
    prune: Prune,
    stats: ElimStats,
}

impl Eliminator {
    pub(crate) fn new(sys: &System, prune: Prune) -> Eliminator {
        let tracked = prune != Prune::None && sys.len() <= 128;
        let rows: Vec<Row> = sys
            .constraints()
            .iter()
            .enumerate()
            .map(|(i, e)| Row {
                expr: e.clone(),
                hist: if tracked { 1u128 << i } else { 0 },
            })
            .collect();
        let stats = ElimStats {
            peak_rows: rows.len(),
            ..ElimStats::default()
        };
        Eliminator {
            dim: sys.dim(),
            rows,
            eliminated: 0,
            tracked,
            prune,
            stats,
        }
    }

    pub(crate) fn has_constant_contradiction(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.expr.is_constant() && r.expr.constant < 0)
    }

    /// Current working constraints.
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &AffineExpr> {
        self.rows.iter().map(|r| &r.expr)
    }

    /// Current working-system size.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// `#lower · #upper` for variable `k` — the number of combined rows
    /// one elimination step would generate (min-pairs score).
    fn pair_score(&self, k: usize) -> (usize, usize) {
        let mut lowers = 0usize;
        let mut uppers = 0usize;
        for r in &self.rows {
            match r.expr.coeff(k).signum() {
                1.. => lowers += 1,
                0 => {}
                _ => uppers += 1,
            }
        }
        (lowers * uppers, lowers + uppers)
    }

    /// Eliminate `x_k` in place: pair every lower with every upper, keep
    /// the free rows, then dedup / prune.
    pub(crate) fn step(&mut self, k: usize) -> Result<()> {
        assert!(k < self.dim, "variable index out of range");
        let mut lowers: Vec<Row> = Vec::new();
        let mut uppers: Vec<Row> = Vec::new();
        let mut out: Vec<Row> = Vec::new();
        for r in self.rows.drain(..) {
            match r.expr.coeff(k).signum() {
                0 => out.push(r),
                1.. => lowers.push(r),
                _ => uppers.push(r),
            }
        }
        self.eliminated += 1;
        // Kohler: after eliminating `k` variables, a derived row combining
        // more than `k + 1` original rows is redundant.
        let budget = self.eliminated + 1;
        for lo in &lowers {
            for up in &uppers {
                let hist = lo.hist | up.hist;
                if self.tracked && hist.count_ones() as usize > budget {
                    self.stats.dropped_history += 1;
                    continue;
                }
                let a = lo.expr.coeff(k); // > 0
                let b = -up.expr.coeff(k); // > 0
                                           // b*lo + a*up has zero x_k coefficient.
                let combined = lo.expr.scale(b)?.add(&up.expr.scale(a)?)?;
                debug_assert_eq!(combined.coeff(k), 0);
                if let Some(e) = normalize_ge0(combined)? {
                    out.push(Row { expr: e, hist });
                }
            }
        }
        self.rows = out;
        self.dedup();
        if self.prune == Prune::Exact && self.rows.len() <= EXACT_STEP_CAP {
            self.exact_prune()?;
        }
        self.stats.peak_rows = self.stats.peak_rows.max(self.rows.len());
        Ok(())
    }

    /// Merge parallel rows keeping the tightest constant (and, among equal
    /// constants, the smallest history so the Kohler rule keeps biting).
    fn dedup(&mut self) {
        let mut best: HashMap<IVec, usize> = HashMap::new();
        let mut out: Vec<Row> = Vec::with_capacity(self.rows.len());
        for r in self.rows.drain(..) {
            match best.entry(r.expr.coeffs.clone()) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    let cur = &mut out[*o.get()];
                    let tighter = r.expr.constant < cur.expr.constant
                        || (r.expr.constant == cur.expr.constant
                            && r.hist.count_ones() < cur.hist.count_ones());
                    if tighter {
                        *cur = r;
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(out.len());
                    out.push(r);
                }
            }
        }
        self.rows = out;
    }

    /// Exact pruning of the working rows, preserving histories of the
    /// survivors (coefficient vectors are unique after [`Self::dedup`], so
    /// survivors are identified by expression). Rows can disappear both
    /// through `prune_redundant`'s negation tests and through the
    /// structural merge inside it, so survivorship is decided by the
    /// resulting row count, not the negation-removal count alone.
    pub(crate) fn exact_prune(&mut self) -> Result<()> {
        if self.rows.len() <= 1 {
            return Ok(());
        }
        let before = self.rows.len();
        let mut sys = self.to_system()?;
        sys.prune_redundant()?;
        if sys.len() != before {
            let keep: std::collections::HashSet<&AffineExpr> = sys.constraints().iter().collect();
            self.rows.retain(|r| keep.contains(&r.expr));
            self.stats.dropped_exact += before - self.rows.len();
        }
        Ok(())
    }

    fn to_system(&self) -> Result<System> {
        let mut out = System::universe(self.dim);
        for r in &self.rows {
            out.add_ge0(r.expr.clone())?;
        }
        Ok(out)
    }

    fn into_system(self) -> Result<System> {
        let mut out = self.to_system()?;
        out.simplify();
        Ok(out)
    }
}

/// Eliminate variable `k`, returning a system over the same variable set
/// whose constraints no longer mention `x_k`. Single-step: structural
/// pruning only (the Kohler rule cannot fire on one step, and exact
/// pruning is the caller's choice — see
/// [`crate::system::System::prune_redundant`]).
pub fn eliminate(sys: &System, k: usize) -> Result<System> {
    let mut el = Eliminator::new(sys, Prune::None);
    el.step(k)?;
    el.into_system()
}

/// Eliminate the *set* of variables `vars` with [`Prune::Fast`]
/// bookkeeping, choosing the elimination order by the min-pairs greedy.
/// The projection (hence feasibility and integer membership over the
/// remaining variables) is order-independent; the literal constraint set
/// returned may differ from a fixed-order run.
pub fn eliminate_all(sys: &System, vars: &[usize]) -> Result<System> {
    Ok(eliminate_all_stats(sys, vars, Prune::Fast)?.0)
}

/// [`eliminate_all`] with an explicit [`Prune`] level, also returning
/// row-count statistics — the instrumented entry point that measures
/// pruning effectiveness (the peak rows are pinned by
/// `tests/fm_peak_rows.rs`).
pub fn eliminate_all_stats(
    sys: &System,
    vars: &[usize],
    prune: Prune,
) -> Result<(System, ElimStats)> {
    let mut el = Eliminator::new(sys, prune);
    let mut remaining: Vec<usize> = vars.to_vec();
    remaining.sort_unstable();
    remaining.dedup();
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &k)| el.pair_score(k))
            .expect("non-empty");
        let k = remaining.swap_remove(pos);
        el.step(k)?;
    }
    let stats = el.stats;
    Ok((el.into_system()?, stats))
}

/// Is the system feasible over the *rationals*? Projects out every
/// variable (min-pairs order, Kohler-pruned) with an early exit as soon
/// as a constant contradiction appears.
///
/// (Rational feasibility is what plain FM decides; integer gaps are
/// handled at bound-enumeration time. This function must not use
/// [`Prune::Exact`]: exact pruning itself calls back into feasibility.)
pub fn is_rationally_feasible(sys: &System) -> Result<bool> {
    let mut el = Eliminator::new(sys, Prune::Fast);
    let mut remaining: Vec<usize> = (0..sys.dim()).collect();
    while !remaining.is_empty() {
        if el.has_constant_contradiction() {
            return Ok(false);
        }
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &k)| el.pair_score(k))
            .expect("non-empty");
        let k = remaining.swap_remove(pos);
        el.step(k)?;
    }
    Ok(!el.has_constant_contradiction())
}

/// Decide whether `e ≥ 0` is redundant in `sys` (which need not contain
/// it): redundant iff `sys ∧ (e ≤ −1)` is rationally infeasible, i.e. no
/// integer point of `sys` violates `e ≥ 0`.
pub fn is_redundant(sys: &System, e: &AffineExpr) -> Result<bool> {
    let Some(neg) = negate_ge0(e)? else {
        // Negation overflowed: conservatively treat as irredundant.
        return Ok(false);
    };
    let mut test = sys.clone();
    test.add_ge0(neg)?;
    Ok(!is_rationally_feasible(&test)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_matrix::vec::IVec;

    fn ge0(coeffs: &[i64], c: i64) -> AffineExpr {
        AffineExpr::new(IVec::from_slice(coeffs), c)
    }

    #[test]
    fn projection_of_a_box_is_a_box() {
        let mut s = System::universe(2);
        s.add_range(0, 1, 4).unwrap();
        s.add_range(1, 2, 7).unwrap();
        let p = eliminate(&s, 1).unwrap();
        // x1 gone; x0 range survives.
        for x0 in -2..8 {
            assert_eq!(
                p.contains(&[x0, 0]).unwrap(),
                (1..=4).contains(&x0),
                "x0={x0}"
            );
        }
        assert!(p.constraints().iter().all(|e| e.coeff(1) == 0));
    }

    #[test]
    fn projection_matches_exists_semantics_on_triangle() {
        // Triangle: x0 >= 0, x1 >= 0, x0 + x1 <= 5.
        let mut s = System::universe(2);
        s.add_ge0(ge0(&[1, 0], 0)).unwrap();
        s.add_ge0(ge0(&[0, 1], 0)).unwrap();
        s.add_ge0(ge0(&[-1, -1], 5)).unwrap();
        let p = eliminate(&s, 1).unwrap();
        for x0 in -3..9i64 {
            let exists = (-10..=10).any(|x1| s.contains(&[x0, x1]).unwrap());
            assert_eq!(p.contains(&[x0, 0]).unwrap(), exists, "x0={x0}");
        }
    }

    #[test]
    fn skewed_constraints_combine() {
        // 2*x1 >= x0  and  3*x1 <= 12 - x0  =>  combine: 3*x0 <= 2*(12-x0)
        // i.e. 24 - 5*x0 >= 0.
        let mut s = System::universe(2);
        s.add_ge0(ge0(&[-1, 2], 0)).unwrap();
        s.add_ge0(ge0(&[-1, -3], 12)).unwrap();
        let p = eliminate(&s, 1).unwrap();
        for x0 in -10..=10i64 {
            let exists = (-50..=50).any(|x1| s.contains(&[x0, x1]).unwrap());
            assert_eq!(p.contains(&[x0, 0]).unwrap(), exists, "x0={x0}");
        }
    }

    #[test]
    fn feasibility() {
        let mut s = System::universe(2);
        s.add_range(0, 0, 3).unwrap();
        assert!(is_rationally_feasible(&s).unwrap());
        // Contradiction: x0 >= 4 with x0 <= 3.
        s.add_ge0(ge0(&[1, 0], -4)).unwrap();
        assert!(!is_rationally_feasible(&s).unwrap());
    }

    #[test]
    fn eliminate_all_leaves_constants() {
        let mut s = System::universe(3);
        s.add_range(0, 0, 2).unwrap();
        s.add_range(1, 0, 2).unwrap();
        s.add_range(2, 0, 2).unwrap();
        let p = eliminate_all(&s, &[2, 1, 0]).unwrap();
        assert!(!p.has_constant_contradiction());
        assert!(p.constraints().iter().all(|e| e.is_constant()) || p.is_empty());
    }

    #[test]
    fn unbounded_variable_projects_to_free() {
        // Only a lower bound on x1: projection keeps every x0 constraint
        // and produces nothing new.
        let mut s = System::universe(2);
        s.add_range(0, 0, 1).unwrap();
        s.add_ge0(ge0(&[0, 1], 0)).unwrap(); // x1 >= 0, no upper
        let p = eliminate(&s, 1).unwrap();
        assert!(p.contains(&[0, -99]).unwrap());
        assert!(!p.contains(&[2, 0]).unwrap());
    }

    #[test]
    fn empty_integer_interior_is_rationally_feasible() {
        // 2 <= 2*x0 <= 3 has rational solutions (x0 = 1.25) and the single
        // integer x0=1: after gcd tightening (2x0-2>=0 -> x0-1>=0,
        // 3-2x0>=0 -> tightened via floor(3/2): 1 - x0 >= 0) membership is
        // exactly x0 == 1.
        let mut s = System::universe(1);
        s.add_ge0(ge0(&[2], -2)).unwrap();
        s.add_ge0(ge0(&[-2], 3)).unwrap();
        assert!(s.contains(&[1]).unwrap());
        assert!(!s.contains(&[2]).unwrap());
        assert!(is_rationally_feasible(&s).unwrap());
    }

    /// A chain x0 ≤ x1 ≤ … ≤ x_{d−1} inside a box: eliminating the middle
    /// variables with history tracking must agree with the unpruned run on
    /// feasibility and on membership over the surviving variables.
    #[test]
    fn kohler_pruning_matches_unpruned_projection() {
        let d = 4;
        let mut s = System::universe(d);
        for i in 0..d {
            s.add_range(i, -3, 3).unwrap();
        }
        for i in 0..d - 1 {
            // x_{i+1} - x_i >= 0.
            let mut c = vec![0i64; d];
            c[i] = -1;
            c[i + 1] = 1;
            s.add_ge0(ge0(&c, 0)).unwrap();
        }
        let (fast, fstats) = eliminate_all_stats(&s, &[1, 2], Prune::Fast).unwrap();
        let (none, nstats) = eliminate_all_stats(&s, &[1, 2], Prune::None).unwrap();
        assert!(fstats.peak_rows <= nstats.peak_rows);
        for x0 in -5..=5i64 {
            for x3 in -5..=5i64 {
                let p = [x0, 0, 0, x3];
                assert_eq!(
                    fast.contains(&p).unwrap(),
                    none.contains(&p).unwrap(),
                    "x0={x0} x3={x3}"
                );
            }
        }
    }

    #[test]
    fn exact_elimination_prunes_harder() {
        // Dense couplings blow up unpruned FM; exact pruning must keep the
        // peak strictly smaller while preserving feasibility.
        let d = 5;
        let mut s = System::universe(d);
        for i in 0..d {
            s.add_range(i, -4, 4).unwrap();
        }
        for i in 0..d {
            for j in i + 1..d {
                let mut c = vec![0i64; d];
                c[i] = 1;
                c[j] = 1;
                s.add_ge0(ge0(&c, 5)).unwrap();
                let neg: Vec<i64> = c.iter().map(|v| -v).collect();
                s.add_ge0(ge0(&neg, 5)).unwrap();
            }
        }
        let vars: Vec<usize> = (0..d).collect();
        let (_, none) = eliminate_all_stats(&s, &vars, Prune::None).unwrap();
        let (ex_sys, ex) = eliminate_all_stats(&s, &vars, Prune::Exact).unwrap();
        assert!(ex.peak_rows < none.peak_rows, "{ex:?} vs {none:?}");
        assert!(ex.dropped_exact > 0 || ex.dropped_history > 0);
        assert!(!ex_sys.has_constant_contradiction());
    }

    #[test]
    fn redundancy_oracle() {
        // x0 in [0, 5]: "x0 <= 9" is redundant, "x0 <= 3" is not.
        let mut s = System::universe(1);
        s.add_range(0, 0, 5).unwrap();
        assert!(is_redundant(&s, &ge0(&[-1], 9)).unwrap());
        assert!(!is_redundant(&s, &ge0(&[-1], 3)).unwrap());
    }
}
