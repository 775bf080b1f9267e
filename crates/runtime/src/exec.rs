//! Sequential **interpretation** of loop nests — the reference
//! semantics.
//!
//! This module favors obviousness over speed: it re-walks the `Expr`
//! tree and re-evaluates bounds at every iteration point, in original
//! lexicographic order. Every other executor — the compiled walker in
//! [`crate::compile`], sequential or parallel — is held to bit-identical
//! `Memory` contents against [`run_sequential`], which the harness in
//! [`crate::equivalence`] enforces.
//!
//! ## Wrapping vs. checked arithmetic
//!
//! *Body* arithmetic (subscript evaluation in `eval_access`, value
//! computation in `eval_expr`) is **wrapping**: the executor's job is
//! to witness ordering, and wrapping keeps the reference and compiled
//! runs bit-identical even on adversarial inputs. *Analysis*
//! arithmetic (`pdm_matrix::num`, bounds evaluation, residues) is
//! **checked**: a silent wrap there would produce an incorrect but
//! plausible-looking transformation, so it must fail loudly instead.

use crate::memory::Memory;
use crate::schedule;
use crate::Result;
use pdm_core::plan::ParallelPlan;
use pdm_loopir::expr::Expr;
use pdm_loopir::nest::LoopNest;
use pdm_poly::bounds::LoopBounds;

/// Execute the nest in original sequential (lexicographic) order.
/// Returns the number of iterations executed.
pub fn run_sequential(nest: &LoopNest, mem: &Memory) -> Result<u64> {
    let sys = nest.iteration_system()?;
    let bounds = LoopBounds::from_system(&sys)?;
    let n = nest.depth();
    let mut idx = vec![0i64; n];
    let mut count = 0u64;
    walk_seq(nest, mem, &bounds, &mut idx, 0, &mut count)?;
    Ok(count)
}

fn walk_seq(
    nest: &LoopNest,
    mem: &Memory,
    bounds: &LoopBounds,
    idx: &mut Vec<i64>,
    level: usize,
    count: &mut u64,
) -> Result<()> {
    let n = nest.depth();
    let (lo, hi) = range_at(bounds, level, idx)?;
    for v in lo..=hi {
        idx[level] = v;
        if level + 1 == n {
            exec_body(nest, mem, idx)?;
            *count += 1;
        } else {
            walk_seq(nest, mem, bounds, idx, level + 1, count)?;
        }
    }
    Ok(())
}

fn range_at(bounds: &LoopBounds, level: usize, idx: &[i64]) -> Result<(i64, i64)> {
    // `bounds.range` wants exactly the outer prefix.
    let prefix = &idx[..level];
    Ok(bounds.range(level, prefix)?)
}

/// Execute the loop body at one iteration point. Guarded statements
/// (sunk imperfect-nest statements) run only where their index
/// equalities hold.
#[inline]
pub fn exec_body(nest: &LoopNest, mem: &Memory, idx: &[i64]) -> Result<()> {
    for stmt in nest.body() {
        exec_stmt(stmt, mem, idx)?;
    }
    Ok(())
}

/// Execute one (possibly guarded) statement at one iteration point —
/// shared by [`exec_body`] and the imperfect-nest reference interpreter.
#[inline]
pub(crate) fn exec_stmt(
    stmt: &pdm_loopir::stmt::Statement,
    mem: &Memory,
    idx: &[i64],
) -> Result<()> {
    if !stmt.guards_hold(idx) {
        return Ok(());
    }
    let value = eval_expr(&stmt.rhs, mem, idx)?;
    let sub = eval_access(&stmt.lhs.access, idx);
    mem.write(stmt.lhs.array, &sub, value)
}

/// Evaluate an affine access into a freshly allocated subscript vector.
/// This costs one `Vec<i64>` **per access per iteration** — acceptable
/// for the reference interpreter, and exactly the overhead the compiled
/// engine's linearized, strength-reduced addressing eliminates (see
/// [`crate::program::LinAccess`]).
#[inline]
fn eval_access(access: &pdm_loopir::access::AffineAccess, idx: &[i64]) -> Vec<i64> {
    let m = access.dims();
    let n = access.depth();
    let mut out = Vec::with_capacity(m);
    for d in 0..m {
        let mut acc = access.offset[d];
        for k in 0..n {
            acc = acc.wrapping_add(access.matrix.get(k, d).wrapping_mul(idx[k]));
        }
        out.push(acc);
    }
    out
}

/// Evaluate a body expression (wrapping integer arithmetic).
pub fn eval_expr(e: &Expr, mem: &Memory, idx: &[i64]) -> Result<i64> {
    Ok(match e {
        Expr::Const(c) => *c,
        Expr::Index(k) => idx[*k],
        Expr::Read(r) => {
            let sub = eval_access(&r.access, idx);
            mem.read(r.array, &sub)?
        }
        Expr::Add(a, b) => eval_expr(a, mem, idx)?.wrapping_add(eval_expr(b, mem, idx)?),
        Expr::Sub(a, b) => eval_expr(a, mem, idx)?.wrapping_sub(eval_expr(b, mem, idx)?),
        Expr::Mul(a, b) => eval_expr(a, mem, idx)?.wrapping_mul(eval_expr(b, mem, idx)?),
        Expr::Neg(a) => eval_expr(a, mem, idx)?.wrapping_neg(),
    })
}

/// Exact number of independent groups (doall-prefix values × partition
/// offsets), computed arithmetically where bounds are prefix-independent
/// and by a cursor walk otherwise — never by materializing the groups
/// (or the offset table: `partition_count` is `det(H)`, computed in
/// O(depth)).
pub fn group_count(plan: &ParallelPlan) -> Result<u64> {
    schedule::group_count(
        plan.bounds(),
        plan.doall_count(),
        plan.partition_count() as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::parallelize;
    use pdm_loopir::access::ArrayId;
    use pdm_loopir::parse::parse_loop;

    #[test]
    fn sequential_chain_sums() {
        let nest = parse_loop("for i = 1..=10 { A[i] = A[i - 1] + 1; }").unwrap();
        let mem = Memory::for_nest(&nest).unwrap();
        let n = run_sequential(&nest, &mem).unwrap();
        assert_eq!(n, 10);
        // A[0] = 0 initially; A[i] = i.
        for i in 0..=10 {
            assert_eq!(mem.read(ArrayId(0), &[i]).unwrap(), i);
        }
    }

    #[test]
    fn group_count_is_prefix_extent_times_partitions() {
        let nest = parse_loop(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
        )
        .unwrap();
        let plan = parallelize(&nest).unwrap();
        // doall y1 has some range R; 2 partitions -> |R| * 2 groups.
        let (lo, hi) = plan.bounds().range(0, &[]).unwrap();
        assert_eq!(group_count(&plan).unwrap() as i64, (hi - lo + 1) * 2);
    }
}
