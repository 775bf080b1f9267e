//! Flat bytecode form of a loop body, evaluated without recursion or
//! per-iteration allocation.
//!
//! The tree-walking interpreter in [`crate::exec`] re-traverses every
//! `Expr` node and allocates one subscript `Vec<i64>` per array access per
//! iteration. This module lowers a nest's body **once** into:
//!
//! * a postfix [`Op`] sequence evaluated on a reusable scratch stack, and
//! * one [`LinAccess`] per array reference — the access's affine subscript
//!   map composed with the array's row-major layout, so each reference
//!   becomes a single **linear form** `flat(i) = base + coeff · i` over
//!   the original iteration indices.
//!
//! Linearization is what makes strength reduction possible: the drivers in
//! [`crate::compile`] never recompute `flat` from scratch — they keep one
//! running flat offset per access in [`Scratch::flats`] and nudge it by a
//! precomputed per-loop-level delta whenever an index advances.
//!
//! ## Bounds safety
//!
//! `Memory::for_nest` sizes every array by interval arithmetic over the
//! *global* index ranges, so any access evaluated at an iteration inside
//! the polyhedron is in its per-dimension box, and therefore its flat
//! index is in `[0, len)`. The executor still guards the flat range
//! (defense in depth — an out-of-range flat index means a compiler bug)
//! and reconstructs the per-dimension subscript only on that cold error
//! path.
//!
//! ## Arithmetic
//!
//! Body arithmetic is **wrapping**, bit-compatible with the interpreter
//! (see [`crate::exec`] for the wrapping-vs-checked policy).

use crate::memory::Memory;
use crate::{Result, RuntimeError};
use pdm_loopir::access::AffineAccess;
use pdm_loopir::expr::Expr;
use pdm_loopir::nest::LoopNest;

/// One postfix bytecode operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push a literal.
    Const(i64),
    /// Push original loop index `k`.
    Index(u32),
    /// Push the value of access table entry `a` at its current flat offset.
    Load(u32),
    /// Pop two, push their wrapping sum.
    Add,
    /// Pop two, push their wrapping difference.
    Sub,
    /// Pop two, push their wrapping product.
    Mul,
    /// Pop one, push its wrapping negation.
    Neg,
    /// Pop one value and store it through access table entry `a`.
    Store(u32),
    /// Skip the next `skip` ops unless `idx[level] == guards[g](idx)` —
    /// the compiled form of a statement's [`pdm_loopir::stmt::IndexGuard`].
    /// A guarded statement compiles to its guard checks first, each
    /// jumping past the statement's remaining ops on failure, so the
    /// operand stack stays empty across a skip.
    GuardEq {
        /// Guarded loop level.
        level: u32,
        /// Index into the program's guard-value table.
        g: u32,
        /// Ops to skip when the guard fails.
        skip: u32,
    },
}

/// An array reference lowered to a linear form over the iteration vector:
/// `flat(i) = base + coeff · i`, indexing the array's dense backing store.
#[derive(Debug, Clone)]
pub struct LinAccess {
    /// Index of the array in the nest's [`Memory`].
    pub array: u32,
    /// Flat offset at `i = 0`.
    pub base: i64,
    /// Per-original-index flat strides (length = loop depth).
    pub coeff: Vec<i64>,
    /// Backing length of the array (flat guard).
    pub len: usize,
    /// Original affine access, kept for the cold error path only.
    pub origin: AffineAccess,
}

impl LinAccess {
    fn lower(
        access: &AffineAccess,
        array: usize,
        dims: &[(i64, i64)],
        len: usize,
        depth: usize,
    ) -> Result<LinAccess> {
        let m = access.dims();
        debug_assert_eq!(m, dims.len());
        // Row-major strides of the (lo, hi)-boxed array.
        let mut stride = vec![1i128; m];
        for d in (0..m.saturating_sub(1)).rev() {
            let (lo, hi) = dims[d + 1];
            stride[d] = stride[d + 1] * (hi - lo + 1).max(0) as i128;
        }
        let overflow = || RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow);
        let mut base: i128 = 0;
        for d in 0..m {
            base += (access.offset[d] as i128 - dims[d].0 as i128) * stride[d];
        }
        let mut coeff = Vec::with_capacity(depth);
        for k in 0..depth {
            let mut c: i128 = 0;
            for d in 0..m {
                c += access.matrix.get(k, d) as i128 * stride[d];
            }
            coeff.push(i64::try_from(c).map_err(|_| overflow())?);
        }
        Ok(LinAccess {
            array: array as u32,
            base: i64::try_from(base).map_err(|_| overflow())?,
            coeff,
            len,
            origin: access.clone(),
        })
    }
}

/// Reusable per-worker evaluation state. One `Scratch` serves any number
/// of iterations and groups; nothing inside allocates after construction.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Operand stack (pre-sized to the program's maximum depth).
    stack: Vec<i64>,
    /// Current original iteration indices.
    pub idx: Vec<i64>,
    /// Current flat offset of every access (strength-reduced).
    pub flats: Vec<i64>,
}

impl Scratch {
    /// State for a walk with no program attached: original indices
    /// only, no flat offsets, no operand stack.
    pub(crate) fn indices_only(depth: usize) -> Scratch {
        Scratch {
            stack: Vec::new(),
            idx: vec![0; depth],
            flats: Vec::new(),
        }
    }
}

/// A compiled loop body: postfix ops plus the linearized access table.
///
/// A `Program` is tied to the array geometry of the [`Memory`] it was
/// compiled against; `Memory::for_nest` is deterministic, so any memory
/// allocated for the same nest shares that geometry.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Vec<Op>,
    accesses: Vec<LinAccess>,
    /// Guard-value table: affine forms `coeffs · idx + constant` over the
    /// original indices, referenced by [`Op::GuardEq`].
    guards: Vec<(Vec<i64>, i64)>,
    depth: usize,
    max_stack: usize,
}

impl Program {
    /// Lower the nest's body against `mem`'s array geometry.
    pub fn compile(nest: &LoopNest, mem: &Memory) -> Result<Program> {
        let depth = nest.depth();
        let mut ops = Vec::new();
        let mut accesses = Vec::new();
        let mut guards = Vec::new();
        for stmt in nest.body() {
            // Compile the statement body first so each guard knows how
            // many ops it must skip on failure.
            let mut stmt_ops = Vec::new();
            emit_expr(&stmt.rhs, nest, mem, depth, &mut stmt_ops, &mut accesses)?;
            let id = push_access(
                &stmt.lhs.access,
                stmt.lhs.array.0,
                nest,
                mem,
                depth,
                &mut accesses,
            )?;
            stmt_ops.push(Op::Store(id));
            // Guard checks: each failure skips the remaining guards and
            // the statement ops (the stack is empty between statements).
            for (j, guard) in stmt.guards.iter().enumerate() {
                let g = guards.len() as u32;
                guards.push((
                    (0..depth).map(|k| guard.value.coeff(k)).collect(),
                    guard.value.constant,
                ));
                let remaining_guards = stmt.guards.len() - 1 - j;
                ops.push(Op::GuardEq {
                    level: guard.index as u32,
                    g,
                    skip: (remaining_guards + stmt_ops.len()) as u32,
                });
            }
            ops.extend(stmt_ops);
        }
        let max_stack = simulate_stack(&ops);
        Ok(Program {
            ops,
            accesses,
            guards,
            depth,
            max_stack,
        })
    }

    /// The bytecode.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The linearized access table.
    pub fn accesses(&self) -> &[LinAccess] {
        &self.accesses
    }

    /// Loop depth the program expects.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Allocate the reusable evaluation state for this program,
    /// positioned at the origin (`idx = 0`, every flat offset at its
    /// access's base).
    pub fn new_scratch(&self) -> Scratch {
        let mut scratch = Scratch {
            stack: vec![0; self.max_stack.max(1)],
            idx: vec![0; self.depth],
            flats: vec![0; self.accesses.len()],
        };
        self.reset_flats(&mut scratch);
        scratch
    }

    /// Recompute every flat offset from `scratch.idx` (used when a driver
    /// repositions the iteration point non-incrementally).
    pub fn reset_flats(&self, scratch: &mut Scratch) {
        for (f, acc) in scratch.flats.iter_mut().zip(&self.accesses) {
            let mut v = acc.base;
            for (c, i) in acc.coeff.iter().zip(&scratch.idx) {
                v = v.wrapping_add(c.wrapping_mul(*i));
            }
            *f = v;
        }
    }

    /// Execute the body once at the iteration point described by
    /// `scratch.idx` / `scratch.flats`.
    #[inline]
    pub fn exec(&self, mem: &Memory, scratch: &mut Scratch) -> Result<()> {
        self.exec_traced(mem, scratch, |_, _, _| {})
    }

    /// [`Program::exec`], reporting every access it performs as
    /// `touch(array, flat_cell, is_write)` in execution order. Statements
    /// whose guards fail are skipped whole, so they touch nothing.
    #[inline]
    pub fn exec_traced<T>(&self, mem: &Memory, scratch: &mut Scratch, mut touch: T) -> Result<()>
    where
        T: FnMut(usize, usize, bool),
    {
        let stack = &mut scratch.stack;
        let mut sp = 0usize;
        let mut pc = 0usize;
        while pc < self.ops.len() {
            let op = &self.ops[pc];
            pc += 1;
            match *op {
                Op::GuardEq { level, g, skip } => {
                    // Exact i128 evaluation, bit-identical to
                    // `IndexGuard::holds` (guard arithmetic must not
                    // wrap — a wrapped value could alias a real index).
                    let (coeffs, constant) = &self.guards[g as usize];
                    let mut v = *constant as i128;
                    for (c, i) in coeffs.iter().zip(&scratch.idx) {
                        v += *c as i128 * *i as i128;
                    }
                    if v != scratch.idx[level as usize] as i128 {
                        pc += skip as usize;
                    }
                }
                Op::Const(c) => {
                    stack[sp] = c;
                    sp += 1;
                }
                Op::Index(k) => {
                    stack[sp] = scratch.idx[k as usize];
                    sp += 1;
                }
                Op::Load(a) => {
                    let array = self.accesses[a as usize].array as usize;
                    let cell = usize::try_from(scratch.flats[a as usize]).ok();
                    match cell.and_then(|f| Some((f, mem.read_flat(array, f)?))) {
                        Some((f, v)) => {
                            touch(array, f, false);
                            stack[sp] = v;
                            sp += 1;
                        }
                        None => return Err(self.oob(a, mem, &scratch.idx)),
                    }
                }
                Op::Add => {
                    sp -= 1;
                    stack[sp - 1] = stack[sp - 1].wrapping_add(stack[sp]);
                }
                Op::Sub => {
                    sp -= 1;
                    stack[sp - 1] = stack[sp - 1].wrapping_sub(stack[sp]);
                }
                Op::Mul => {
                    sp -= 1;
                    stack[sp - 1] = stack[sp - 1].wrapping_mul(stack[sp]);
                }
                Op::Neg => {
                    stack[sp - 1] = stack[sp - 1].wrapping_neg();
                }
                Op::Store(a) => {
                    sp -= 1;
                    let array = self.accesses[a as usize].array as usize;
                    let cell = usize::try_from(scratch.flats[a as usize]).ok();
                    match cell.and_then(|f| mem.write_flat(array, f, stack[sp]).map(|()| f)) {
                        Some(f) => touch(array, f, true),
                        None => return Err(self.oob(a, mem, &scratch.idx)),
                    }
                }
            }
        }
        debug_assert_eq!(sp, 0, "program left operands on the stack");
        Ok(())
    }

    /// Number of compiled guard checks (for tests/inspection).
    pub fn guard_count(&self) -> usize {
        self.guards.len()
    }

    /// Cold path: reconstruct the subscript of a failed access.
    #[cold]
    fn oob(&self, a: u32, mem: &Memory, idx: &[i64]) -> RuntimeError {
        let acc = &self.accesses[a as usize];
        let sub = acc
            .origin
            .eval(&pdm_matrix::vec::IVec(idx.to_vec()))
            .map(|s| s.0)
            .unwrap_or_default();
        RuntimeError::OutOfBounds {
            array: mem.arrays()[acc.array as usize].name.clone(),
            subscript: sub,
        }
    }
}

fn push_access(
    access: &AffineAccess,
    array: usize,
    nest: &LoopNest,
    mem: &Memory,
    depth: usize,
    accesses: &mut Vec<LinAccess>,
) -> Result<u32> {
    debug_assert!(array < nest.arrays().len());
    let storage = &mem.arrays()[array];
    let lin = LinAccess::lower(access, array, &storage.dims, storage.len(), depth)?;
    accesses.push(lin);
    Ok((accesses.len() - 1) as u32)
}

fn emit_expr(
    e: &Expr,
    nest: &LoopNest,
    mem: &Memory,
    depth: usize,
    ops: &mut Vec<Op>,
    accesses: &mut Vec<LinAccess>,
) -> Result<()> {
    match e {
        Expr::Const(c) => ops.push(Op::Const(*c)),
        Expr::Index(k) => ops.push(Op::Index(*k as u32)),
        Expr::Read(r) => {
            let id = push_access(&r.access, r.array.0, nest, mem, depth, accesses)?;
            ops.push(Op::Load(id));
        }
        Expr::Add(a, b) => {
            emit_expr(a, nest, mem, depth, ops, accesses)?;
            emit_expr(b, nest, mem, depth, ops, accesses)?;
            ops.push(Op::Add);
        }
        Expr::Sub(a, b) => {
            emit_expr(a, nest, mem, depth, ops, accesses)?;
            emit_expr(b, nest, mem, depth, ops, accesses)?;
            ops.push(Op::Sub);
        }
        Expr::Mul(a, b) => {
            emit_expr(a, nest, mem, depth, ops, accesses)?;
            emit_expr(b, nest, mem, depth, ops, accesses)?;
            ops.push(Op::Mul);
        }
        Expr::Neg(a) => {
            emit_expr(a, nest, mem, depth, ops, accesses)?;
            ops.push(Op::Neg);
        }
    }
    Ok(())
}

fn simulate_stack(ops: &[Op]) -> usize {
    let (mut depth, mut max) = (0isize, 0isize);
    for op in ops {
        match op {
            Op::Const(_) | Op::Index(_) | Op::Load(_) => depth += 1,
            Op::Add | Op::Sub | Op::Mul | Op::Store(_) => depth -= 1,
            // A guard skips a stack-balanced region, so the linear scan
            // stays a sound over-approximation of the true maximum.
            Op::Neg | Op::GuardEq { .. } => {}
        }
        max = max.max(depth);
    }
    max.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_loopir::parse::parse_loop;

    fn compile(src: &str) -> (LoopNest, Memory, Program) {
        let nest = parse_loop(src).unwrap();
        let mem = Memory::for_nest(&nest).unwrap();
        let prog = Program::compile(&nest, &mem).unwrap();
        (nest, mem, prog)
    }

    #[test]
    fn linearization_matches_eval_plus_flat() {
        let (nest, mem, prog) = compile(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
        );
        for it in nest.iterations().unwrap() {
            for acc in prog.accesses() {
                let sub = acc.origin.eval(&it).unwrap();
                let expect = mem.flat(pdm_loopir::access::ArrayId(acc.array as usize), &sub.0);
                let mut lin = acc.base;
                for (c, i) in acc.coeff.iter().zip(it.as_slice()) {
                    lin += c * i;
                }
                assert_eq!(expect, Some(lin as usize), "at {it}");
            }
        }
    }

    #[test]
    fn exec_matches_interpreter_at_single_points() {
        let (nest, mem, prog) = compile("for i = 1..=10 { A[i] = A[i - 1] + 2 * i; }");
        let mem2 = Memory::for_nest(&nest).unwrap();
        let mut scratch = prog.new_scratch();
        for it in nest.iterations().unwrap() {
            scratch.idx.copy_from_slice(it.as_slice());
            prog.reset_flats(&mut scratch);
            prog.exec(&mem, &mut scratch).unwrap();
            crate::exec::exec_body(&nest, &mem2, it.as_slice()).unwrap();
        }
        assert_eq!(mem.snapshot(), mem2.snapshot());
    }

    #[test]
    fn stack_depth_is_tight_and_nonzero() {
        let (_, _, prog) = compile("for i = 0..=3 { A[i] = ((i + 1) * (i - 2)) + A[i]; }");
        assert!(prog.new_scratch().stack.len() >= 2);
        assert!(!prog.ops().is_empty());
    }

    #[test]
    fn guarded_statement_compiles_and_skips() {
        // A[i, j] += 1 everywhere; B[i, 0] = i only at j == 0.
        let (nest, mem, prog) = compile(
            "for i = 0..=4 { for j = 0..=4 {
               A[i, j] = A[i, j] + 1;
               B[i, 0] = i when j == 0;
             } }",
        );
        assert_eq!(prog.guard_count(), 1);
        let mem2 = Memory::for_nest(&nest).unwrap();
        let mut scratch = prog.new_scratch();
        for it in nest.iterations().unwrap() {
            scratch.idx.copy_from_slice(it.as_slice());
            prog.reset_flats(&mut scratch);
            prog.exec(&mem, &mut scratch).unwrap();
            crate::exec::exec_body(&nest, &mem2, it.as_slice()).unwrap();
        }
        assert_eq!(mem.snapshot(), mem2.snapshot());
        // B got exactly the guarded writes.
        let b = nest.array_by_name("B").unwrap();
        for i in 0..=4 {
            assert_eq!(mem.read(b, &[i, 0]).unwrap(), i);
        }
    }

    #[test]
    fn guard_overflow_is_exact_across_executors() {
        // 2^62 * i overflows an i64 accumulator at i = 4 (wrapping to
        // 0, which would falsely match j = 0). Exact i128 guard
        // arithmetic must keep the compiled engine and the interpreter
        // bit-identical: the guard holds only at i = 0, j = 0.
        let (nest, mem, prog) = compile(
            "for i = 0..=4 { for j = 0..=4 { A[i, j] = 7 when j == 4611686018427387904*i; } }",
        );
        let mem2 = Memory::for_nest(&nest).unwrap();
        let mut scratch = prog.new_scratch();
        for it in nest.iterations().unwrap() {
            scratch.idx.copy_from_slice(it.as_slice());
            prog.reset_flats(&mut scratch);
            prog.exec(&mem, &mut scratch).unwrap();
            crate::exec::exec_body(&nest, &mem2, it.as_slice()).unwrap();
        }
        assert_eq!(mem.snapshot(), mem2.snapshot());
        let a = nest.array_by_name("A").unwrap();
        assert_eq!(mem.read(a, &[0, 0]).unwrap(), 7);
        assert_eq!(
            mem.read(a, &[4, 0]).unwrap(),
            0,
            "wrapped guard must not fire"
        );
    }

    #[test]
    fn negative_index_boxes_linearize() {
        let (nest, mem, prog) = compile("for i = -5..=5 { A[2*i] = A[i] + 1; }");
        // Box is [-10, 10]; flat(A[2i]) at i = -5 is 0.
        for it in nest.iterations().unwrap() {
            for acc in prog.accesses() {
                let sub = acc.origin.eval(&it).unwrap();
                let mut lin = acc.base;
                for (c, i) in acc.coeff.iter().zip(it.as_slice()) {
                    lin += c * i;
                }
                assert_eq!(
                    mem.flat(pdm_loopir::access::ArrayId(0), &sub.0),
                    Some(lin as usize)
                );
            }
        }
    }
}
