//! Array storage for loop execution.
//!
//! Arrays are dense `i64` boxes sized by conservative interval arithmetic:
//! each loop variable's global range is obtained by Fourier–Motzkin
//! projection of the iteration polyhedron, and each affine subscript's
//! extent follows by interval evaluation. The box over-approximates the
//! true footprint (extra cells are simply never touched).
//!
//! Cells live in [`std::cell::UnsafeCell`] so a **shared** memory view can
//! be handed to rayon workers: the dependence analysis proves that
//! concurrent groups never conflict, and the [`crate::checked`] module
//! verifies exactly that claim at runtime.

use crate::{Result, RuntimeError};
use pdm_loopir::access::ArrayId;
use pdm_loopir::nest::LoopNest;
use std::cell::UnsafeCell;

/// One array's storage: inclusive per-dimension index ranges plus a dense
/// backing vector.
pub struct ArrayStorage {
    /// Source name.
    pub name: String,
    /// Inclusive `(lo, hi)` per dimension.
    pub dims: Vec<(i64, i64)>,
    data: Vec<UnsafeCell<i64>>,
}

impl ArrayStorage {
    /// Cell count of the box, or `Overflow` when it cannot be stored: a
    /// width or product past `usize`, or more bytes than a `Vec` holds.
    fn len_of(dims: &[(i64, i64)]) -> Result<usize> {
        let overflow = || RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow);
        let mut len = 1usize;
        for &(lo, hi) in dims {
            let width =
                usize::try_from((hi as i128 - lo as i128 + 1).max(0)).map_err(|_| overflow())?;
            len = len.checked_mul(width).ok_or_else(overflow)?;
        }
        let bytes = len.checked_mul(std::mem::size_of::<UnsafeCell<i64>>());
        match bytes {
            Some(b) if b <= isize::MAX as usize => Ok(len),
            _ => Err(overflow()),
        }
    }

    /// Flatten a subscript; `None` when out of the box.
    #[inline]
    pub fn flat_index(&self, sub: &[i64]) -> Option<usize> {
        debug_assert_eq!(sub.len(), self.dims.len());
        let mut idx = 0usize;
        for (d, &s) in sub.iter().enumerate() {
            let (lo, hi) = self.dims[d];
            if s < lo || s > hi {
                return None;
            }
            let width = (hi - lo + 1) as usize;
            idx = idx * width + (s - lo) as usize;
        }
        Some(idx)
    }

    /// Total cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A set of arrays for one nest.
///
/// `Memory` is `Sync`: parallel groups access disjoint cells (proven by
/// the analysis, validated by the race checker), so the interior
/// mutability is sound in exactly the way a `doall` loop is.
pub struct Memory {
    arrays: Vec<ArrayStorage>,
}

// SAFETY: concurrent access is restricted by construction to provably
// disjoint cells (independent doall groups); the checked executor
// additionally validates this dynamically in tests.
unsafe impl Sync for Memory {}

impl Memory {
    /// Allocate arrays sized for every access of the nest, zero-filled.
    pub fn for_nest(nest: &LoopNest) -> Result<Memory> {
        let ranges = index_ranges(nest)?;
        let mut arrays = Vec::new();
        for (aid, decl) in nest.arrays().iter().enumerate() {
            let mut dims = vec![(i64::MAX, i64::MIN); decl.dims];
            let mut touched = false;
            for (_, _, r) in nest.accesses() {
                if r.array != ArrayId(aid) {
                    continue;
                }
                touched = true;
                for d in 0..decl.dims {
                    // Interval arithmetic: coeff * [lo, hi] summed + offset.
                    let mut lo = r.access.offset[d] as i128;
                    let mut hi = lo;
                    for k in 0..nest.depth() {
                        let c = r.access.matrix.get(k, d) as i128;
                        let (rl, rh) = ranges[k];
                        let a = c * rl as i128;
                        let b = c * rh as i128;
                        lo += a.min(b);
                        hi += a.max(b);
                    }
                    let lo = i64::try_from(lo)
                        .map_err(|_| RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))?;
                    let hi = i64::try_from(hi)
                        .map_err(|_| RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))?;
                    dims[d].0 = dims[d].0.min(lo);
                    dims[d].1 = dims[d].1.max(hi);
                }
            }
            if !touched {
                dims = vec![(0, -1); decl.dims]; // empty box
            }
            let len = ArrayStorage::len_of(&dims)?;
            let data = (0..len).map(|_| UnsafeCell::new(0)).collect();
            arrays.push(ArrayStorage {
                name: decl.name.clone(),
                dims,
                data,
            });
        }
        Ok(Memory { arrays })
    }

    /// Allocate arrays sized for every statement of an imperfect nest.
    /// Sizing runs over the nest's
    /// [`hull`](pdm_loopir::imperfect::ImperfectNest::hull) — the
    /// perfect nest holding all statements — which touches a superset of
    /// the real accesses, so every executor (imperfect reference,
    /// fissioned kernels, sunk guarded kernels) fits in the same box and
    /// kernels can share one memory with stable array ids.
    pub fn for_imperfect(imp: &pdm_loopir::imperfect::ImperfectNest) -> Result<Memory> {
        Memory::for_nest(&imp.hull()?)
    }

    /// Deterministically initialize every cell from its flat index (used
    /// so equivalence tests exercise non-trivial data).
    pub fn init_deterministic(&mut self, seed: u64) {
        for a in &mut self.arrays {
            for (k, cell) in a.data.iter_mut().enumerate() {
                let mut x = seed.wrapping_add(k as u64).wrapping_mul(0x9E3779B97F4A7C15);
                x ^= x >> 29;
                x = x.wrapping_mul(0xBF58476D1CE4E5B9);
                x ^= x >> 32;
                *cell.get_mut() = (x % 1000) as i64 - 500;
            }
        }
    }

    /// Read a cell.
    #[inline]
    pub fn read(&self, a: ArrayId, sub: &[i64]) -> Result<i64> {
        let arr = &self.arrays[a.0];
        match arr.flat_index(sub) {
            // SAFETY: see the `Sync` impl — groups touch disjoint cells.
            Some(i) => Ok(unsafe { *arr.data[i].get() }),
            None => Err(RuntimeError::OutOfBounds {
                array: arr.name.clone(),
                subscript: sub.to_vec(),
            }),
        }
    }

    /// Write a cell.
    #[inline]
    pub fn write(&self, a: ArrayId, sub: &[i64], v: i64) -> Result<()> {
        let arr = &self.arrays[a.0];
        match arr.flat_index(sub) {
            // SAFETY: see the `Sync` impl.
            Some(i) => {
                unsafe { *arr.data[i].get() = v };
                Ok(())
            }
            None => Err(RuntimeError::OutOfBounds {
                array: arr.name.clone(),
                subscript: sub.to_vec(),
            }),
        }
    }

    /// Read a cell by its flat index, as precomputed by the compiled
    /// engine ([`crate::program`]). `None` when out of range.
    #[inline]
    pub fn read_flat(&self, a: usize, i: usize) -> Option<i64> {
        // SAFETY: see the `Sync` impl — groups touch disjoint cells.
        self.arrays[a].data.get(i).map(|c| unsafe { *c.get() })
    }

    /// Write a cell by its flat index. `None` when out of range.
    #[inline]
    pub fn write_flat(&self, a: usize, i: usize, v: i64) -> Option<()> {
        // SAFETY: see the `Sync` impl.
        self.arrays[a].data.get(i).map(|c| {
            unsafe { *c.get() = v };
        })
    }

    /// The arrays.
    pub fn arrays(&self) -> &[ArrayStorage] {
        &self.arrays
    }

    /// Snapshot all contents (for equivalence comparison).
    pub fn snapshot(&self) -> Vec<Vec<i64>> {
        self.arrays
            .iter()
            .map(|a| a.data.iter().map(|c| unsafe { *c.get() }).collect())
            .collect()
    }

    /// Flat index of a subscript in array `a` (for the race checker's
    /// logs).
    pub fn flat(&self, a: ArrayId, sub: &[i64]) -> Option<usize> {
        self.arrays[a.0].flat_index(sub)
    }
}

/// Global inclusive range of every loop variable, by FM projection.
/// (Thin wrapper over [`LoopNest::index_ranges`], kept for API
/// stability of this crate.)
pub fn index_ranges(nest: &LoopNest) -> Result<Vec<(i64, i64)>> {
    Ok(nest.index_ranges()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_loopir::parse::parse_loop;

    #[test]
    fn extents_cover_all_accesses() {
        let nest = parse_loop(
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
        )
        .unwrap();
        let mem = Memory::for_nest(&nest).unwrap();
        for it in nest.iterations().unwrap() {
            for (_, _, r) in nest.accesses() {
                let sub = r.access.eval(&it).unwrap();
                assert!(
                    mem.flat(r.array, &sub).is_some(),
                    "access {sub} outside extents"
                );
            }
        }
    }

    #[test]
    fn negative_ranges_supported() {
        let nest = parse_loop("for i = -5..=5 { A[2*i] = A[i] + 1; }").unwrap();
        let mem = Memory::for_nest(&nest).unwrap();
        assert_eq!(mem.arrays()[0].dims, vec![(-10, 10)]);
        mem.write(ArrayId(0), &[-10], 42).unwrap();
        assert_eq!(mem.read(ArrayId(0), &[-10]).unwrap(), 42);
    }

    #[test]
    fn out_of_bounds_reported() {
        let nest = parse_loop("for i = 0..=4 { A[i] = 1; }").unwrap();
        let mem = Memory::for_nest(&nest).unwrap();
        assert!(matches!(
            mem.read(ArrayId(0), &[99]),
            Err(RuntimeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn index_ranges_triangular() {
        let nest = parse_loop("for i = 0..=6 { for j = 0..=i { A[i, j] = 1; } }").unwrap();
        let r = index_ranges(&nest).unwrap();
        assert_eq!(r[0], (0, 6));
        assert_eq!(r[1], (0, 6)); // conservative: j's global range
    }

    #[test]
    fn oversized_box_is_an_overflow_error() {
        // 4 × 1.5e10 × 1.5e10 cells: the product overflows usize.
        let nest = parse_loop("for i = 0..=3 { A[i, 5000000000*i, 5000000000*i] = 1; }").unwrap();
        assert!(matches!(
            Memory::for_nest(&nest),
            Err(RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))
        ));
    }

    #[test]
    fn deterministic_init_reproducible() {
        let nest = parse_loop("for i = 0..=9 { A[i] = A[i] + 1; }").unwrap();
        let mut m1 = Memory::for_nest(&nest).unwrap();
        let mut m2 = Memory::for_nest(&nest).unwrap();
        m1.init_deterministic(7);
        m2.init_deterministic(7);
        assert_eq!(m1.snapshot(), m2.snapshot());
        m2.init_deterministic(8);
        assert_ne!(m1.snapshot(), m2.snapshot());
    }
}
