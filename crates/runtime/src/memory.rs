//! Array storage for loop execution.
//!
//! Arrays are dense `i64` boxes sized by conservative interval arithmetic:
//! each loop variable's global range is obtained by Fourier–Motzkin
//! projection of the iteration polyhedron, and each affine subscript's
//! extent follows by interval evaluation. The box over-approximates the
//! true footprint (extra cells are simply never touched).
//!
//! Cells are [`AtomicI64`]s, so a **shared** memory view can be handed
//! to rayon workers in safe code. Every shared access is a relaxed load
//! or store (the same plain `mov`/`ldr`/`str` as a non-atomic access on
//! x86-64 and aarch64); the passes that own the memory exclusively,
//! seeding and the run checksum, go through `&mut` instead. `Relaxed`
//! suffices because no cell publishes another: every order a correct
//! plan needs between groups is a stage barrier, and the pool region's
//! join at that barrier orders all cells at once. The dependence
//! analysis proves that concurrent groups never conflict and the
//! [`crate::checked`] module verifies that claim at runtime; a wrong
//! plan yields wrong values, never undefined behaviour.

use crate::{Result, RuntimeError};
use pdm_loopir::access::ArrayId;
use pdm_loopir::nest::LoopNest;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// One array's storage: inclusive per-dimension index ranges plus a dense
/// backing vector.
pub struct ArrayStorage {
    /// Source name.
    pub name: String,
    /// Inclusive `(lo, hi)` per dimension.
    pub dims: Vec<(i64, i64)>,
    data: Vec<AtomicI64>,
}

impl ArrayStorage {
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
/// `Memory` is `Sync` because its cells are atomics: `&self` accesses
/// are relaxed loads and stores, and `&mut self` passes read and write
/// the cells directly. Parallel groups of a correct plan touch disjoint
/// cells (proven by the analysis, validated by the race checker); the
/// groups of a wrong plan race on defined atomics and leave wrong
/// values behind.
pub struct Memory {
    arrays: Vec<ArrayStorage>,
}

impl Memory {
    /// Allocate arrays sized for every access of the nest, zero-filled.
    /// An array the allocator refuses is a
    /// [`RuntimeError::AllocationFailed`].
    pub fn for_nest(nest: &LoopNest) -> Result<Memory> {
        let boxes = array_boxes(nest, &nest.index_ranges()?)?;
        let mut arrays = Vec::with_capacity(boxes.len());
        for (decl, dims) in nest.arrays().iter().zip(boxes) {
            let len = box_len(&dims)?;
            // Fallible: a size the allocator refuses must come back as
            // an error, not abort the process (and a server with it).
            let mut data = Vec::new();
            data.try_reserve_exact(len)
                .map_err(|_| RuntimeError::AllocationFailed {
                    array: decl.name.clone(),
                    cells: len,
                })?;
            data.extend((0..len).map(|_| AtomicI64::new(0)));
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
            Some(i) => Ok(arr.data[i].load(Relaxed)),
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
            Some(i) => {
                arr.data[i].store(v, Relaxed);
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
        self.arrays[a].data.get(i).map(|c| c.load(Relaxed))
    }

    /// Write a cell by its flat index. `None` when out of range.
    #[inline]
    pub fn write_flat(&self, a: usize, i: usize, v: i64) -> Option<()> {
        self.arrays[a].data.get(i).map(|c| c.store(v, Relaxed))
    }

    /// The arrays.
    pub fn arrays(&self) -> &[ArrayStorage] {
        &self.arrays
    }

    /// Snapshot all contents (for equivalence comparison).
    pub fn snapshot(&self) -> Vec<Vec<i64>> {
        self.arrays
            .iter()
            .map(|a| a.data.iter().map(|c| c.load(Relaxed)).collect())
            .collect()
    }

    /// Wrapping sum over every cell — the run checksum. Exclusive
    /// access reads the cells in place, with no copy and no atomic
    /// loads.
    pub fn checksum(&mut self) -> i64 {
        self.arrays
            .iter_mut()
            .flat_map(|a| a.data.iter_mut())
            .fold(0i64, |acc, c| acc.wrapping_add(*c.get_mut()))
    }

    /// Flat index of a subscript in array `a` (for the race checker's
    /// logs).
    pub fn flat(&self, a: ArrayId, sub: &[i64]) -> Option<usize> {
        self.arrays[a.0].flat_index(sub)
    }
}

/// The row-major box of every array of `nest`, in array order:
/// inclusive `(lo, hi)` per dimension, from interval arithmetic
/// (`coeff · [lo, hi]` summed, plus the offset) of every access over
/// the loop variables' global `ranges` ([`LoopNest::index_ranges`]). An
/// array no access touches gets an empty box. This is the geometry
/// [`Memory::for_nest`] allocates and the compiled lowering
/// ([`crate::program`]) linearizes against; the inspector lowers
/// against it without allocating any cells.
pub fn array_boxes(nest: &LoopNest, ranges: &[(i64, i64)]) -> Result<Vec<Vec<(i64, i64)>>> {
    let overflow = || RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow);
    let mut boxes: Vec<Option<Vec<(i64, i64)>>> = vec![None; nest.arrays().len()];
    for (_, _, r) in nest.accesses() {
        let dims = r.access.dims();
        let b = boxes[r.array.0].get_or_insert_with(|| vec![(i64::MAX, i64::MIN); dims]);
        for (d, side) in b.iter_mut().enumerate() {
            let mut lo = r.access.offset[d] as i128;
            let mut hi = lo;
            for (k, &(rl, rh)) in ranges.iter().enumerate() {
                let c = r.access.matrix.get(k, d) as i128;
                let (a, b) = (c * rl as i128, c * rh as i128);
                lo += a.min(b);
                hi += a.max(b);
            }
            side.0 = side.0.min(i64::try_from(lo).map_err(|_| overflow())?);
            side.1 = side.1.max(i64::try_from(hi).map_err(|_| overflow())?);
        }
    }
    Ok(nest
        .arrays()
        .iter()
        .zip(boxes)
        .map(|(decl, b)| b.unwrap_or_else(|| vec![(0, -1); decl.dims]))
        .collect())
}

/// Cell count of a box, or `Overflow` when it cannot be stored: a width
/// or product past `usize`, or more bytes than a `Vec` holds.
pub fn box_len(dims: &[(i64, i64)]) -> Result<usize> {
    let overflow = || RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow);
    let mut len = 1usize;
    for &(lo, hi) in dims {
        let width =
            usize::try_from((hi as i128 - lo as i128 + 1).max(0)).map_err(|_| overflow())?;
        len = len.checked_mul(width).ok_or_else(overflow)?;
    }
    match len.checked_mul(std::mem::size_of::<AtomicI64>()) {
        Some(b) if b <= isize::MAX as usize => Ok(len),
        _ => Err(overflow()),
    }
}

/// A zeroed table of `len` entries — a dense per-cell index — allocated
/// fallibly: a table the allocator refuses is a
/// [`RuntimeError::AllocationFailed`] naming `what`, never an abort.
pub(crate) fn zeroed<T: Copy + Default>(len: usize, what: &str) -> Result<Vec<T>> {
    let mut table = Vec::new();
    table
        .try_reserve_exact(len)
        .map_err(|_| RuntimeError::AllocationFailed {
            array: what.to_string(),
            cells: len,
        })?;
    table.resize(len, T::default());
    Ok(table)
}

/// Dense global cell ids over a set of arrays: flat cell `f` of array
/// `a` is `base[a] + f`. Row-major flattening is a bijection on each
/// box, so an id names exactly one `(array, subscript)` — the key of
/// the race checkers' and the inspector's dense owner tables.
#[derive(Debug, Clone)]
pub(crate) struct CellIds {
    /// `base[a]` per array, then the total cell count.
    base: Vec<usize>,
}

impl CellIds {
    /// Ids for arrays of the given cell counts; `Overflow` when the
    /// total passes `usize`.
    pub(crate) fn new(lens: impl IntoIterator<Item = usize>) -> Result<CellIds> {
        let mut base = vec![0usize];
        for len in lens {
            let total = base[base.len() - 1];
            base.push(
                total
                    .checked_add(len)
                    .ok_or(RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))?,
            );
        }
        Ok(CellIds { base })
    }

    /// Ids for the arrays of `mem`.
    pub(crate) fn of(mem: &Memory) -> Result<CellIds> {
        CellIds::new(mem.arrays().iter().map(ArrayStorage::len))
    }

    /// Total cells (one past the largest id).
    pub(crate) fn total(&self) -> usize {
        self.base[self.base.len() - 1]
    }

    /// Global id of flat cell `flat` of array `array`.
    #[inline]
    pub(crate) fn id(&self, array: usize, flat: usize) -> usize {
        self.base[array] + flat
    }

    /// `(array, flat)` of a global id (cold: reports only).
    pub(crate) fn locate(&self, id: usize) -> (usize, usize) {
        let array = self.base.partition_point(|&b| b <= id) - 1;
        (array, id - self.base[array])
    }
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
        let r = nest.index_ranges().unwrap();
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
