//! Array storage for loop execution: one cell space per run.
//!
//! A [`Layout`] is the geometry of every array of a nest, computed once
//! by [`Layout::for_nest`]. Arrays are dense row-major `i64` boxes
//! sized by conservative interval arithmetic: each loop variable's
//! global range is obtained by Fourier–Motzkin projection of the
//! iteration polyhedron, and each affine subscript's extent follows by
//! interval evaluation. The box over-approximates the true footprint
//! (extra cells are simply never touched). The arrays lie end to end in
//! one id space: flat cell `f` of an array is cell `base + f`, so a
//! **cell id** names exactly one `(array, subscript)`. The compiled
//! lowering ([`crate::program`]) addresses cells by id, and the race
//! checker ([`crate::checked`]) and the inspector ([`crate::inspector`])
//! key their dense per-cell tables by it.
//!
//! A [`Memory`] is a layout plus one buffer indexed by cell id. Cells
//! are [`AtomicI64`]s, so a **shared** memory view can be handed to
//! rayon workers in safe code. Every shared access is a relaxed load
//! or store (the same plain `mov`/`ldr`/`str` as a non-atomic access on
//! x86-64 and aarch64); the passes that own the memory exclusively,
//! seeding and the run checksum, go through `&mut` instead. `Relaxed`
//! suffices because no cell publishes another: every order a correct
//! plan needs between groups is a stage barrier, and the pool region's
//! join at that barrier orders all cells at once. The dependence
//! analysis proves that concurrent groups never conflict and the
//! [`crate::checked`] module verifies that claim at runtime; a wrong
//! plan yields wrong values, never undefined behaviour.
//!
//! **Seeding.** Runs and tests start from deterministic, non-trivial
//! contents: cell `k` of every array seeded with `s` holds
//! `seed_value(s + k)` (wrapping `u64` addition), a splitmix-style
//! hash of the index reduced to `[-500, 499]`. The value depends on
//! `s + k` alone — not on the array, the shape or the valuation — so a
//! process-wide, append-only table of `seed_value(j)` for
//! `j <` [`SEED_TABLE_CELLS`] (2^18 `i16`s, 512 KiB) is computed once, grown
//! by doubling as longer arrays or larger seeds ask for more of it, and
//! copied from on every later seeding. Cells whose `s + k` lies past
//! the table (large seeds, or arrays reaching beyond the cap) are
//! computed by the formula, so every seed yields the same values
//! either way. [`Memory::seeded`] allocates and seeds in one pass;
//! [`Memory::init_deterministic`] re-seeds an existing memory in place.

use crate::{Result, RuntimeError};
use pdm_loopir::access::ArrayId;
use pdm_loopir::nest::LoopNest;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::{Arc, PoisonError, RwLock};

/// Cap of the shared seed table: indices `0..SEED_TABLE_CELLS` are
/// copied, later ones computed (2^18 `i16`s, 512 KiB).
pub const SEED_TABLE_CELLS: usize = 1 << 18;

/// One array's place in a [`Layout`]: its box and its cell-id range.
#[derive(Debug, Clone)]
pub struct ArrayLayout {
    /// Source name.
    pub name: String,
    /// Inclusive `(lo, hi)` per dimension.
    pub dims: Vec<(i64, i64)>,
    /// Cell id of the box's first cell.
    pub base: usize,
    len: usize,
}

impl ArrayLayout {
    /// Row-major flat index of a subscript within this array; `None`
    /// when out of the box.
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
        self.len
    }

    /// Is the array empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The array's cell ids, `base..base + len`.
    pub fn cells(&self) -> Range<usize> {
        self.base..self.base + self.len
    }
}

/// The cell space of one nest: the loop variables' global index ranges
/// and every array's box, laid end to end in array order.
#[derive(Debug, Clone)]
pub struct Layout {
    ranges: Vec<(i64, i64)>,
    arrays: Vec<ArrayLayout>,
    cells: usize,
}

impl Layout {
    /// The layout of `nest`: each loop variable's global range
    /// ([`LoopNest::index_ranges`]), then each array's box by interval
    /// arithmetic (`coeff · [lo, hi]` summed, plus the offset) over
    /// every access; an array no access touches gets an empty box.
    /// `Overflow` when a box bound leaves `i64`, a cell count leaves
    /// `usize`, or the arrays together need more bytes than one `Vec`
    /// holds — each array may fit while their sum does not.
    pub fn for_nest(nest: &LoopNest) -> Result<Layout> {
        let overflow = || RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow);
        let ranges = nest.index_ranges()?;
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
        let mut cells = 0usize;
        let mut arrays = Vec::with_capacity(boxes.len());
        for (decl, b) in nest.arrays().iter().zip(boxes) {
            let dims = b.unwrap_or_else(|| vec![(0, -1); decl.dims]);
            let mut len = 1usize;
            for &(lo, hi) in &dims {
                let width = usize::try_from((hi as i128 - lo as i128 + 1).max(0))
                    .map_err(|_| overflow())?;
                len = len.checked_mul(width).ok_or_else(overflow)?;
            }
            arrays.push(ArrayLayout {
                name: decl.name.clone(),
                dims,
                base: cells,
                len,
            });
            cells = cells.checked_add(len).ok_or_else(overflow)?;
        }
        match cells.checked_mul(std::mem::size_of::<AtomicI64>()) {
            Some(bytes) if bytes <= isize::MAX as usize => Ok(Layout {
                ranges,
                arrays,
                cells,
            }),
            _ => Err(overflow()),
        }
    }

    /// Inclusive global `(lo, hi)` of every loop variable.
    pub fn ranges(&self) -> &[(i64, i64)] {
        &self.ranges
    }

    /// The arrays, in the nest's array order.
    pub fn arrays(&self) -> &[ArrayLayout] {
        &self.arrays
    }

    /// The array names, comma-separated (cold: allocation errors).
    fn names(&self) -> String {
        let names: Vec<&str> = self.arrays.iter().map(|a| a.name.as_str()).collect();
        names.join(", ")
    }

    /// Total cells (one past the largest id).
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// `(array, in-array flat index)` of a cell id (cold: reports only).
    pub(crate) fn locate(&self, cell: usize) -> (usize, usize) {
        let array = self.arrays.partition_point(|a| a.base <= cell) - 1;
        (array, cell - self.arrays[array].base)
    }
}

/// A set of arrays for one nest: a [`Layout`] and one buffer of cells
/// indexed by cell id.
///
/// `Memory` is `Sync` because its cells are atomics: `&self` accesses
/// are relaxed loads and stores, and `&mut self` passes read and write
/// the cells directly. Parallel groups of a correct plan touch disjoint
/// cells (proven by the analysis, validated by the race checker); the
/// groups of a wrong plan race on defined atomics and leave wrong
/// values behind.
pub struct Memory {
    layout: Layout,
    cells: Vec<AtomicI64>,
}

impl Memory {
    /// Allocate every array of the nest ([`Layout::for_nest`]) in one
    /// zero-filled buffer. A buffer the allocator refuses is a
    /// [`RuntimeError::AllocationFailed`].
    pub fn for_nest(nest: &LoopNest) -> Result<Memory> {
        let layout = Layout::for_nest(nest)?;
        let cells = zeroed(layout.cells, || layout.names())?;
        Ok(Memory { layout, cells })
    }

    /// [`Memory::for_nest`] already seeded with `seed`, in one pass:
    /// each array is written straight from its seed values, with no
    /// zero fill. Equal to `for_nest` followed by
    /// [`Memory::init_deterministic`], with the same errors: `Overflow`
    /// before any allocation, `AllocationFailed` for a refused buffer.
    pub fn seeded(nest: &LoopNest, seed: u64) -> Result<Memory> {
        let layout = Layout::for_nest(nest)?;
        let mut cells = reserved(layout.cells, || layout.names())?;
        let table = seed_table(seed, &layout);
        for a in &layout.arrays {
            let (copied, computed) = seed_values(table.as_deref(), seed, a.len);
            cells.extend(copied.iter().map(|&v| AtomicI64::new(v.into())));
            cells.extend(computed.map(AtomicI64::new));
        }
        Ok(Memory { layout, cells })
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

    /// Deterministically re-seed every cell in place: cell `k` of each
    /// array gets `seed_value(seed + k)` (see the module docs), so
    /// equivalence tests and runs exercise non-trivial data.
    pub fn init_deterministic(&mut self, seed: u64) {
        let table = seed_table(seed, &self.layout);
        for a in &self.layout.arrays {
            let (copied, computed) = seed_values(table.as_deref(), seed, a.len);
            let (head, tail) = self.cells[a.cells()].split_at_mut(copied.len());
            for (cell, &v) in head.iter_mut().zip(copied) {
                *cell.get_mut() = v.into();
            }
            for (cell, v) in tail.iter_mut().zip(computed) {
                *cell.get_mut() = v;
            }
        }
    }

    /// Cell id of a subscript, or `OutOfBounds` naming the array.
    #[inline]
    fn cell(&self, a: ArrayId, sub: &[i64]) -> Result<usize> {
        self.flat(a, sub).ok_or_else(|| RuntimeError::OutOfBounds {
            array: self.layout.arrays[a.0].name.clone(),
            subscript: sub.to_vec(),
        })
    }

    /// Read a cell.
    #[inline]
    pub fn read(&self, a: ArrayId, sub: &[i64]) -> Result<i64> {
        Ok(self.cells[self.cell(a, sub)?].load(Relaxed))
    }

    /// Write a cell.
    #[inline]
    pub fn write(&self, a: ArrayId, sub: &[i64], v: i64) -> Result<()> {
        self.cells[self.cell(a, sub)?].store(v, Relaxed);
        Ok(())
    }

    /// Read a cell by id, as the compiled engine ([`crate::program`])
    /// addresses it. `None` past the buffer.
    #[inline]
    pub fn read_cell(&self, cell: usize) -> Option<i64> {
        self.cells.get(cell).map(|c| c.load(Relaxed))
    }

    /// Write a cell by id. `None` past the buffer.
    #[inline]
    pub fn write_cell(&self, cell: usize, v: i64) -> Option<()> {
        self.cells.get(cell).map(|c| c.store(v, Relaxed))
    }

    /// The cell space.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The arrays.
    pub fn arrays(&self) -> &[ArrayLayout] {
        &self.layout.arrays
    }

    /// Snapshot all contents, one `Vec` per array (for equivalence
    /// comparison).
    pub fn snapshot(&self) -> Vec<Vec<i64>> {
        self.layout
            .arrays
            .iter()
            .map(|a| {
                self.cells[a.cells()]
                    .iter()
                    .map(|c| c.load(Relaxed))
                    .collect()
            })
            .collect()
    }

    /// Wrapping sum over every cell — the run checksum. Exclusive
    /// access reads the cells in place, with no copy and no atomic
    /// loads.
    pub fn checksum(&mut self) -> i64 {
        self.cells
            .iter_mut()
            .fold(0i64, |acc, c| acc.wrapping_add(*c.get_mut()))
    }

    /// Cell id of a subscript of array `a`; `None` when out of its box.
    pub fn flat(&self, a: ArrayId, sub: &[i64]) -> Option<usize> {
        let array = &self.layout.arrays[a.0];
        Some(array.base + array.flat_index(sub)?)
    }
}

/// The one definition of a seed value: a splitmix-style hash of the
/// index `j`, reduced to `[-500, 499]`.
#[inline]
fn seed_value(j: u64) -> i64 {
    let mut x = j.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 32;
    (x % 1000) as i64 - 500
}

/// `seed_value(j)` for `j` in `0..len`, shared by every seeding in the
/// process. Append-only: a longer table keeps the shorter one's prefix.
/// A grown table replaces the old one in a single assignment, so even a
/// poisoned lock holds a whole table, and readers take it as it is.
static SEED_TABLE: RwLock<Option<Arc<[i16]>>> = RwLock::new(None);

/// The seed table, grown to cover `seed + longest array` (capped at
/// [`SEED_TABLE_CELLS`]); `None` when `seed` lies past the cap, where
/// no cell can copy from it.
fn seed_table(seed: u64, layout: &Layout) -> Option<Arc<[i16]>> {
    let cap = SEED_TABLE_CELLS as u64;
    if seed >= cap {
        return None;
    }
    let longest = layout.arrays.iter().map(|a| a.len as u64).max()?;
    // Capped at `SEED_TABLE_CELLS`, so it fits `usize`.
    let want = seed.saturating_add(longest).min(cap) as usize;
    let current = SEED_TABLE
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(table) = current.filter(|t| t.len() >= want) {
        return Some(table);
    }
    let mut slot = SEED_TABLE.write().unwrap_or_else(PoisonError::into_inner);
    let old = slot.as_deref().unwrap_or(&[]);
    if old.len() < want {
        *slot = Some(grow_seed_table(old, want));
    }
    slot.clone()
}

/// `old` grown to at least `want` entries (`want ≤ SEED_TABLE_CELLS`):
/// the length at least doubles, the old prefix is copied and only the
/// new entries are computed. Values lie in `[-500, 499]`, so `i16`
/// holds them.
fn grow_seed_table(old: &[i16], want: usize) -> Arc<[i16]> {
    let len = want
        .next_power_of_two()
        .max(old.len() * 2)
        .min(SEED_TABLE_CELLS);
    let mut grown = Vec::with_capacity(len);
    grown.extend_from_slice(old);
    grown.extend((old.len()..len).map(|j| seed_value(j as u64) as i16));
    grown.into()
}

/// The seed values of an array of `len` cells seeded with `seed`: cell
/// `k` is `seed_value(seed + k)`, copied from `table` while `seed + k`
/// lies inside it (the first part), computed by the formula past it
/// (the second, for the remaining cells in order).
fn seed_values(
    table: Option<&[i16]>,
    seed: u64,
    len: usize,
) -> (&[i16], impl Iterator<Item = i64>) {
    let copied = table
        .zip(usize::try_from(seed).ok())
        .and_then(|(t, s)| t.get(s..))
        .map_or(&[][..], |t| &t[..t.len().min(len)]);
    let computed = (copied.len()..len).map(move |k| seed_value(seed.wrapping_add(k as u64)));
    (copied, computed)
}

/// An empty table with room for `len` entries, reserved fallibly: a
/// table the allocator refuses is a [`RuntimeError::AllocationFailed`]
/// naming `what()`, never an abort.
fn reserved<T>(len: usize, what: impl FnOnce() -> String) -> Result<Vec<T>> {
    let mut table = Vec::new();
    table
        .try_reserve_exact(len)
        .map_err(|_| RuntimeError::AllocationFailed {
            array: what(),
            cells: len,
        })?;
    Ok(table)
}

/// A table of `len` default (zero) entries — a buffer of cells or a
/// dense per-cell index — allocated fallibly ([`reserved`]).
pub(crate) fn zeroed<T: Default>(len: usize, what: impl FnOnce() -> String) -> Result<Vec<T>> {
    let mut table = reserved(len, what)?;
    table.resize_with(len, T::default);
    Ok(table)
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
        // 7e17 + 1 cells each: either array alone fits in `isize::MAX`
        // bytes, the one buffer holding both does not. The layout
        // refuses it, so no allocation is attempted.
        let nest =
            parse_loop("for i = 0..=1 { A[700000000000000000*i] = B[700000000000000000*i]; }")
                .unwrap();
        assert!(matches!(
            Layout::for_nest(&nest),
            Err(RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))
        ));
        assert!(matches!(
            Memory::for_nest(&nest),
            Err(RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))
        ));
        assert!(matches!(
            Memory::seeded(&nest, 1),
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

        // Golden values, computed with the per-array storage the one
        // buffer replaced: seeding restarts at index 0 in each array, so
        // A and B begin alike, and the checksum sums both.
        let nest = parse_loop("for i = 0..=3 { A[i] = B[2*i] + 1; }").unwrap();
        let mut m = Memory::for_nest(&nest).unwrap();
        m.init_deterministic(7);
        assert_eq!(
            m.snapshot(),
            vec![
                vec![351, 438, 369, 476],
                vec![351, 438, 369, 476, 216, -150, -405]
            ]
        );
        assert_eq!(m.checksum(), 2929);

        // Golden values at the largest seed, where `seed + k` wraps
        // past `u64::MAX` (computed at the formula-only seeding).
        m.init_deterministic(u64::MAX);
        assert_eq!(
            m.snapshot(),
            vec![
                vec![-105, -500, 61, -422],
                vec![-105, -500, 61, -422, 115, 59, 50]
            ]
        );
        assert_eq!(m.checksum(), -1708);
    }

    #[test]
    fn seed_table_copies_exactly_what_the_formula_computes() {
        // One array longer than the table and one short one.
        let nest =
            parse_loop("for i = 0..=29999 { for j = 0..=9 { A[10*i + j] = B[j] + 1; } }").unwrap();
        let cap = SEED_TABLE_CELLS as u64;
        let seeds = [0, 1, 4, cap - 3, cap, (1 << 32) + 1, u64::MAX - 2, u64::MAX];
        for seed in seeds {
            let mut m = Memory::seeded(&nest, seed).unwrap();
            let snap = m.snapshot();
            assert_eq!(snap[0].len(), 300_000);
            for array in &snap {
                for (k, &v) in array.iter().enumerate() {
                    assert_eq!(
                        v,
                        seed_value(seed.wrapping_add(k as u64)),
                        "seed {seed}, k {k}"
                    );
                }
            }
            let mut two_pass = Memory::for_nest(&nest).unwrap();
            two_pass.init_deterministic(seed);
            assert_eq!(two_pass.snapshot(), snap, "seed {seed}");
            m.init_deterministic(seed);
            assert_eq!(m.snapshot(), snap, "re-seeding in place, seed {seed}");
        }
    }

    #[test]
    fn growing_the_seed_table_keeps_its_values() {
        // A small request, then one that grows the table to its cap:
        // the grown table holds the formula's values, old prefix
        // included.
        let formula =
            |len: usize| -> Vec<i16> { (0..len as u64).map(|j| seed_value(j) as i16).collect() };
        let small = grow_seed_table(&[], 10);
        assert_eq!(small.len(), 16);
        assert_eq!(&small[..], &formula(16)[..]);
        let large = grow_seed_table(&small, 200_000);
        assert_eq!(large.len(), SEED_TABLE_CELLS);
        assert_eq!(&large[..], &formula(SEED_TABLE_CELLS)[..]);
        assert_eq!(grow_seed_table(&small, 17).len(), 32);

        // The shared table (which other tests grow concurrently) seeds
        // short and long arrays alike, before and after it grows.
        let short = parse_loop("for i = 0..=9 { A[i] = A[i] + 1; }").unwrap();
        let long = parse_loop("for i = 0..=199999 { A[i] = A[i] + 1; }").unwrap();
        let expect =
            |seed: u64, len: u64| -> Vec<i64> { (0..len).map(|k| seed_value(seed + k)).collect() };
        for seed in [3, 100_000] {
            let before = Memory::seeded(&short, seed).unwrap().snapshot();
            assert_eq!(before, vec![expect(seed, 10)]);
            let grown = Memory::seeded(&long, seed).unwrap().snapshot();
            assert_eq!(grown, vec![expect(seed, 200_000)]);
            assert_eq!(Memory::seeded(&short, seed).unwrap().snapshot(), before);
        }
        let table = seed_table(100_000, Memory::for_nest(&long).unwrap().layout()).unwrap();
        assert_eq!(table.len(), SEED_TABLE_CELLS);
    }

    #[test]
    fn cell_ids_lay_arrays_end_to_end() {
        let nest = parse_loop("for i = 0..=3 { A[i] = B[2*i] + 1; }").unwrap();
        let mem = Memory::for_nest(&nest).unwrap();
        let layout = mem.layout();
        assert_eq!(layout.cells(), 11);
        assert_eq!(layout.arrays()[1].cells(), 4..11);
        assert_eq!(mem.flat(ArrayId(1), &[6]), Some(10));
        assert_eq!(layout.locate(10), (1, 6));
        mem.write(ArrayId(1), &[0], 5).unwrap();
        assert_eq!(mem.read_cell(4), Some(5));
        assert_eq!(mem.read_cell(11), None);
    }
}
