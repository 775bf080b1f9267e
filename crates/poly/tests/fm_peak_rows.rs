//! Exact pins of Fourier–Motzkin pruning effectiveness: the peak
//! working-system rows of a full elimination under each [`Prune`] level,
//! on skewed boxes (where pruning has nothing to drop) and on seeded
//! random deep systems (where unpruned FM blows up). The counts are
//! deterministic, so any change to the elimination order or to either
//! pruning rule shows up here as an exact mismatch.

use pdm_matrix::vec::IVec;
use pdm_poly::expr::AffineExpr;
use pdm_poly::fm::{eliminate_all_stats, Prune};
use pdm_poly::system::System;
use rand::prelude::*;

/// A skewed n-dimensional box: `0 ≤ x_k + x_{k−1} ≤ size` for every `k`.
fn skewed_box(n: usize, size: i64) -> System {
    let mut s = System::universe(n);
    for k in 0..n {
        let mut coeffs = vec![0i64; n];
        coeffs[k] = 1;
        if k > 0 {
            coeffs[k - 1] = 1;
        }
        s.add_ge0(AffineExpr::new(IVec(coeffs.clone()), 0)).unwrap();
        let neg: Vec<i64> = coeffs.iter().map(|c| -c).collect();
        s.add_ge0(AffineExpr::new(IVec(neg), size)).unwrap();
    }
    s
}

/// A random bounded deep system: a box plus `cuts` random affine cuts
/// with small coefficients — the shape FM blows up on.
fn random_deep_system(dim: usize, cuts: usize, seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = System::universe(dim);
    for i in 0..dim {
        s.add_range(i, -6, 6).unwrap();
    }
    let mut added = 0usize;
    while added < cuts {
        let coeffs: Vec<i64> = (0..dim).map(|_| rng.gen_range(-2i64..=2)).collect();
        if coeffs.iter().all(|&c| c == 0) {
            continue;
        }
        let c = rng.gen_range(0i64..=10);
        s.add_ge0(AffineExpr::new(IVec(coeffs), c)).unwrap();
        added += 1;
    }
    s
}

/// Peak rows eliminating every variable of `sys`, as
/// `[unpruned, Fast, Exact]`.
fn peak_rows(sys: &System) -> [usize; 3] {
    let vars: Vec<usize> = (0..sys.dim()).collect();
    [Prune::None, Prune::Fast, Prune::Exact]
        .map(|prune| eliminate_all_stats(sys, &vars, prune).unwrap().1.peak_rows)
}

#[test]
fn skewed_boxes_have_nothing_to_prune() {
    assert_eq!(peak_rows(&skewed_box(4, 40)), [8, 8, 8]);
    assert_eq!(peak_rows(&skewed_box(6, 40)), [12, 12, 12]);
}

#[test]
fn random_deep_systems_peak_rows_are_pinned() {
    assert_eq!(peak_rows(&random_deep_system(4, 8, 7)), [33, 22, 16]);
    assert_eq!(peak_rows(&random_deep_system(5, 10, 11)), [86, 39, 20]);
    assert_eq!(peak_rows(&random_deep_system(6, 10, 5)), [810, 61, 22]);
}
