//! Differential tests: reference interpreter vs. compiled walker.
//!
//! Every nest is executed three ways — sequential interpreter
//! (reference), compiled in original order, compiled under the parallel
//! plan — and all must produce identical `Memory` contents and iteration
//! counts. Inputs
//! are the paper's examples plus > 100 generator-produced random nests
//! spanning depths 1–3, multi-statement bodies, and plans with and
//! without doall prefixes and Theorem-2 partitions. A thread-matrix leg
//! repeats the comparison on dedicated work-stealing pools of 1, 2, and
//! `max(4, machine)` workers, so scheduler changes cannot hide behind
//! the default pool width.

use proptest::prelude::*;
use vardep_loops::core::parallelize;
use vardep_loops::loopir::generator::{random_nest, GenConfig};
use vardep_loops::loopir::parse::parse_loop;
use vardep_loops::runtime::equivalence::{assert_plan_equivalent, compare};

#[test]
fn paper_examples_equivalent() {
    for src in [
        "for i1 = 0..=9 { for i2 = 0..=9 {
           A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
         } }",
        "for i1 = 0..=9 { for i2 = 0..=9 {
           A[i1, 3*i2 + 2] = B[i1, i2] + 1;
           B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
         } }",
    ] {
        let nest = parse_loop(src).unwrap();
        assert_plan_equivalent(&nest, 1);
        assert_plan_equivalent(&nest, 99);
    }
}

#[test]
fn stencil_and_workloads_equivalent() {
    for src in [
        "for i = 1..=40 { A[i] = A[i - 1] + 1; }",
        "for i = 0..=40 { A[i] = i * 3; }",
        "for i = 0..=40 { A[2*i] = A[i] + 1; }",
        "for i = 1..=16 { for j = 1..=16 { A[i, j] = A[i - 1, j] + A[i, j - 1]; } }",
        "for i = 1..=12 { for j = 0..=12 { A[i, j] = A[i - 1, j] + 1; } }",
        "for i = 0..=12 { for j = 0..=i { A[i, j] = A[i, j] + j; } }",
        "for i = 1..=5 { for j = 0..=5 { for k = 0..=5 {
           A[i, j, k] = A[i - 1, j, k] + 1;
         } } }",
    ] {
        let nest = parse_loop(src).unwrap();
        assert_plan_equivalent(&nest, 13);
    }
}

#[test]
fn random_nests_equivalent_over_100_cases() {
    let mut partitioned = 0usize;
    let mut with_doall = 0usize;
    let mut cases = 0usize;
    for seed in 0..120u64 {
        let cfg = GenConfig {
            depth: 1 + (seed as usize % 3),
            extent: 5 + (seed as i64 % 4),
            stmts: 1 + (seed as usize % 2),
            arrays: 1 + (seed as usize % 2),
            ..GenConfig::default()
        };
        let nest = random_nest(seed, &cfg).expect("generator");
        let plan = parallelize(&nest).unwrap_or_else(|e| panic!("seed {seed}: plan: {e}"));
        if plan.partition().is_some() {
            partitioned += 1;
        }
        if plan.doall_count() > 0 {
            with_doall += 1;
        }
        let rep = compare(&nest, &plan, seed ^ 0xA5)
            .unwrap_or_else(|e| panic!("seed {seed}: execute: {e}"));
        assert!(rep.equal, "seed {seed}: divergence");
        cases += 1;
    }
    assert!(cases >= 100, "need >= 100 random cases, got {cases}");
    // The sweep must actually exercise both plan shapes.
    assert!(partitioned > 0, "no partitioned plan in the sweep");
    assert!(with_doall > 0, "no doall-prefix plan in the sweep");
}

/// The pool widths of the thread matrix: serial, minimal parallelism,
/// and wider than most CI machines so stealing actually happens.
fn thread_matrix() -> [usize; 3] {
    let machine = std::thread::available_parallelism().map_or(4, |n| n.get());
    [1, 2, machine.max(4)]
}

/// Thread-matrix leg on hand-picked shapes: the paper's running
/// example, a cost-skewed triangle, and a skewed row recurrence — each
/// executed on every pool width of the matrix.
#[test]
fn thread_matrix_on_paper_and_skewed_nests() {
    for src in [
        "for i1 = 0..=9 { for i2 = 0..=9 {
           A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
         } }",
        "for i = 0..=12 { for j = 0..=i { A[i, j] = A[i, j] + j; } }",
        "for i = 0..=16 { for j = 1..=16 { A[i, j] = A[i, j - 1] + 1; } }",
    ] {
        let nest = parse_loop(src).unwrap();
        for threads in thread_matrix() {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| assert_plan_equivalent(&nest, 21));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Thread-matrix leg on random nests (seeds are name-derived;
    /// `PDM_PROPTEST_SEED` pins the whole matrix): every pool width
    /// must agree with the sequential reference bit for bit.
    #[test]
    fn thread_matrix_equivalent_random(seed in 0u64..1_000_000) {
        let cfg = GenConfig {
            depth: 1 + (seed as usize % 3),
            extent: 5 + (seed as i64 % 4),
            stmts: 1 + (seed as usize % 2),
            arrays: 1 + (seed as usize % 2),
            ..GenConfig::default()
        };
        let nest = random_nest(seed, &cfg).expect("generator");
        let plan = parallelize(&nest).expect("plan");
        for threads in thread_matrix() {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let rep = pool
                .install(|| compare(&nest, &plan, seed ^ 0xC3))
                .unwrap();
            prop_assert!(rep.equal, "threads={} divergence", threads);
        }
    }
}
