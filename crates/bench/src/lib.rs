//! # pdm-bench — harness regenerating every table and figure of the paper
//!
//! Binaries (`cargo run -p pdm-bench --bin <name>`):
//!
//! | bin | paper artifact |
//! |-----|----------------|
//! | `fig2` | Figure 2 — ISDG of the §4.1 loop, N = 10, range −10..10 |
//! | `fig3` | Figure 3 — §4.1 after the unimodular + partitioning transforms |
//! | `fig4` | Figure 4 — ISDG of the §4.2 loop |
//! | `fig5` | Figure 5 — §4.2 split into det = 4 independent partitions |
//! | `table1` | Table 1 — the method-comparison matrix, *measured* |
//! | `experiments` | every paper claim (FIG2–FIG5, TAB1, speedups) checked in one run |
//!
//! Performance is measured by the serving benchmark (`servebench/`, its
//! own package): end-to-end traffic mixes plus a per-layer ledger.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;
use pdm_loopir::parse::parse_loop_with;
use pdm_runtime::memory::Memory;
use std::time::Instant;

/// The reconstructed §4.1 loop over `lo..=hi` squares (the paper's figures
/// use −10..=10; see DESIGN.md for the reconstruction note).
pub fn paper41(lo: i64, hi: i64) -> LoopNest {
    parse_loop_with(
        "for i1 = LO..=HI { for i2 = LO..=HI {
           A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
         } }",
        &[("LO", lo), ("HI", hi)],
    )
    .expect("paper41 parses")
}

/// The reconstructed §4.2 loop.
pub fn paper42(lo: i64, hi: i64) -> LoopNest {
    parse_loop_with(
        "for i1 = LO..=HI { for i2 = LO..=HI {
           A[i1, 3*i2 + 2] = B[i1, i2] + 1;
           B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
         } }",
        &[("LO", lo), ("HI", hi)],
    )
    .expect("paper42 parses")
}

/// Wall-clock a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Measured speedup of a plan's compiled parallel execution over the
/// compiled original-order walk, with result equivalence verified.
/// Returns `(seq_seconds, par_seconds, speedup)`.
pub fn measure_speedup(nest: &LoopNest, plan: &ParallelPlan, reps: usize) -> (f64, f64, f64) {
    // Warm-up + verification run.
    let rep = pdm_runtime::equivalence::compare(nest, plan, 1).expect("execute");
    assert!(rep.equal, "parallel run diverged — refusing to time it");

    let mut best_seq = f64::INFINITY;
    let mut best_par = f64::INFINITY;
    for _ in 0..reps {
        let mut m = Memory::for_nest(nest).expect("alloc");
        m.init_deterministic(1);
        let seq = pdm_runtime::CompiledPlan::compile(nest, plan, &m).expect("compile plan");
        let (_, t) = time(|| seq.run_original_order(nest, &m).expect("seq"));
        best_seq = best_seq.min(t);

        let mut m = Memory::for_nest(nest).expect("alloc");
        m.init_deterministic(1);
        let par = pdm_runtime::CompiledPlan::compile(nest, plan, &m).expect("compile plan");
        let (_, t) = time(|| par.run_parallel(&m).expect("par"));
        best_par = best_par.min(t);
    }
    (best_seq, best_par, best_seq / best_par)
}

/// Warm timings of a plan on one seeded memory, reused by every call:
/// the best of `reps` calls of the compiled original-order walk, of the
/// parallel run on the current pool, and of the parallel run on a
/// one-thread pool. [`measure_speedup`] times cold calls on fresh
/// memory instead. Returns `(seq_seconds, par_seconds,
/// par_one_thread_seconds)`.
pub fn measure_warm(nest: &LoopNest, plan: &ParallelPlan, reps: usize) -> (f64, f64, f64) {
    let mut m = Memory::for_nest(nest).expect("alloc");
    m.init_deterministic(1);
    let cp = pdm_runtime::CompiledPlan::compile(nest, plan, &m).expect("compile plan");
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let best = |f: &dyn Fn() -> u64| {
        (0..reps.max(1))
            .map(|_| time(f).1)
            .fold(f64::INFINITY, f64::min)
    };
    let seq = best(&|| cp.run_original_order(nest, &m).expect("seq"));
    let par = best(&|| cp.run_parallel(&m).expect("par"));
    let par_one = best(&|| one.install(|| cp.run_parallel(&m)).expect("par"));
    (seq, par, par_one)
}

/// A `(claimed, measured, pass)` line for the experiment report.
pub fn claim(
    label: &str,
    expected: impl std::fmt::Display,
    got: impl std::fmt::Display,
    pass: bool,
) {
    println!(
        "  [{}] {label}: paper={expected} measured={got}",
        if pass { "OK" } else { "!!" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_nests_have_documented_plans() {
        let p41 = paper41(0, 9);
        let plan = pdm_core::parallelize(&p41).unwrap();
        assert_eq!(plan.doall_count(), 1);
        assert_eq!(plan.partition_count(), 2);
        let p42 = paper42(0, 9);
        let plan = pdm_core::parallelize(&p42).unwrap();
        assert_eq!(plan.partition_count(), 4);
    }

    #[test]
    fn negative_ranges_work() {
        let p41 = paper41(-10, 10);
        assert_eq!(p41.iterations().unwrap().len(), 441);
    }

    #[test]
    fn speedup_harness_verifies_and_times() {
        let nest = paper41(0, 15);
        let plan = pdm_core::parallelize(&nest).unwrap();
        let (s, p, sp) = measure_speedup(&nest, &plan, 1);
        assert!(s > 0.0 && p > 0.0 && sp > 0.0);
        let (s, p, p1) = measure_warm(&nest, &plan, 2);
        assert!(s > 0.0 && p > 0.0 && p1 > 0.0);
    }
}
