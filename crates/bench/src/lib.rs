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
//! | `experiments` | every row of EXPERIMENTS.md in one run |
//!
//! Performance snapshots and the CI regression gate:
//!
//! | bin | role |
//! |-----|------|
//! | `bench_runtime` | writes `BENCH_runtime.json` (compiled vs. reference-interpreter throughput) |
//! | `bench_fm` | writes `BENCH_fm.json` (FM pruning: bound rows, peak rows, timings) |
//! | `bench_template` | writes `BENCH_template.json` (plan-template instantiate vs. replan) |
//! | `bench_imperfect` | writes `BENCH_imperfect.json` (imperfect-nest staged pipelines) |
//! | `bench_scaling` | writes `BENCH_scaling.json` (work-stealing thread scaling, stealing vs. contiguous split) |
//! | `bench_service` | writes `BENCH_service.json` (plan-serving storm: zipf-mixed requests over TCP) |
//! | `bench_faults` | writes `BENCH_faults.json` (fault-hardening overhead + resilience storms) |
//! | `bench_inspector` | writes `BENCH_inspector.json` (inspector audit cost, verdict-picked executors) |
//! | `bench_check` | re-measures every snapshot and fails on regression of gated metrics |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

// The dependency-free JSON parser/serializer lives in pdm-service now
// (it frames the wire protocol there); re-exported so existing
// `pdm_bench::json` callers keep working.
pub use pdm_service::json;
pub mod perf;

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
        let seq = pdm_runtime::CompiledNest::compile(nest, &m).expect("compile nest");
        let (_, t) = time(|| seq.run(&m).expect("seq"));
        best_seq = best_seq.min(t);

        let mut m = Memory::for_nest(nest).expect("alloc");
        m.init_deterministic(1);
        let par = pdm_runtime::CompiledPlan::compile(nest, plan, &m).expect("compile plan");
        let (_, t) = time(|| par.run_parallel(&m).expect("par"));
        best_par = best_par.min(t);
    }
    (best_seq, best_par, best_seq / best_par)
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
    }
}
