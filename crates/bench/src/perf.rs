//! Shared measurement harness behind the `bench_*` snapshot writers and
//! the `bench_check` regression gate.
//!
//! Each bench binary writes one `BENCH_*.json` snapshot into the repo;
//! `bench_check` re-runs the same measurement functions and compares the
//! fresh numbers against the committed files.
//!
//! # What the gate compares
//!
//! Absolute throughput (`*_per_s`, `*_ms`) is machine-dependent — a CI
//! runner is not the workstation that committed the snapshot — so those
//! numbers are reported but not gated by default. The gate fails on
//! **ratio metrics**, which are computed from two measurements on the
//! *same* machine in the *same* run and therefore transfer across hosts:
//!
//! * `*_speedup` — e.g. compiled vs. reference-interpreter throughput;
//! * `*_reduction` — constraint-count ratios (fully deterministic).
//!
//! A gated metric regresses when `fresh < committed · (1 − tolerance)`.
//! Deterministic count ratios use [`TOLERANCE`] = 25%; timing-based
//! `*_speedup` ratios use the wider [`TIMING_TOLERANCE`] = 40%, because
//! scheduler jitter on shared CI runners moves them by double-digit
//! percentages run to run while a genuine engine regression (a speedup
//! collapsing toward 1×) still lands far past the gate. Set
//! `BENCH_CHECK_STRICT=1` to additionally gate the absolute `*_per_s`
//! numbers (useful on a pinned machine).

use crate::{paper41, paper42, time};
use pdm_loopir::nest::LoopNest;
use pdm_loopir::parse::parse_loop_with;
use pdm_matrix::vec::IVec;
use pdm_poly::bounds::LoopBounds;
use pdm_poly::expr::AffineExpr;
use pdm_poly::fm::{eliminate_all_stats, ElimStats, Prune};
use pdm_poly::system::System;
use pdm_runtime::compile::{CompiledNest, CompiledPlan};
use pdm_runtime::equivalence::compare;
use pdm_runtime::memory::Memory;
use pdm_runtime::schedule::{cost_skewed, Schedule};
use rand::prelude::*;

/// Best-of repetitions for the runtime throughput cases.
pub const RUNTIME_REPS: usize = 5;
/// Best-of repetitions for the FM timing cases.
pub const FM_REPS: usize = 3;
/// Allowed relative drop of a deterministic gated metric (count ratios)
/// before the gate fails.
pub const TOLERANCE: f64 = 0.25;
/// Allowed relative drop of a timing-based gated metric (`*_speedup`),
/// widened to absorb shared-runner scheduler jitter.
pub const TIMING_TOLERANCE: f64 = 0.40;

fn best<F: FnMut() -> T, T>(reps: usize, mut f: F) -> f64 {
    let mut bestt = f64::INFINITY;
    for _ in 0..reps {
        let (_, t) = time(&mut f);
        bestt = bestt.min(t);
    }
    bestt
}

// ---------------------------------------------------------------------
// Runtime throughput (compiled walker vs. reference interpreter).
// ---------------------------------------------------------------------

/// One compiled-vs-interpreted throughput case (times in seconds): the
/// reference interpreter against the compiled walker in original order,
/// plus the compiled parallel schedule for context.
pub struct RuntimeCase {
    /// Case label (stable across runs; used as the JSON metric path).
    pub name: &'static str,
    /// Iterations per full execution.
    pub iterations: u64,
    /// Interpreter, sequential.
    pub interp_seq: f64,
    /// Compiled engine, sequential.
    pub compiled_seq: f64,
    /// Compiled engine, parallel schedule.
    pub compiled_par: f64,
    /// Configured worker threads during the parallel measurements.
    pub threads: usize,
    /// Workers the last parallel region actually used
    /// ([`rayon::last_region_threads`]).
    pub observed_threads: usize,
}

fn run_runtime_case(name: &'static str, nest: &LoopNest) -> RuntimeCase {
    let plan = pdm_core::parallelize(nest).expect("plan");
    let rep = compare(nest, &plan, 1).expect("execute");
    assert!(rep.equal, "{name}: executors diverged — refusing to time");
    let iterations = rep.iterations;

    let mut m = Memory::for_nest(nest).expect("alloc");
    m.init_deterministic(1);

    let interp_seq = best(RUNTIME_REPS, || {
        pdm_runtime::run_sequential(nest, &m).unwrap()
    });
    let compiled = CompiledNest::compile(nest, &m).expect("compile nest");
    let mut scratch = compiled.new_scratch();
    let compiled_seq = best(RUNTIME_REPS, || {
        compiled.run_with_scratch(&m, &mut scratch).unwrap()
    });
    let cplan = CompiledPlan::compile(nest, &plan, &m).expect("compile plan");
    let compiled_par = best(RUNTIME_REPS, || cplan.run_parallel(&m).unwrap());

    RuntimeCase {
        name,
        iterations,
        interp_seq,
        compiled_seq,
        compiled_par,
        threads: rayon::current_num_threads(),
        observed_threads: rayon::last_region_threads(),
    }
}

/// The classic 2-D first-order stencil over an `n × n` interior — shared
/// by the runtime and FM case families so `stencil_n200` names the same
/// workload in both snapshots.
pub fn stencil2d(n: i64) -> LoopNest {
    parse_loop_with(
        "for i = 1..N { for j = 1..N { A[i, j] = A[i - 1, j] + A[i, j - 1]; } }",
        &[("N", n)],
    )
    .expect("stencil parses")
}

/// Measure every runtime case, printing one summary line per case.
pub fn runtime_cases() -> Vec<RuntimeCase> {
    let cases = vec![
        run_runtime_case("paper41_n200", &paper41(0, 199)),
        run_runtime_case("paper42_n200", &paper42(0, 199)),
        run_runtime_case("stencil_n200", &stencil2d(200)),
    ];
    for c in &cases {
        let tp = |secs: f64| c.iterations as f64 / secs;
        println!(
            "{:<14} seq {:>10.0} -> {:>11.0} iters/s ({:4.1}x)   compiled par {:>11.0} iters/s",
            c.name,
            tp(c.interp_seq),
            tp(c.compiled_seq),
            c.interp_seq / c.compiled_seq,
            tp(c.compiled_par),
        );
    }
    cases
}

/// Serialize runtime cases into the committed `BENCH_runtime.json`
/// shape. Every case records the worker-thread count it actually ran
/// with (`threads` configured, `observed_threads` used).
pub fn runtime_json(cases: &[RuntimeCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"compiled_vs_interp\",\n");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push_str(&format!(
        "  \"machine_threads\": {threads},\n  \"cases\": [\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        let tp = |secs: f64| c.iterations as f64 / secs;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iterations\": {}, \
             \"threads\": {}, \"observed_threads\": {}, \
             \"interp_seq_iters_per_s\": {:.0}, \"compiled_seq_iters_per_s\": {:.0}, \
             \"compiled_par_iters_per_s\": {:.0}, \"seq_speedup\": {:.2}}}{}\n",
            c.name,
            c.iterations,
            c.threads,
            c.observed_threads,
            tp(c.interp_seq),
            tp(c.compiled_seq),
            tp(c.compiled_par),
            c.interp_seq / c.compiled_seq,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Fourier–Motzkin pruning effectiveness.
// ---------------------------------------------------------------------

/// Bound-generation stats for one loop nest: rows and wall time with
/// pruning off vs. on (times in seconds).
pub struct FmPlanCase {
    /// Case label.
    pub name: &'static str,
    /// Nest depth.
    pub depth: usize,
    /// Total per-level bound rows without pruning.
    pub rows_unpruned: usize,
    /// Total per-level bound rows with exact pruning.
    pub rows_pruned: usize,
    /// Rows the compiled walker evaluates (post-pruning).
    pub compiled_rows: usize,
    /// Bound-generation time, unpruned baseline.
    pub bounds_unpruned: f64,
    /// Bound-generation time with exact pruning.
    pub bounds_pruned: f64,
    /// Full `parallelize` wall time (pruning on).
    pub plan: f64,
}

fn transformed_system(nest: &LoopNest) -> (System, usize) {
    let plan = pdm_core::parallelize(nest).expect("plan");
    let tsys =
        pdm_core::plan::transformed_system(nest, plan.inverse()).expect("transformed system");
    (tsys, plan.depth())
}

fn run_fm_plan_case(name: &'static str, nest: &LoopNest) -> FmPlanCase {
    let (tsys, depth) = transformed_system(nest);
    let raw = LoopBounds::from_system_pruned(&tsys, Prune::None).expect("unpruned bounds");
    let pruned = LoopBounds::from_system(&tsys).expect("pruned bounds");
    let bounds_unpruned = best(FM_REPS, || {
        LoopBounds::from_system_pruned(&tsys, Prune::None)
            .unwrap()
            .dim()
    });
    let bounds_pruned = best(FM_REPS, || LoopBounds::from_system(&tsys).unwrap().dim());
    let plan_t = best(FM_REPS, || pdm_core::parallelize(nest).unwrap().depth());

    let plan = pdm_core::parallelize(nest).expect("plan");
    let mem = Memory::for_nest(nest).expect("alloc");
    let cplan = CompiledPlan::compile(nest, &plan, &mem).expect("compile");

    FmPlanCase {
        name,
        depth,
        rows_unpruned: raw.total_rows(),
        rows_pruned: pruned.total_rows(),
        compiled_rows: cplan.bound_rows(),
        bounds_unpruned,
        bounds_pruned,
        plan: plan_t,
    }
}

/// Elimination stats for one constraint system under each [`Prune`]
/// level: peak intermediate rows and wall time (times in seconds).
/// `fast` (the [`pdm_poly::fm::eliminate_all`] default) is the wall-time
/// configuration; `exact` minimizes the surviving rows.
pub struct FmElimCase {
    /// Case label.
    pub name: &'static str,
    /// Number of variables eliminated.
    pub depth: usize,
    /// Input constraint count.
    pub input_rows: usize,
    /// Stats of the unpruned baseline.
    pub unpruned: ElimStats,
    /// Stats of the Kohler-history run.
    pub fast: ElimStats,
    /// Stats of the exact-pruned run.
    pub exact: ElimStats,
    /// Wall time of the unpruned baseline.
    pub t_unpruned: f64,
    /// Wall time of the Kohler-history run.
    pub t_fast: f64,
    /// Wall time of the exact-pruned run.
    pub t_exact: f64,
}

fn run_fm_elim_case(name: &'static str, sys: &System) -> FmElimCase {
    let vars: Vec<usize> = (0..sys.dim()).collect();
    let (_, unpruned) = eliminate_all_stats(sys, &vars, Prune::None).expect("unpruned");
    let (_, fast) = eliminate_all_stats(sys, &vars, Prune::Fast).expect("fast");
    let (_, exact) = eliminate_all_stats(sys, &vars, Prune::Exact).expect("exact");
    let t_unpruned = best(FM_REPS, || {
        eliminate_all_stats(sys, &vars, Prune::None).unwrap().1
    });
    let t_fast = best(FM_REPS, || {
        eliminate_all_stats(sys, &vars, Prune::Fast).unwrap().1
    });
    let t_exact = best(FM_REPS, || {
        eliminate_all_stats(sys, &vars, Prune::Exact).unwrap().1
    });
    FmElimCase {
        name,
        depth: sys.dim(),
        input_rows: sys.len(),
        unpruned,
        fast,
        exact,
        t_unpruned,
        t_fast,
        t_exact,
    }
}

/// A skewed n-dimensional box: `0 ≤ x_k + x_{k−1} ≤ size` for every `k`.
pub fn skewed_box(n: usize, size: i64) -> System {
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
pub fn random_deep_system(dim: usize, cuts: usize, seed: u64) -> System {
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

/// The 4-deep sequential stencil used as the deep planning workload.
pub fn deep_stencil(n: i64) -> LoopNest {
    parse_loop_with(
        "for i = 1..N { for j = 1..N { for k = 1..N { for l = 1..N {
           A[i, j, k, l] = A[i - 1, j, k, l] + A[i, j - 1, k, l]
                         + A[i, j, k - 1, l] + A[i, j, k, l - 1];
         } } } }",
        &[("N", n)],
    )
    .expect("deep stencil parses")
}

/// Measure every FM case, printing one summary line per case.
pub fn fm_cases() -> (Vec<FmPlanCase>, Vec<FmElimCase>) {
    let plans = vec![
        run_fm_plan_case("paper41_n200", &paper41(0, 199)),
        run_fm_plan_case("paper42_n200", &paper42(0, 199)),
        run_fm_plan_case("stencil_n200", &stencil2d(200)),
        run_fm_plan_case("stencil4d_n8", &deep_stencil(8)),
    ];
    for c in &plans {
        println!(
            "{:<14} depth {}  bound rows {:>3} -> {:>3} ({:4.2}x)   bounds {:>8.1}us -> {:>8.1}us   plan {:>8.1}us",
            c.name,
            c.depth,
            c.rows_unpruned,
            c.rows_pruned,
            c.rows_unpruned as f64 / c.rows_pruned as f64,
            c.bounds_unpruned * 1e6,
            c.bounds_pruned * 1e6,
            c.plan * 1e6,
        );
    }
    let elims = vec![
        run_fm_elim_case("skewed_box_d4", &skewed_box(4, 40)),
        run_fm_elim_case("skewed_box_d6", &skewed_box(6, 40)),
        run_fm_elim_case("random_d4", &random_deep_system(4, 8, 7)),
        run_fm_elim_case("random_d5", &random_deep_system(5, 10, 11)),
        run_fm_elim_case("random_d6", &random_deep_system(6, 10, 5)),
    ];
    for c in &elims {
        println!(
            "{:<14} depth {}  peak rows {:>5} / fast {:>4} / exact {:>4} ({:6.2}x)   eliminate {:>9.1}us / {:>8.1}us / {:>9.1}us",
            c.name,
            c.depth,
            c.unpruned.peak_rows,
            c.fast.peak_rows,
            c.exact.peak_rows,
            c.unpruned.peak_rows as f64 / c.exact.peak_rows as f64,
            c.t_unpruned * 1e6,
            c.t_fast * 1e6,
            c.t_exact * 1e6,
        );
    }
    (plans, elims)
}

/// Serialize FM cases into the committed `BENCH_fm.json` shape. The FM
/// pipeline is sequential, so every case records `"threads": 1` — the
/// worker count it actually ran with.
pub fn fm_json(plans: &[FmPlanCase], elims: &[FmElimCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"fm_prune\",\n  \"plan_cases\": [\n");
    for (i, c) in plans.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"depth\": {}, \"threads\": 1, \
             \"rows_unpruned\": {}, \"rows_pruned\": {}, \"compiled_rows\": {}, \
             \"rows_reduction\": {:.3}, \
             \"bounds_unpruned_ms\": {:.4}, \"bounds_pruned_ms\": {:.4}, \
             \"plan_ms\": {:.4}, \"plans_per_s\": {:.0}}}{}\n",
            c.name,
            c.depth,
            c.rows_unpruned,
            c.rows_pruned,
            c.compiled_rows,
            c.rows_unpruned as f64 / c.rows_pruned as f64,
            c.bounds_unpruned * 1e3,
            c.bounds_pruned * 1e3,
            c.plan * 1e3,
            1.0 / c.plan,
            if i + 1 == plans.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"elim_cases\": [\n");
    for (i, c) in elims.iter().enumerate() {
        // The unpruned-vs-Fast timing ratio is the headline win, so gate
        // it (`_speedup`) wherever the unpruned run is long enough for
        // the ratio to be stable; µs-scale cases stay informational
        // (`_time_ratio`) — scheduler jitter would make them flake.
        let ratio_key = if c.t_unpruned >= 1e-3 {
            "elim_speedup"
        } else {
            "elim_time_ratio"
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"depth\": {}, \"threads\": 1, \"input_rows\": {}, \
             \"peak_unpruned\": {}, \"peak_fast\": {}, \"peak_exact\": {}, \
             \"peak_reduction\": {:.3}, \
             \"dropped_history\": {}, \"dropped_exact\": {}, \
             \"elim_unpruned_ms\": {:.4}, \"elim_fast_ms\": {:.4}, \"elim_exact_ms\": {:.4}, \
             \"{ratio_key}\": {:.3}}}{}\n",
            c.name,
            c.depth,
            c.input_rows,
            c.unpruned.peak_rows,
            c.fast.peak_rows,
            c.exact.peak_rows,
            c.unpruned.peak_rows as f64 / c.exact.peak_rows as f64,
            c.exact.dropped_history,
            c.exact.dropped_exact,
            c.t_unpruned * 1e3,
            c.t_fast * 1e3,
            c.t_exact * 1e3,
            c.t_unpruned / c.t_fast,
            if i + 1 == elims.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Plan templates: instantiate vs. replan.
// ---------------------------------------------------------------------

/// Instantiations per timed batch: one instantiate is microseconds, so a
/// single-call sample would be mostly timer overhead.
const INSTANTIATE_BATCH: usize = 64;

/// One instantiate-vs-replan case (times in seconds, per single plan).
pub struct TemplateCase {
    /// Case label (stable across runs; used as the JSON metric path).
    pub name: &'static str,
    /// Nest depth.
    pub depth: usize,
    /// Planning the template once (symbolic analysis + parametric FM).
    pub template_once: f64,
    /// The concrete path per size: full `parallelize` on the pre-parsed
    /// concrete nest (dependence testing + FM + plan construction).
    pub replan: f64,
    /// The template path per size: `PlanTemplate::instantiate` (affine
    /// bound-row evaluation + structure clones; no FM, no analysis).
    pub instantiate: f64,
}

fn run_template_case(name: &'static str, src: &str, n: i64) -> TemplateCase {
    use pdm_core::template::plan_template;
    use pdm_loopir::parse::parse_loop_symbolic;

    let shape = parse_loop_symbolic(src, &["N"]).expect("symbolic parse");
    let template = plan_template(&shape).expect("template");
    let conc = parse_loop_with(src, &[("N", n)]).expect("concrete parse");

    // Refuse to time a divergent pair: the instantiated plan must agree
    // with fresh planning on structure and on the transformed space.
    let inst = template.instantiate(&[("N", n)]).expect("instantiate");
    let fresh = pdm_core::parallelize(&conc).expect("plan");
    assert_eq!(inst.transform(), fresh.transform(), "{name}: transform");
    assert_eq!(inst.doall_count(), fresh.doall_count(), "{name}: doall");
    assert_eq!(
        inst.partition_count(),
        fresh.partition_count(),
        "{name}: partitions"
    );
    assert_eq!(
        inst.bounds().enumerate().expect("inst space"),
        fresh.bounds().enumerate().expect("fresh space"),
        "{name}: transformed iteration space diverged — refusing to time"
    );

    let template_once = best(FM_REPS, || plan_template(&shape).unwrap().depth());
    let replan = best(RUNTIME_REPS, || {
        pdm_core::parallelize(&conc).unwrap().depth()
    });
    let instantiate = best(RUNTIME_REPS, || {
        let mut d = 0usize;
        for _ in 0..INSTANTIATE_BATCH {
            d = template.instantiate(&[("N", n)]).unwrap().depth();
        }
        d
    }) / INSTANTIATE_BATCH as f64;

    TemplateCase {
        name,
        depth: shape.depth(),
        template_once,
        replan,
        instantiate,
    }
}

/// Symbolic sources of the template cases (`N` is the one parameter).
const PAPER41_SYM: &str = "for i1 = 0..N { for i2 = 0..N {
   A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
 } }";
const PAPER42_SYM: &str = "for i1 = 0..N { for i2 = 0..N {
   A[i1, 3*i2 + 2] = B[i1, i2] + 1;
   B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
 } }";
const STENCIL_SYM: &str = "for i = 1..N { for j = 1..N {
   A[i, j] = A[i - 1, j] + A[i, j - 1];
 } }";
const STENCIL4D_SYM: &str = "for i = 1..N { for j = 1..N { for k = 1..N { for l = 1..N {
   A[i, j, k, l] = A[i - 1, j, k, l] + A[i, j - 1, k, l]
                 + A[i, j, k - 1, l] + A[i, j, k, l - 1];
 } } } }";

/// Measure every template case, printing one summary line per case.
pub fn template_cases() -> Vec<TemplateCase> {
    let cases = vec![
        run_template_case("paper41_n64", PAPER41_SYM, 64),
        run_template_case("paper41_n200", PAPER41_SYM, 200),
        run_template_case("paper42_n200", PAPER42_SYM, 200),
        run_template_case("stencil_n200", STENCIL_SYM, 200),
        run_template_case("stencil4d_n8", STENCIL4D_SYM, 8),
    ];
    for c in &cases {
        println!(
            "{:<14} depth {}  template once {:>8.1}us   replan {:>8.1}us -> instantiate {:>7.2}us ({:6.1}x)",
            c.name,
            c.depth,
            c.template_once * 1e6,
            c.replan * 1e6,
            c.instantiate * 1e6,
            c.replan / c.instantiate,
        );
    }
    cases
}

/// Serialize template cases into the committed `BENCH_template.json`
/// shape. `template_instantiate_speedup` (replan ÷ instantiate, both
/// measured on the same host in the same run) is the gated metric.
/// Planning and instantiation are sequential, so every case records
/// `"threads": 1` — the worker count it actually ran with.
pub fn template_json(cases: &[TemplateCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"plan_template\",\n  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"depth\": {}, \"threads\": 1, \
             \"template_once_ms\": {:.4}, \"replan_ms\": {:.4}, \
             \"instantiate_ms\": {:.5}, \"instantiates_per_s\": {:.0}, \
             \"template_instantiate_speedup\": {:.2}}}{}\n",
            c.name,
            c.depth,
            c.template_once * 1e3,
            c.replan * 1e3,
            c.instantiate * 1e3,
            1.0 / c.instantiate,
            c.replan / c.instantiate,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Imperfect nests: normalized staged execution vs. whole-nest reference.
// ---------------------------------------------------------------------

/// One imperfect-nest case (times in seconds). The headline ratio —
/// fissioned/normalized **compiled staged-parallel** execution vs. the
/// **whole-nest sequential** reference interpreter — is the end-to-end
/// win a user gets from normalization + compilation together, measured
/// on the same host in the same run (`imperfect_speedup`, gated).
pub struct ImperfectCase {
    /// Case label (stable across runs; used as the JSON metric path).
    pub name: &'static str,
    /// Kernels after normalization.
    pub kernels: usize,
    /// Barriers in the staged schedule (DAG stage boundaries).
    pub barriers: usize,
    /// Statement executions of the reference walk.
    pub stmt_execs: u64,
    /// Whole-nest sequential reference (imperfect interpreter).
    pub t_reference: f64,
    /// Fissioned kernels in order, interpreted sequentially.
    pub t_fission_seq: f64,
    /// Staged compiled-parallel execution.
    pub t_compiled_par: f64,
    /// Configured worker threads during the staged-parallel runs.
    pub threads: usize,
    /// Workers the last stage region actually used
    /// ([`rayon::last_region_threads`]).
    pub observed_threads: usize,
}

fn run_imperfect_case(name: &'static str, src: &str) -> ImperfectCase {
    use pdm_loopir::parse::parse_imperfect;
    use pdm_runtime::staged;

    let imp = parse_imperfect(src).expect("imperfect source parses");
    let pp = pdm_core::program::parallelize_program(&imp).expect("program plan");
    // Refuse to time a divergent pipeline.
    let rep = pdm_runtime::equivalence::compare_program(&imp, &pp, 1).expect("execute");
    assert!(
        rep.all_equal(),
        "{name}: executors diverged — refusing to time"
    );

    let mut mem = Memory::for_imperfect(&imp).expect("alloc");
    mem.init_deterministic(1);
    let t_reference = best(RUNTIME_REPS, || {
        staged::run_imperfect_sequential(&imp, &mem).unwrap()
    });
    let t_fission_seq = best(RUNTIME_REPS, || {
        staged::run_program_sequential(&pp, &mem).unwrap()
    });
    let compiled = staged::CompiledProgram::compile(&pp, &mem).expect("compile");
    let t_compiled_par = best(RUNTIME_REPS, || compiled.run_parallel(&mem).unwrap());

    ImperfectCase {
        name,
        kernels: pp.kernel_count(),
        barriers: pp.barrier_count(),
        stmt_execs: rep.reference_stmts,
        t_reference,
        t_fission_seq,
        t_compiled_par,
        threads: rayon::current_num_threads(),
        observed_threads: rayon::last_region_threads(),
    }
}

/// The LU-style nest of `examples/imperfect_lu.rs` at size `n`
/// (statements at three depths; normalization must sink).
pub fn imperfect_lu_src(n: i64) -> String {
    format!(
        "for k = 0..={kmax} {{
           A[k, k] = A[k, k] + 1;
           for i = k + 1..={imax} {{
             A[i, k] = A[i, k] * A[k, k];
             for j = k + 1..={imax} {{
               A[i, j] = A[i, j] - A[i, k] * A[k, j];
             }}
           }}
         }}",
        kmax = n - 2,
        imax = n - 1,
    )
}

/// A row-recurrence with an initialization prologue: normalization
/// fissions it into an init kernel plus a row kernel whose outer loop is
/// doall — the shape where staged parallelism pays.
pub fn imperfect_rowinit_src(n: i64) -> String {
    format!(
        "for i = 0..={n} {{
           B[i, 0] = i;
           for j = 1..={n} {{ A[i, j] = A[i, j - 1] + B[i, 0]; }}
         }}"
    )
}

/// Measure every imperfect case, printing one summary line per case.
pub fn imperfect_cases() -> Vec<ImperfectCase> {
    let lu = imperfect_lu_src(72);
    let rowinit = imperfect_rowinit_src(480);
    let cases = vec![
        run_imperfect_case("lu_n72", &lu),
        run_imperfect_case("rowinit_n480", &rowinit),
    ];
    for c in &cases {
        println!(
            "{:<14} kernels {} barriers {}  ref {:>9.0} stmts/s  fission-seq {:>9.0}  compiled-par {:>9.0} ({:4.1}x)",
            c.name,
            c.kernels,
            c.barriers,
            c.stmt_execs as f64 / c.t_reference,
            c.stmt_execs as f64 / c.t_fission_seq,
            c.stmt_execs as f64 / c.t_compiled_par,
            c.t_reference / c.t_compiled_par,
        );
    }
    cases
}

/// Serialize imperfect cases into the committed `BENCH_imperfect.json`
/// shape. `imperfect_speedup` (reference ÷ compiled staged-parallel,
/// same host, same run) is the gated metric. Every case records the
/// worker-thread count its staged runs actually used.
pub fn imperfect_json(cases: &[ImperfectCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"imperfect_nests\",\n");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push_str(&format!(
        "  \"machine_threads\": {threads},\n  \"cases\": [\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"kernels\": {}, \"barriers\": {}, \
             \"threads\": {}, \"observed_threads\": {}, \
             \"stmt_execs\": {}, \
             \"reference_stmts_per_s\": {:.0}, \"fission_seq_stmts_per_s\": {:.0}, \
             \"compiled_par_stmts_per_s\": {:.0}, \
             \"imperfect_speedup\": {:.3}}}{}\n",
            c.name,
            c.kernels,
            c.barriers,
            c.threads,
            c.observed_threads,
            c.stmt_execs,
            c.stmt_execs as f64 / c.t_reference,
            c.stmt_execs as f64 / c.t_fission_seq,
            c.stmt_execs as f64 / c.t_compiled_par,
            c.t_reference / c.t_compiled_par,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Thread scaling: work-stealing vs. contiguous splitting.
// ---------------------------------------------------------------------

/// Best-of repetitions for the scaling ladder.
pub const SCALING_REPS: usize = 5;

/// One pool width of a scaling ladder (times in seconds).
pub struct ScalingPoint {
    /// Configured pool width.
    pub threads: usize,
    /// Workers the compiled region actually used.
    pub observed_compiled: usize,
    /// Cross-deque steals in the last compiled region
    /// ([`rayon::last_region_steals`]).
    pub steals_compiled: usize,
    /// Compiled parallel execution at this width.
    pub t_compiled: f64,
}

/// One workload of the thread-scaling bench: the same nest executed on
/// a 1 → `max_threads` pool ladder (default steal-aware schedule), plus
/// a stealing-vs-contiguous duel at the widest pool.
pub struct ScalingCase {
    /// Case label (stable across runs; used as the JSON metric path).
    pub name: &'static str,
    /// Whether the group space is [`cost_skewed`] (names the duel ratio).
    pub skewed: bool,
    /// Iterations per full execution.
    pub iterations: u64,
    /// The ladder, one point per pool width.
    pub points: Vec<ScalingPoint>,
    /// Widest pool measured (the duel runs at this width).
    pub max_threads: usize,
    /// Compiled at `max_threads` with one coarse range per worker
    /// (`chunks_per_thread = 1`) — the contiguous baseline that starves
    /// stealing: each worker owns exactly one chunk.
    pub t_contiguous: f64,
    /// Compiled at `max_threads` with the default steal-aware schedule.
    pub t_stealing: f64,
    /// Steals observed in the last contiguous-schedule region.
    pub steals_contiguous: usize,
    /// Steals observed in the last steal-aware region.
    pub steals_stealing: usize,
}

/// Balanced rectangular row recurrence: every outer (doall) row costs
/// the same, so coarse contiguous chunks are already load-balanced.
pub fn scaling_balanced(n: i64) -> LoopNest {
    parse_loop_with(
        "for i = 0..N { for j = 1..N { A[i, j] = A[i, j - 1] + 1; } }",
        &[("N", n)],
    )
    .expect("balanced scaling nest parses")
}

/// Skewed triangular row recurrence: row `i` costs `O(i)`, so a
/// contiguous row split hands the last worker most of the work — the
/// shape where steal-aware chunking pays.
pub fn scaling_skewed(n: i64) -> LoopNest {
    parse_loop_with(
        "for i = 0..=N { for j = 1..=i { A[i, j] = A[i, j - 1] + 1; } }",
        &[("N", n)],
    )
    .expect("skewed scaling nest parses")
}

/// The pool ladder: serial, minimal parallelism, and `max(4, machine)`.
fn scaling_ladder() -> Vec<usize> {
    let machine = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut ladder = vec![1, 2, machine.max(4)];
    ladder.dedup();
    ladder
}

fn run_scaling_case(name: &'static str, nest: &LoopNest, expect_skewed: bool) -> ScalingCase {
    let plan = pdm_core::parallelize(nest).expect("plan");
    let z = plan.doall_count();
    assert_eq!(
        cost_skewed(plan.bounds(), z),
        expect_skewed,
        "{name}: workload skew does not match the case design"
    );
    let rep = compare(nest, &plan, 1).expect("execute");
    assert!(rep.equal, "{name}: executors diverged — refusing to time");
    let iterations = rep.iterations;

    let mut m = Memory::for_nest(nest).expect("alloc");
    m.init_deterministic(1);
    let cplan = CompiledPlan::compile(nest, &plan, &m).expect("compile plan");

    let mut points = Vec::new();
    for threads in scaling_ladder() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let t_compiled = best(SCALING_REPS, || {
            pool.install(|| cplan.run_parallel(&m).unwrap())
        });
        // `install` runs inline, so the region gauge of the last rep is
        // still on this thread.
        let observed_compiled = rayon::last_region_threads();
        let steals_compiled = rayon::last_region_steals();
        points.push(ScalingPoint {
            threads,
            observed_compiled,
            steals_compiled,
            t_compiled,
        });
    }

    // The duel: same compiled engine, same (widest) pool — only the
    // range split differs. One coarse chunk per worker leaves thieves
    // nothing to take; the steal-aware default splits skewed spaces
    // finer so idle workers relieve whoever drew the fat end.
    let max_threads = *scaling_ladder().last().expect("ladder");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(max_threads)
        .build()
        .expect("pool");
    let contiguous = Schedule {
        chunks_per_thread: 1,
        steal_chunks_per_thread: 1,
    };
    let t_contiguous = best(SCALING_REPS, || {
        pool.install(|| cplan.run_parallel_scheduled(&m, contiguous).unwrap())
    });
    let steals_contiguous = rayon::last_region_steals();
    let t_stealing = best(SCALING_REPS, || {
        pool.install(|| {
            cplan
                .run_parallel_scheduled(&m, Schedule::default())
                .unwrap()
        })
    });
    let steals_stealing = rayon::last_region_steals();

    ScalingCase {
        name,
        skewed: expect_skewed,
        iterations,
        points,
        max_threads,
        t_contiguous,
        t_stealing,
        steals_contiguous,
        steals_stealing,
    }
}

/// Measure every scaling case, printing one summary line per point.
pub fn scaling_cases() -> Vec<ScalingCase> {
    let balanced = scaling_balanced(400);
    let skewed = scaling_skewed(560);
    let cases = vec![
        run_scaling_case("balanced_n400", &balanced, false),
        run_scaling_case("skewed_n560", &skewed, true),
    ];
    for c in &cases {
        for p in &c.points {
            println!(
                "{:<14} t={:<2} (observed {}, {} steals)  compiled {:>11.0} iters/s",
                c.name,
                p.threads,
                p.observed_compiled,
                p.steals_compiled,
                c.iterations as f64 / p.t_compiled,
            );
        }
        println!(
            "{:<14} duel@t={}: contiguous {:>11.0} -> stealing {:>11.0} iters/s ({:4.2}x, {} -> {} steals)",
            c.name,
            c.max_threads,
            c.iterations as f64 / c.t_contiguous,
            c.iterations as f64 / c.t_stealing,
            c.t_contiguous / c.t_stealing,
            c.steals_contiguous,
            c.steals_stealing,
        );
    }
    cases
}

/// Serialize scaling cases into the committed `BENCH_scaling.json`
/// shape: one entry per (case, pool width) with configured and observed
/// thread counts, plus one summary entry per case carrying the
/// stealing-vs-contiguous ratio (`skewed_scaling_time_ratio` /
/// `balanced_scaling_time_ratio`). The ratios are reported, not gated:
/// on a host with fewer cores than the widest pool both legs serialize
/// and the ratio is scheduler noise around 1.
pub fn scaling_json(cases: &[ScalingCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"thread_scaling\",\n");
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push_str(&format!(
        "  \"machine_threads\": {machine},\n  \"cases\": [\n"
    ));
    for (ci, c) in cases.iter().enumerate() {
        for p in &c.points {
            out.push_str(&format!(
                "    {{\"name\": \"{}_t{}\", \"threads\": {}, \
                 \"observed_compiled_threads\": {}, \"observed_compiled_steals\": {}, \
                 \"compiled_iters_per_s\": {:.0}}},\n",
                c.name,
                p.threads,
                p.threads,
                p.observed_compiled,
                p.steals_compiled,
                c.iterations as f64 / p.t_compiled,
            ));
        }
        let ratio_key = if c.skewed {
            "skewed_scaling_time_ratio"
        } else {
            "balanced_scaling_time_ratio"
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iterations\": {}, \"cost_skewed\": {}, \
             \"threads\": {}, \
             \"contiguous_steals\": {}, \"stealing_steals\": {}, \
             \"contiguous_iters_per_s\": {:.0}, \"stealing_iters_per_s\": {:.0}, \
             \"{ratio_key}\": {:.3}}}{}\n",
            c.name,
            c.iterations,
            if c.skewed { 1 } else { 0 },
            c.max_threads,
            c.steals_contiguous,
            c.steals_stealing,
            c.iterations as f64 / c.t_contiguous,
            c.iterations as f64 / c.t_stealing,
            c.t_contiguous / c.t_stealing,
            if ci + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Plan-serving service: zipf request storm over the wire.
// ---------------------------------------------------------------------

/// Distinct nest shapes in the service storm (one template each).
pub const SERVICE_SHAPES: usize = 64;
/// Concurrent client connections in the storm.
pub const SERVICE_CLIENTS: usize = 4;
/// Requests per client (seeding plans + zipf-mixed follow-ups).
pub const SERVICE_REQUESTS_PER_CLIENT: usize = 1000;
/// Zipf exponent of the shape popularity distribution.
const SERVICE_ZIPF_S: f64 = 1.1;

/// One plan-serving storm (times in seconds; counters from the server's
/// shared cache).
pub struct ServiceCase {
    /// Case label (stable across runs; used as the JSON metric path).
    pub name: &'static str,
    /// Concurrent client connections.
    pub clients: usize,
    /// Distinct shapes requested.
    pub shapes: usize,
    /// Pool workers serving (acceptor + handlers).
    pub workers: usize,
    /// Total wire requests issued.
    pub requests: u64,
    /// Requests answered `"ok": false`.
    pub errors: u64,
    /// Wall time of the whole storm (connect → last response).
    pub elapsed: f64,
    /// Cache hits across the storm.
    pub hits: u64,
    /// Planning runs (must equal `shapes`: single-flight dedup).
    pub planned: u64,
    /// Requests that waited on another connection's in-flight plan.
    pub waited: u64,
    /// Warm template acquisition through the session cache, per call.
    pub t_acquire: f64,
    /// Fresh symbolic planning of the same shape, per call.
    pub t_replan: f64,
}

/// The `idx`-th storm shape: a 1-D recurrence whose constant dependence
/// distance (`idx + 2`) varies the structural hash — 64 sources, 64
/// distinct templates, all cheap to plan and to run.
pub fn service_shape_source(idx: usize) -> String {
    format!("for i = 1..=N {{ A[i + {d}] = A[i] + 1; }}", d = idx + 2)
}

/// Deterministic zipf sampler over `0..n` (popularity rank order):
/// inverse-CDF over precomputed weights, driven by splitmix64 draws.
struct Zipf {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl Zipf {
    fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        Zipf {
            cdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn draw(&mut self) -> usize {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let target = u * self.cdf.last().copied().unwrap_or(1.0);
        self.cdf.iter().position(|&c| c >= target).unwrap_or(0)
    }
}

/// One storm client: seed every shape with a `plan` request (exercising
/// single-flight dedup — all clients race on all shapes), then issue
/// zipf-mixed `instantiate` / `plan` / `run` requests by hash. Returns
/// `(requests, errors)`.
fn service_client(
    addr: std::net::SocketAddr,
    seed: u64,
    total: usize,
) -> Result<(u64, u64), pdm_service::PdmError> {
    use pdm_service::ServiceClient;

    let mut client = ServiceClient::connect(addr)?;
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut hashes = vec![String::new(); SERVICE_SHAPES];
    let mut call = |client: &mut ServiceClient, req: &str| {
        let resp = client.call(req)?;
        requests += 1;
        if resp.get("ok") != Some(&pdm_service::json::Json::Bool(true)) {
            errors += 1;
        }
        Ok::<_, pdm_service::PdmError>(resp)
    };

    for (idx, hash) in hashes.iter_mut().enumerate() {
        let src = service_shape_source(idx);
        let resp = call(
            &mut client,
            &format!(r#"{{"op":"plan","source":{},"params":["N"]}}"#, quote(&src)),
        )?;
        *hash = resp.get_str("shape_hash").unwrap_or_default().to_string();
    }

    let mut zipf = Zipf::new(SERVICE_SHAPES, SERVICE_ZIPF_S, seed);
    for r in 0..total.saturating_sub(SERVICE_SHAPES) {
        let idx = zipf.draw();
        let hash = &hashes[idx];
        let req = match r % 10 {
            // Mostly instantiations — the serving fast path.
            0..=5 => format!(r#"{{"op":"instantiate","shape_hash":"{hash}","values":{{"N":64}}}}"#),
            // Re-plans by source: the cache answers, nothing re-plans.
            6..=8 => {
                let src = service_shape_source(idx);
                format!(r#"{{"op":"plan","source":{},"params":["N"]}}"#, quote(&src))
            }
            // Occasional full runs (instantiate + execute).
            _ => format!(r#"{{"op":"run","shape_hash":"{hash}","values":{{"N":24}},"seed":1}}"#),
        };
        call(&mut client, &req)?;
    }
    Ok((requests, errors))
}

fn quote(s: &str) -> String {
    pdm_service::json::render(&pdm_service::json::Json::Str(s.to_string()))
}

/// Run the zipf storm against a freshly bound server and measure
/// acquisition-vs-replan on the same session afterwards.
pub fn service_cases() -> Vec<ServiceCase> {
    use pdm_core::template::plan_template;
    use pdm_loopir::parse::parse_loop_symbolic;
    use pdm_service::{PlanServer, Session};
    use std::sync::Arc;

    let workers = SERVICE_CLIENTS + 2;
    let session = Arc::new(
        Session::builder()
            .cache_capacity(8, 16) // 128 slots ≥ 64 shapes: no evictions
            .threads(1)
            .build(),
    );
    let server =
        PlanServer::bind("127.0.0.1:0", Arc::clone(&session), workers).expect("bind service");
    let addr = server.local_addr().expect("local addr");
    let serve = std::thread::spawn(move || server.serve().expect("serve"));

    let t0 = std::time::Instant::now();
    let clients: Vec<_> = (0..SERVICE_CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                service_client(addr, 0x5eed + c as u64, SERVICE_REQUESTS_PER_CLIENT)
            })
        })
        .collect();
    let mut requests = 0u64;
    let mut errors = 0u64;
    for c in clients {
        let (r, e) = c.join().expect("client thread").expect("client io");
        requests += r;
        errors += e;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let stats = session.cache_stats();
    pdm_service::ServiceClient::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    serve.join().expect("server thread");

    // The serving win, in-process: warm cache acquisition vs. planning
    // the same shape from scratch, both on this host in this run. Both
    // legs are batched so single-call timer jitter cannot move the
    // gated ratio.
    let shape = parse_loop_symbolic(&service_shape_source(0), &["N"]).expect("parse");
    let t_replan = best(RUNTIME_REPS, || {
        let mut d = 0usize;
        for _ in 0..INSTANTIATE_BATCH {
            d = plan_template(&shape).unwrap().depth();
        }
        d
    }) / INSTANTIATE_BATCH as f64;
    let t_acquire = best(RUNTIME_REPS, || {
        let mut d = 0usize;
        for _ in 0..INSTANTIATE_BATCH {
            d = session.plan(&shape).unwrap().depth();
        }
        d
    }) / INSTANTIATE_BATCH as f64;

    let cases = vec![ServiceCase {
        name: "zipf64_c4",
        clients: SERVICE_CLIENTS,
        shapes: SERVICE_SHAPES,
        workers,
        requests,
        errors,
        elapsed,
        hits: stats.hits,
        planned: stats.planned,
        waited: stats.waited,
        t_acquire,
        t_replan,
    }];
    for c in &cases {
        println!(
            "{:<14} {} clients x {} reqs in {:.2}s = {:>7.0} req/s   planned {} hits {} waited {} errors {}   acquire {:.2}us vs replan {:.1}us ({:.0}x)",
            c.name,
            c.clients,
            c.requests / c.clients as u64,
            c.elapsed,
            c.requests as f64 / c.elapsed,
            c.planned,
            c.hits,
            c.waited,
            c.errors,
            c.t_acquire * 1e6,
            c.t_replan * 1e6,
            c.t_replan / c.t_acquire,
        );
    }
    cases
}

/// Serialize service cases into the committed `BENCH_service.json`
/// shape. Gated: `replan_reduction` (requests per planning run — fully
/// deterministic: fixed zipf seeds, single-flight guarantees one plan
/// per shape) and `service_vs_replan_speedup` (warm acquisition vs.
/// fresh planning, both timed on the same host in the same run).
/// `service_throughput_per_s` is absolute and gated only under
/// `BENCH_CHECK_STRICT=1`.
pub fn service_json(cases: &[ServiceCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"plan_service\",\n");
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push_str(&format!(
        "  \"machine_threads\": {machine},\n  \"cases\": [\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"clients\": {}, \"shapes\": {}, \"threads\": {}, \
             \"requests\": {}, \"errors\": {}, \
             \"service_throughput_per_s\": {:.0}, \
             \"cache_hits\": {}, \"cache_planned\": {}, \"cache_waited\": {}, \
             \"hit_rate\": {:.4}, \"replan_reduction\": {:.2}, \
             \"acquire_us\": {:.3}, \"replan_us\": {:.1}, \
             \"service_vs_replan_speedup\": {:.1}}}{}\n",
            c.name,
            c.clients,
            c.shapes,
            c.workers,
            c.requests,
            c.errors,
            c.requests as f64 / c.elapsed,
            c.hits,
            c.planned,
            c.waited,
            c.hits as f64 / (c.hits + c.planned + c.waited).max(1) as f64,
            c.requests as f64 / c.planned.max(1) as f64,
            c.t_acquire * 1e6,
            c.t_replan * 1e6,
            c.t_replan / c.t_acquire,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Fault-hardening: storms with probes disarmed, armed-at-zero, firing.
// ---------------------------------------------------------------------

/// Requests per client in the hardening storms (three storms run back
/// to back, so each is smaller than the main service storm).
pub const FAULT_REQUESTS_PER_CLIENT: usize = 300;

/// Every probe armed at probability zero: the full bookkeeping cost of
/// the fault layer with no fault ever firing — the fault-free overhead
/// the `service_hardened_overhead` gate bounds.
pub const ARMED_ZERO_SPEC: &str =
    "plan.leader:0,server.handler:0,wire.torn:0,wire.delay:0,net.drop:0";

/// Probabilistic probes for the resilience leg: enough failures to
/// prove recovery, capped so the storm terminates briskly.
pub const FAULT_STORM_SPEC: &str = "server.handler:0.02:40,wire.torn:0.01:20,net.drop:0.01:20";

/// One fault-hardening measurement: two clean storms (probes disarmed
/// vs. armed-at-zero) for the overhead ratio, plus a faulting storm
/// that must complete with the server still serving.
pub struct FaultsCase {
    /// Case label (stable; the JSON metric path).
    pub name: &'static str,
    /// Clean-storm throughput with no probes compiled-in armed.
    pub baseline_per_s: f64,
    /// Clean-storm throughput with every probe armed at probability 0.
    pub armed_per_s: f64,
    /// Requests in the faulting storm.
    pub fault_requests: u64,
    /// In-band error responses in the faulting storm.
    pub fault_errors: u64,
    /// Client reconnects forced by dropped/torn connections.
    pub fault_reconnects: u64,
    /// Handler panics caught by the region sink.
    pub fault_panics: u64,
    /// Faulting-storm throughput (context only; retries inflate time).
    pub fault_per_s: f64,
}

impl FaultsCase {
    /// Armed-at-zero throughput over disarmed throughput — `1.0` means
    /// the hardening layer is free when faults are off; the snapshot
    /// gate keeps this from silently decaying.
    pub fn hardened_overhead(&self) -> f64 {
        self.armed_per_s / self.baseline_per_s
    }
}

/// One clean storm against a dedicated server; returns requests/sec.
fn clean_storm(faults: pdm_service::Faults) -> f64 {
    use pdm_service::{PlanServer, Session};
    use std::sync::Arc;

    let session = Arc::new(
        Session::builder()
            .cache_capacity(8, 16)
            .threads(1)
            .faults(faults)
            .build(),
    );
    let server = PlanServer::bind("127.0.0.1:0", Arc::clone(&session), SERVICE_CLIENTS + 2)
        .expect("bind faults bench");
    let addr = server.local_addr().expect("local addr");
    let serve = std::thread::spawn(move || server.serve().expect("serve"));

    let t0 = std::time::Instant::now();
    let clients: Vec<_> = (0..SERVICE_CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                service_client(addr, 0xfa17 + c as u64, FAULT_REQUESTS_PER_CLIENT)
            })
        })
        .collect();
    let mut requests = 0u64;
    for c in clients {
        let (r, e) = c.join().expect("client thread").expect("client io");
        assert_eq!(e, 0, "clean storm produced error responses");
        requests += r;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    pdm_service::ServiceClient::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    serve.join().expect("server thread");
    requests as f64 / elapsed
}

/// A storm client that expects the server to misbehave: on any
/// transport failure it reconnects and retries the same request
/// (bounded), counting reconnects. Returns `(requests, errors,
/// reconnects)`.
fn service_client_resilient(
    addr: std::net::SocketAddr,
    seed: u64,
    total: usize,
) -> (u64, u64, u64) {
    use pdm_service::ServiceClient;
    use std::time::Duration;

    let connect = || {
        ServiceClient::builder()
            .read_timeout(Duration::from_secs(30))
            .connect(addr)
            .expect("connect resilient client")
    };
    let mut client = connect();
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut reconnects = 0u64;
    let mut zipf = Zipf::new(SERVICE_SHAPES, SERVICE_ZIPF_S, seed);
    for r in 0..total {
        let idx = zipf.draw();
        let src = service_shape_source(idx);
        let req = if r % 4 == 0 {
            format!(
                r#"{{"op":"run","source":{},"params":["N"],"values":{{"N":24}},"seed":1,"deadline_ms":30000}}"#,
                quote(&src)
            )
        } else {
            format!(r#"{{"op":"plan","source":{},"params":["N"]}}"#, quote(&src))
        };
        requests += 1;
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts <= 50, "request retried 50 times — server wedged");
            match client.call(&req) {
                Ok(body) => {
                    if body.get("ok") != Some(&pdm_service::json::Json::Bool(true)) {
                        errors += 1;
                    }
                    break;
                }
                Err(_) => {
                    reconnects += 1;
                    client = connect();
                }
            }
        }
    }
    (requests, errors, reconnects)
}

/// Measure the fault-hardening layer: overhead ratio from two clean
/// storms, then a probabilistic faulting storm that must complete.
pub fn faults_cases() -> Vec<FaultsCase> {
    use pdm_service::{Faults, PlanServer, Session};
    use std::sync::Arc;

    println!("faults: clean storm, probes disarmed...");
    let baseline_per_s = clean_storm(Faults::disabled());
    println!("faults: clean storm, probes armed at probability 0...");
    let armed_per_s = clean_storm(Faults::parse(ARMED_ZERO_SPEC, 1).expect("armed-zero spec"));

    println!("faults: probabilistic faulting storm ({FAULT_STORM_SPEC})...");
    let session = Arc::new(
        Session::builder()
            .cache_capacity(8, 16)
            .threads(1)
            .faults(Faults::parse(FAULT_STORM_SPEC, 1).expect("fault spec"))
            .build(),
    );
    let server = PlanServer::bind("127.0.0.1:0", Arc::clone(&session), SERVICE_CLIENTS + 2)
        .expect("bind faulting storm");
    let addr = server.local_addr().expect("local addr");
    let serve = std::thread::spawn(move || server.serve().expect("serve"));

    let t0 = std::time::Instant::now();
    let clients: Vec<_> = (0..SERVICE_CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                service_client_resilient(addr, 0xbad + c as u64, FAULT_REQUESTS_PER_CLIENT)
            })
        })
        .collect();
    let mut fault_requests = 0u64;
    let mut fault_errors = 0u64;
    let mut fault_reconnects = 0u64;
    for c in clients {
        let (r, e, rc) = c.join().expect("resilient client thread");
        fault_requests += r;
        fault_errors += e;
        fault_reconnects += rc;
    }
    let fault_elapsed = t0.elapsed().as_secs_f64();
    let fault_panics = session
        .metrics()
        .panics
        .load(std::sync::atomic::Ordering::Relaxed);
    pdm_service::ServiceClient::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    serve.join().expect("server thread");

    let cases = vec![FaultsCase {
        name: "hardening_c4",
        baseline_per_s,
        armed_per_s,
        fault_requests,
        fault_errors,
        fault_reconnects,
        fault_panics,
        fault_per_s: fault_requests as f64 / fault_elapsed,
    }];
    for c in &cases {
        println!(
            "{:<14} baseline {:>7.0} req/s, armed-at-0 {:>7.0} req/s (overhead ratio {:.3})   \
             faulting: {} reqs, {} errors, {} reconnects, {} panics, {:>6.0} req/s",
            c.name,
            c.baseline_per_s,
            c.armed_per_s,
            c.hardened_overhead(),
            c.fault_requests,
            c.fault_errors,
            c.fault_reconnects,
            c.fault_panics,
            c.fault_per_s,
        );
    }
    cases
}

/// Serialize fault-hardening cases into the committed
/// `BENCH_faults.json` shape. Gated: `service_hardened_overhead` (the
/// armed-at-zero / disarmed throughput ratio, both storms on the same
/// host in the same run — the fault layer must stay free when faults
/// are off). The gated ratio is clamped to 1.0: a lucky armed leg can
/// measure *faster* than the baseline, and committing that noise would
/// silently tighten the gate below its design floor. The
/// faulting-storm counters are context: fire counts are seeded but
/// arrival interleaving is scheduler-dependent.
pub fn faults_json(cases: &[FaultsCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"service_faults\",\n");
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push_str(&format!(
        "  \"machine_threads\": {machine},\n  \"cases\": [\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_per_s\": {:.0}, \"armed_per_s\": {:.0}, \
             \"service_hardened_overhead\": {:.4}, \
             \"fault_requests\": {}, \"fault_errors\": {}, \"fault_reconnects\": {}, \
             \"fault_panics\": {}, \"fault_per_s\": {:.0}}}{}\n",
            c.name,
            c.baseline_per_s,
            c.armed_per_s,
            c.hardened_overhead().min(1.0),
            c.fault_requests,
            c.fault_errors,
            c.fault_reconnects,
            c.fault_panics,
            c.fault_per_s,
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Inspector/executor speculation: audit cost vs. replan, and the
// executor each verdict picks.
// ---------------------------------------------------------------------

/// Parametric paper41: every first subscript coordinate shifted by the
/// named parameter `K`, so the concrete dependence structure at any
/// valuation is exactly paper41's — the hull plan certifies for every
/// `K` and the speculative executor is the plain parallel one.
pub const INSPECTOR_CERTIFIED_SRC: &str = "for i1 = 0..=199 { for i2 = 0..=199 {
   A[5*i1 + i2 + K, 7*i1 + 2*i2] = A[i1 + i2 + 4 + K, i1 + 2*i2 + 6] + 1;
 } }";

/// Uniform row shift: at `K = 1` each iteration writes the next row, so
/// the hull plan's single-iteration groups chain into row stages — the
/// audit demotes to the refined (staged) executor. The read-only `B`,
/// `C` and `D` operands contribute no conflicts (the chain is `A`'s
/// alone) but give the body realistic subscript arithmetic for the
/// audit to evaluate and the compiled stage driver to strength-reduce.
pub const INSPECTOR_REFINED_SRC: &str = "for i1 = 0..=149 { for i2 = 0..=149 {
   A[i1 + K, i2] = A[i1, i2] + B[2*i1 + i2, i1] + C[i1 + 2*i2, i2] + D[i1 + i2, 2*i1] + 1;
 } }";

/// Parity-mixing shift: at `K = 1` the write walks one hull partition
/// while the read trails the other, interleaved, so no stage order over
/// the groups exists — the audit demotes all the way to sequential.
pub const INSPECTOR_REJECTED_SRC: &str = "for i = 0..=9999 { A[i + K] = A[i - 2] + 1; }";

/// Runs per steady-state batch when timing the verdict-cached session
/// path against the uninspected one.
pub const INSPECTOR_BATCH: usize = 16;

/// Steady-state session throughput with the inspector on the path
/// (verdict served from the [`pdm_runtime::sharded::VerdictCache`])
/// versus the same concrete nest with no inspection at all.
pub struct InspectorSteadyState {
    /// Session runs per timed batch.
    pub batch: usize,
    /// Seconds per batch through the parametric (inspected) template.
    pub t_inspected: f64,
    /// Seconds per batch through the concrete (uninspected) nest.
    pub t_uninspected: f64,
}

impl InspectorSteadyState {
    /// Inspected over uninspected throughput, clamped to 1.0 for the
    /// same reason as [`FaultsCase::hardened_overhead`]'s snapshot: a
    /// lucky inspected leg must not tighten the committed gate.
    pub fn audit_overhead(&self) -> f64 {
        (self.t_uninspected / self.t_inspected).min(1.0)
    }
}

/// One inspector case: a parametric nest planned on its hull, audited
/// at a concrete valuation, and executed by whatever the verdict picks.
pub struct InspectorCase {
    /// Case label (stable; the JSON metric path).
    pub name: &'static str,
    /// The audit verdict at this case's valuation.
    pub verdict: &'static str,
    /// Iterations per full execution.
    pub iterations: u64,
    /// One audit of the concrete access lattice, seconds.
    pub audit: f64,
    /// Planning the concrete nest from scratch (the no-inspector
    /// alternative: replan per valuation), seconds.
    pub replan: f64,
    /// Forced-sequential execution, seconds.
    pub t_seq: f64,
    /// Execution under the verdict-picked executor, seconds.
    pub t_verdict: f64,
    /// Rayon threads available to the parallel executors.
    pub threads: usize,
    /// Steady-state session comparison (certified case only).
    pub steady: Option<InspectorSteadyState>,
}

impl InspectorCase {
    /// Forced-sequential (interpreted reference) time over
    /// verdict-executor time — the win the speculation exists to
    /// deliver when the audit certifies. Without certification a
    /// parametric nest must assume the worst and take the sequential
    /// fallback; a certified audit unlocks the compiled parallel
    /// engine.
    pub fn certified_speedup(&self) -> f64 {
        self.t_seq / self.t_verdict
    }
}

fn run_inspector_case(
    name: &'static str,
    expected: &'static str,
    src: &str,
    k: i64,
    steady: bool,
) -> InspectorCase {
    use pdm_core::template::plan_template;
    use pdm_loopir::parse::parse_loop_symbolic;
    use pdm_runtime::inspector::{audit, run_with_verdict};

    let shape = parse_loop_symbolic(src, &["K"]).expect("parse inspector shape");
    let template = plan_template(&shape).expect("hull plan");
    assert!(template.requires_inspection(), "{name}: not parametric");
    let vals = [("K", k)];
    let plan = template.instantiate(&vals).expect("instantiate plan");
    let nest = template.instantiate_nest(&vals).expect("instantiate nest");

    let verdict = audit(&nest, &plan).expect("audit");
    assert_eq!(
        verdict.kind(),
        expected,
        "{name}: the workload no longer produces its designed verdict"
    );

    let audit_t = best(FM_REPS, || audit(&nest, &plan).unwrap());
    let replan_t = best(FM_REPS, || pdm_core::parallelize(&nest).unwrap());

    let mut mem = Memory::for_nest(&nest).expect("alloc");
    mem.init_deterministic(1);
    let iterations = run_with_verdict(&nest, &plan, &mem, &verdict).expect("verdict run");
    let t_seq = best(RUNTIME_REPS, || {
        pdm_runtime::run_sequential(&nest, &mem).unwrap()
    });
    // Time the executor the *session* dispatches on this verdict, with
    // compilation outside the timer: a certified audit unlocks the
    // compiled parallel engine, a refined one the compiled stage
    // driver, a rejected one the sequential reference (exactly the
    // forced-sequential baseline).
    let sched = pdm_runtime::RuntimeConfig::global().schedule();
    let cplan = CompiledPlan::compile(&nest, &plan, &mem).expect("compile plan");
    let t_verdict = best(RUNTIME_REPS, || match &verdict {
        pdm_runtime::Verdict::Certified => cplan.run_parallel_scheduled(&mem, sched).unwrap(),
        pdm_runtime::Verdict::Refined { stages } => {
            pdm_runtime::run_refined_compiled(&cplan, &mem, stages, sched).unwrap()
        }
        pdm_runtime::Verdict::Rejected { .. } => pdm_runtime::run_sequential(&nest, &mem).unwrap(),
    });

    let steady = steady.then(|| {
        use pdm_service::Session;
        let session = Session::builder().cache_capacity(2, 4).threads(1).build();
        // Warm both paths: plan caches filled, the one audit taken.
        session.run(&shape, &vals, 1).expect("inspected warm-up");
        session.run(&nest, &[], 1).expect("uninspected warm-up");
        let t_inspected = best(RUNTIME_REPS, || {
            for _ in 0..INSPECTOR_BATCH {
                session.run(&shape, &vals, 1).unwrap();
            }
        });
        let t_uninspected = best(RUNTIME_REPS, || {
            for _ in 0..INSPECTOR_BATCH {
                session.run(&nest, &[], 1).unwrap();
            }
        });
        InspectorSteadyState {
            batch: INSPECTOR_BATCH,
            t_inspected,
            t_uninspected,
        }
    });

    InspectorCase {
        name,
        verdict: verdict.kind(),
        iterations,
        audit: audit_t,
        replan: replan_t,
        t_seq,
        t_verdict,
        threads: rayon::current_num_threads(),
        steady,
    }
}

/// In-interval valuation storm: the first audit of a shifted-chain
/// template certifies a stability interval, and every subsequent
/// valuation inside it is answered from the interval tier of the
/// verdict cache without auditing.
pub struct IntervalStorm {
    /// Session runs dispatched.
    pub requests: u64,
    /// Audits actually performed (session audit-histogram count).
    pub audits: u64,
    /// Verdicts served from the interval tier.
    pub interval_hits: u64,
}

impl IntervalStorm {
    /// Fraction of requests whose audit was skipped:
    /// `(requests − audits) / requests`. Count-derived and
    /// deterministic, so it gates with the tight count tolerance.
    pub fn interval_skip_ratio(&self) -> f64 {
        (self.requests - self.audits) as f64 / self.requests as f64
    }
}

/// Drive 32 distinct valuations of the shifted dependence chain, all
/// inside one certified stability interval (`K ∈ [20, ∞)` keeps the
/// write range disjoint from the read range), through a fresh session.
/// Exactly the first request should audit.
pub fn inspector_storm() -> IntervalStorm {
    use pdm_loopir::parse::parse_loop_symbolic;
    use pdm_service::Session;
    use std::sync::atomic::Ordering;

    let shape = parse_loop_symbolic("for i = 0..=19 { A[i + K] = A[i] + 1; }", &["K"])
        .expect("parse storm shape");
    let session = Session::builder().threads(1).build();
    let mut requests = 0u64;
    for k in 40..72i64 {
        session.run(&shape, &[("K", k)], 1).expect("storm run");
        requests += 1;
    }
    let storm = IntervalStorm {
        requests,
        audits: session.metrics().inspector_audit.count(),
        interval_hits: session
            .metrics()
            .inspector_interval_hits
            .load(Ordering::Relaxed),
    };
    println!(
        "interval_storm      {:>3} requests   {} audit(s), {} interval hits (skip ratio {:.4})",
        storm.requests,
        storm.audits,
        storm.interval_hits,
        storm.interval_skip_ratio(),
    );
    storm
}

/// Measure the three verdict-shaped workloads, printing one summary
/// line per case.
pub fn inspector_cases() -> Vec<InspectorCase> {
    let cases = vec![
        run_inspector_case(
            "certified_paper41",
            "certified",
            INSPECTOR_CERTIFIED_SRC,
            3,
            true,
        ),
        run_inspector_case(
            "refined_rowshift",
            "refined",
            INSPECTOR_REFINED_SRC,
            1,
            false,
        ),
        run_inspector_case(
            "rejected_parity",
            "rejected",
            INSPECTOR_REJECTED_SRC,
            1,
            false,
        ),
    ];
    for c in &cases {
        print!(
            "{:<18} {:>9} verdict {:<9}  audit {:>7.1}us vs replan {:>7.1}us   seq {:>6.2}ms, picked {:>6.2}ms ({:.2}x, {} threads)",
            c.name,
            c.iterations,
            c.verdict,
            c.audit * 1e6,
            c.replan * 1e6,
            c.t_seq * 1e3,
            c.t_verdict * 1e3,
            c.certified_speedup(),
            c.threads,
        );
        if let Some(s) = &c.steady {
            print!(
                "   steady x{}: inspected {:.2}ms vs uninspected {:.2}ms (overhead {:.3})",
                s.batch,
                s.t_inspected * 1e3,
                s.t_uninspected * 1e3,
                s.audit_overhead(),
            );
        }
        println!();
    }
    cases
}

/// Serialize inspector cases into the committed `BENCH_inspector.json`
/// shape. Gated: `inspector_certified_speedup` (forced-sequential over
/// certified-parallel, both timed on the same host in the same run),
/// `inspector_audit_overhead` (verdict-cached inspected over
/// uninspected session throughput, clamped to 1.0 — steady-state
/// inspection must stay free), and `interval_skip_ratio` (fraction of storm requests answered without
/// auditing — count-derived, so it gates tight). The audit-vs-replan
/// timings ride along as context.
pub fn inspector_json(cases: &[InspectorCase], storm: &IntervalStorm) -> String {
    let mut out = String::from("{\n  \"bench\": \"inspector\",\n");
    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push_str(&format!("  \"machine_threads\": {machine},\n"));
    out.push_str(&format!(
        "  \"storm\": {{\"requests\": {}, \"audits\": {}, \"interval_hits\": {}, \
         \"interval_skip_ratio\": {:.4}}},\n",
        storm.requests,
        storm.audits,
        storm.interval_hits,
        storm.interval_skip_ratio(),
    ));
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"verdict\": \"{}\", \"iterations\": {}, \
             \"threads\": {}, \"audit_us\": {:.2}, \"replan_us\": {:.2}, \
             \"seq_ms\": {:.3}, \"run_ms\": {:.3}",
            c.name,
            c.verdict,
            c.iterations,
            c.threads,
            c.audit * 1e6,
            c.replan * 1e6,
            c.t_seq * 1e3,
            c.t_verdict * 1e3,
        ));
        if c.verdict == "certified" {
            out.push_str(&format!(
                ", \"inspector_certified_speedup\": {:.2}",
                c.certified_speedup()
            ));
        }
        if let Some(s) = &c.steady {
            out.push_str(&format!(
                ", \"steady_batch\": {}, \"inspected_ms\": {:.3}, \"uninspected_ms\": {:.3}, \
                 \"inspector_audit_overhead\": {:.4}",
                s.batch,
                s.t_inspected * 1e3,
                s.t_uninspected * 1e3,
                s.audit_overhead(),
            ));
        }
        out.push_str(&format!(
            "}}{}\n",
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Regression comparison.
// ---------------------------------------------------------------------

/// One gated metric that regressed beyond tolerance (or disappeared).
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Flattened metric path (e.g. `cases.paper41_n200.seq_speedup`).
    pub key: String,
    /// Committed snapshot value.
    pub committed: f64,
    /// Freshly measured value (`None` when the metric vanished).
    pub fresh: Option<f64>,
}

/// Allowed drop for `_overhead` ratios: both legs of the ratio run
/// back-to-back on the same host, so their noise is correlated and a
/// tight band is safe. (The regeneration path is stricter still:
/// `bench_faults` refuses to write a snapshot below the absolute 0.95
/// floor.)
pub const OVERHEAD_TOLERANCE: f64 = 0.10;

/// Is this metric key gated? Ratio metrics (`_speedup`, `_reduction`,
/// `_overhead`, `_ratio`) always are — except the explicitly
/// informational `_time_ratio` timings, which flake at µs scale;
/// absolute throughput is gated only under strict mode.
pub fn is_gated(key: &str, strict: bool) -> bool {
    key.ends_with("_speedup")
        || key.ends_with("_reduction")
        || key.ends_with("_overhead")
        || (key.ends_with("_ratio") && !key.ends_with("_time_ratio"))
        || (strict && key.ends_with("_per_s"))
}

/// The allowed relative drop for a gated key: deterministic count
/// ratios (`_reduction`, `_ratio`) use [`TOLERANCE`], same-run
/// overhead ratios the tight [`OVERHEAD_TOLERANCE`], timing-derived
/// metrics the wider [`TIMING_TOLERANCE`].
pub fn tolerance_for(key: &str) -> f64 {
    if key.ends_with("_reduction") {
        TOLERANCE
    } else if key.ends_with("_overhead") {
        OVERHEAD_TOLERANCE
    } else if key.ends_with("_ratio") && !key.ends_with("_time_ratio") {
        TOLERANCE
    } else {
        TIMING_TOLERANCE
    }
}

/// Compare gated metrics of a fresh run against the committed snapshot.
/// A metric regresses when `fresh < committed · (1 − tolerance)` with
/// the per-key tolerance of [`tolerance_for`]; a gated metric missing
/// from the fresh run is always a failure (a silently dropped benchmark
/// must not pass the gate).
pub fn regressions(
    committed: &[(String, f64)],
    fresh: &[(String, f64)],
    strict: bool,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (key, c) in committed {
        if !is_gated(key, strict) || *c <= 0.0 {
            continue;
        }
        match fresh.iter().find(|(k, _)| k == key) {
            Some((_, f)) if *f >= c * (1.0 - tolerance_for(key)) => {}
            Some((_, f)) => out.push(Regression {
                key: key.clone(),
                committed: *c,
                fresh: Some(*f),
            }),
            None => out.push(Regression {
                key: key.clone(),
                committed: *c,
                fresh: None,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn gate_ignores_absolute_throughput_by_default() {
        let committed = m(&[("c.a.x_per_s", 1000.0), ("c.a.seq_speedup", 4.0)]);
        let fresh = m(&[("c.a.x_per_s", 10.0), ("c.a.seq_speedup", 3.9)]);
        assert!(regressions(&committed, &fresh, false).is_empty());
        assert_eq!(regressions(&committed, &fresh, true).len(), 1);
    }

    #[test]
    fn gate_trips_on_ratio_drop_and_missing_metric() {
        let committed = m(&[("a.seq_speedup", 4.0), ("b.peak_reduction", 3.0)]);
        let fresh = m(&[("a.seq_speedup", 2.0)]);
        let r = regressions(&committed, &fresh, false);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].fresh, Some(2.0));
        assert_eq!(r[1].fresh, None);
    }

    #[test]
    fn gate_tolerates_within_threshold() {
        // Timing ratios get the wider tolerance (scheduler jitter)...
        let committed = m(&[("a.par_speedup", 4.0)]);
        let fresh = m(&[("a.par_speedup", 2.9)]);
        assert!(regressions(&committed, &fresh, false).is_empty());
        // ...while deterministic count ratios stay on the tight one.
        let committed = m(&[("b.peak_reduction", 4.0)]);
        let fresh = m(&[("b.peak_reduction", 2.9)]);
        assert_eq!(regressions(&committed, &fresh, false).len(), 1);
        let fresh = m(&[("b.peak_reduction", 3.1)]);
        assert!(regressions(&committed, &fresh, false).is_empty());
    }

    #[test]
    fn gate_holds_overhead_ratios_to_the_tight_band() {
        let key = "cases.hardening_c4.service_hardened_overhead";
        assert!(is_gated(key, false), "overhead key must be gated");
        assert_eq!(tolerance_for(key), OVERHEAD_TOLERANCE);
        // A same-run ratio near 1.0 passes; a real decay trips.
        let committed = m(&[(key, 1.0)]);
        assert!(regressions(&committed, &m(&[(key, 0.93)]), false).is_empty());
        assert_eq!(regressions(&committed, &m(&[(key, 0.85)]), false).len(), 1);
    }

    #[test]
    fn faults_json_exposes_the_gated_overhead_metric() {
        let c = FaultsCase {
            name: "t",
            baseline_per_s: 2000.0,
            armed_per_s: 1960.0,
            fault_requests: 1200,
            fault_errors: 3,
            fault_reconnects: 40,
            fault_panics: 40,
            fault_per_s: 800.0,
        };
        assert!((c.hardened_overhead() - 0.98).abs() < 1e-9);
        let json = faults_json(std::slice::from_ref(&c));
        let metrics = crate::json::parse(&json).unwrap().metrics();
        let key = "cases.t.service_hardened_overhead";
        assert!(
            metrics.iter().any(|(k, v)| k == key && *v > 0.9),
            "{metrics:?}"
        );
        // The faulting-storm counters ride along ungated.
        assert!(metrics.iter().any(|(k, _)| k == "cases.t.fault_panics"));
        assert!(!is_gated("cases.t.fault_per_s", false));

        // A lucky armed leg measuring above 1.0 is clamped, so noise
        // never tightens the committed gate.
        let lucky = FaultsCase {
            armed_per_s: 2100.0,
            ..c
        };
        let metrics = crate::json::parse(&faults_json(&[lucky]))
            .unwrap()
            .metrics();
        assert!(metrics.iter().any(|(k, v)| k == key && *v == 1.0));
    }

    #[test]
    fn inspector_case_measures_and_exposes_gated_metrics() {
        let c = run_inspector_case(
            "t",
            "certified",
            "for i = 0..=19 { A[i + K] = A[i] + 1; }",
            0,
            true,
        );
        assert_eq!(c.verdict, "certified");
        assert_eq!(c.iterations, 20);
        assert!(c.audit > 0.0 && c.replan > 0.0 && c.t_seq > 0.0 && c.t_verdict > 0.0);
        let storm = inspector_storm();
        assert_eq!(storm.requests, 32);
        assert_eq!(storm.audits, 1, "storm must audit exactly once");
        assert_eq!(storm.interval_hits, storm.requests - 1);
        let json = inspector_json(std::slice::from_ref(&c), &storm);
        let metrics = crate::json::parse(&json).unwrap().metrics();
        for key in [
            "cases.t.inspector_certified_speedup",
            "cases.t.inspector_audit_overhead",
            "storm.interval_skip_ratio",
        ] {
            assert!(
                metrics.iter().any(|(k, v)| k == key && *v > 0.0),
                "{key} missing: {metrics:?}"
            );
            assert!(is_gated(key, false), "{key} must be gated");
        }
        // The skip ratio is count-derived, so it gates tight — and the
        // legacy informational timing ratios must stay ungated.
        assert_eq!(tolerance_for("storm.interval_skip_ratio"), TOLERANCE);
        assert!(!is_gated("elim_cases.x.elim_time_ratio", true));
        assert!(!is_gated("cases.x.enum_time_ratio", true));
        // The overhead clamp: the committed ratio never exceeds 1.0.
        let (_, overhead) = metrics
            .iter()
            .find(|(k, _)| k == "cases.t.inspector_audit_overhead")
            .unwrap();
        assert!(*overhead <= 1.0);

        // The demoted verdicts keep their designed shapes and run
        // through the compiled stage driver.
        let c = run_inspector_case(
            "r",
            "refined",
            "for i1 = 0..=7 { for i2 = 0..=7 { A[i1 + K, i2] = A[i1, i2] + 1; } }",
            1,
            false,
        );
        assert!(c.steady.is_none());
        assert_eq!(c.iterations, 64);
        assert!(c.t_verdict > 0.0);
        let metrics = crate::json::parse(&inspector_json(&[c], &storm))
            .unwrap()
            .metrics();
        assert!(!metrics
            .iter()
            .any(|(k, _)| k.contains("inspector_certified_speedup")));
    }

    #[test]
    fn random_deep_systems_are_deterministic() {
        let a = random_deep_system(5, 10, 42);
        let b = random_deep_system(5, 10, 42);
        assert_eq!(a, b);
        assert!(a.len() >= 10);
    }

    #[test]
    fn fm_plan_case_runs_on_paper41() {
        let c = run_fm_plan_case("t", &paper41(0, 9));
        assert_eq!(c.depth, 2);
        assert!(c.rows_pruned <= c.rows_unpruned);
        assert_eq!(c.compiled_rows, c.rows_pruned);
    }

    #[test]
    fn template_case_measures_and_exposes_gated_metric() {
        let c = run_template_case("t", PAPER41_SYM, 20);
        assert_eq!(c.depth, 2);
        assert!(c.replan > 0.0 && c.instantiate > 0.0 && c.template_once > 0.0);
        let json = template_json(&[c]);
        let metrics = crate::json::parse(&json).unwrap().metrics();
        let key = "cases.t.template_instantiate_speedup";
        assert!(metrics.iter().any(|(k, v)| k == key && *v > 0.0));
        assert!(is_gated(key, false), "speedup key must be gated");
    }

    #[test]
    fn imperfect_case_measures_and_exposes_gated_metric() {
        let src = imperfect_rowinit_src(40);
        let c = run_imperfect_case("t", &src);
        assert_eq!(c.kernels, 2);
        assert!(c.t_reference > 0.0 && c.t_compiled_par > 0.0);
        let json = imperfect_json(&[c]);
        let metrics = crate::json::parse(&json).unwrap().metrics();
        let key = "cases.t.imperfect_speedup";
        assert!(metrics.iter().any(|(k, v)| k == key && *v > 0.0));
        assert!(is_gated(key, false), "speedup key must be gated");
    }

    #[test]
    fn scaling_case_measures_and_reports_ungated_ratio() {
        let nest = scaling_skewed(24);
        let c = run_scaling_case("t", &nest, true);
        assert!(c.skewed);
        assert!(!c.points.is_empty());
        // Pool width 1 must actually run serial — the region gauge is
        // what the committed snapshots record.
        let p1 = c
            .points
            .iter()
            .find(|p| p.threads == 1)
            .expect("serial point");
        assert_eq!(p1.observed_compiled, 1);
        assert!(c.t_contiguous > 0.0 && c.t_stealing > 0.0);
        let json = scaling_json(&[c]);
        let metrics = crate::json::parse(&json).unwrap().metrics();
        let key = "cases.t.skewed_scaling_time_ratio";
        assert!(metrics.iter().any(|(k, v)| k == key && *v > 0.0));
        assert!(
            !is_gated(key, true),
            "1-CPU scaling ratios are reported, not gated"
        );
        // Ladder points carry configured and observed widths.
        assert!(metrics
            .iter()
            .any(|(k, _)| k == "cases.t_t1.observed_compiled_threads"));
    }

    #[test]
    fn scaling_workload_skew_matches_design() {
        let b = scaling_balanced(12);
        let plan = pdm_core::parallelize(&b).expect("plan");
        assert!(!cost_skewed(plan.bounds(), plan.doall_count()));
        let s = scaling_skewed(12);
        let plan = pdm_core::parallelize(&s).expect("plan");
        assert!(cost_skewed(plan.bounds(), plan.doall_count()));
    }

    #[test]
    fn elim_case_peak_never_grows_under_pruning() {
        let c = run_fm_elim_case("t", &random_deep_system(4, 8, 3));
        assert!(c.fast.peak_rows <= c.unpruned.peak_rows);
        assert!(c.exact.peak_rows <= c.fast.peak_rows);
    }
}
