//! Differential tests: parametric plan templates vs. concrete replanning.
//!
//! For >100 random **parametric** nests and random parameter valuations,
//! the template path
//!
//! ```text
//! plan_template(shape) → instantiate(params)            (no FM, no analysis)
//! ```
//!
//! must be indistinguishable from the existing concrete path
//!
//! ```text
//! parse_loop_with(render(shape), params) → parallelize  (fresh plan)
//! ```
//!
//! on everything observable: the lowered nest, the plan structure
//! (transform, doall prefix, partition offsets), the **group sequence**
//! (as the compiled walker enumerates it, order included), the **bound
//! rows** as evaluated — `(lo, hi)` at every level for every feasible
//! prefix, which is the full runtime-observable content of the rows —
//! and the **execution results**, pinned through the equivalence
//! harness (sequential interpreter vs. compiled original order vs.
//! compiled-parallel, bit-identical memory).
//!
//! Valuations deliberately include sizes that empty the iteration space
//! (and, with two parameters, spaces emptied at inner levels only), so
//! the degenerate paths are differential-tested too.
//!
//! Reproducibility: the proptest RNG stream is derived from the test
//! name mixed with the env-pinned `PDM_PROPTEST_SEED` (CI sets it to
//! `1`; see the vendored `proptest` crate docs), so a failing case
//! replays identically on any machine with the same variable set.

use proptest::prelude::*;
use vardep_loops::core::parallelize;
use vardep_loops::core::template::plan_template;
use vardep_loops::loopir::generator::{random_symbolic_nest, GenConfig};
use vardep_loops::loopir::parse::parse_loop_with;
use vardep_loops::loopir::pretty;
use vardep_loops::poly::bounds::LoopBounds;
use vardep_loops::prelude::*;
use vardep_loops::runtime::equivalence::compare;
use vardep_loops::runtime::exec;
use vardep_loops::runtime::Walker;

fn shape_for_seed(seed: u64) -> (LoopNest, Vec<&'static str>) {
    let params: Vec<&'static str> = if seed.is_multiple_of(3) {
        vec!["N", "M"]
    } else {
        vec!["N"]
    };
    let cfg = GenConfig {
        depth: 1 + (seed as usize % 3),
        extent: 3 + (seed as i64 % 4),
        stmts: 1 + (seed as usize % 2),
        arrays: 1 + (seed as usize % 2),
        ..GenConfig::default()
    };
    let shape = random_symbolic_nest(seed, &cfg, &params).expect("generator");
    (shape, params)
}

/// A deterministic pseudo-random valuation in `-1..=7` per parameter —
/// small enough to execute, negative often enough to hit empty spaces.
fn valuation(seed: u64, round: u64, params: &[&'static str]) -> Vec<(&'static str, i64)> {
    params
        .iter()
        .enumerate()
        .map(|(j, p)| {
            let r = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round.wrapping_mul(97))
                .wrapping_add(j as u64 * 31);
            let r = r ^ (r >> 29);
            (*p, (r % 9) as i64 - 1)
        })
        .collect()
}

/// Integer points completing `prefix` (length `k`) under `b`.
fn subtree_points(b: &LoopBounds, k: usize, prefix: &mut Vec<i64>) -> u64 {
    if k == b.dim() {
        return 1;
    }
    let (lo, hi) = b.range(k, prefix).expect("range");
    let mut total = 0u64;
    for v in lo..=hi {
        prefix.push(v);
        total += subtree_points(b, k + 1, prefix);
        prefix.pop();
    }
    total
}

/// Evaluated bound-row equivalence: `(lo, hi)` must agree at every level
/// for every feasible prefix of the iteration walk — the complete
/// observable content of the per-level `max`/`min` candidate rows — with
/// two principled tolerances (see `pdm_poly::bounds`' exactness
/// contract):
///
/// * empty ranges compare by emptiness alone: on an infeasible space the
///   concrete path injects its constant `(1, 0)` encoding while the
///   parametric path goes empty through the substituted rows themselves
///   (e.g. `(0, N+1)` at `N = -3`);
/// * a position present on one side only must be **dark shadow** — its
///   subtree contains no integer point (concrete FM integer-tightens
///   intermediate rows the parametric run sometimes cannot, which can
///   leave rationally wider ranges whose extra positions are provably
///   empty). No generated seed currently exercises this branch; it
///   exists so a future generator extension degrades into a *checked*
///   tolerance instead of a spurious failure.
fn assert_ranges_equivalent(a: &LoopBounds, b: &LoopBounds, k: usize, prefix: &mut Vec<i64>) {
    let ra = a.range(k, prefix).expect("template range");
    let rb = b.range(k, prefix).expect("concrete range");
    let (empty_a, empty_b) = (ra.0 > ra.1, rb.0 > rb.1);
    if empty_a && empty_b {
        return;
    }
    let span_lo = if empty_a {
        rb.0
    } else if empty_b {
        ra.0
    } else {
        ra.0.min(rb.0)
    };
    let span_hi = if empty_a {
        rb.1
    } else if empty_b {
        ra.1
    } else {
        ra.1.max(rb.1)
    };
    for v in span_lo..=span_hi {
        let in_a = !empty_a && (ra.0..=ra.1).contains(&v);
        let in_b = !empty_b && (rb.0..=rb.1).contains(&v);
        prefix.push(v);
        match (in_a, in_b) {
            (true, true) => {
                if k + 1 < a.dim() {
                    assert_ranges_equivalent(a, b, k + 1, prefix);
                }
            }
            (true, false) => assert_eq!(
                subtree_points(a, k + 1, prefix),
                0,
                "level {k} position {prefix:?} is template-only but not dark shadow \
                 (template {ra:?} vs concrete {rb:?})"
            ),
            (false, true) => assert_eq!(
                subtree_points(b, k + 1, prefix),
                0,
                "level {k} position {prefix:?} is concrete-only but not dark shadow \
                 (template {ra:?} vs concrete {rb:?})"
            ),
            (false, false) => {}
        }
        prefix.pop();
    }
}

/// The plan's group schedule as `(prefix, offset)` pairs in walk order;
/// `nonempty_only` keeps just the groups that run at least one
/// iteration.
fn group_sequence(plan: &ParallelPlan, nonempty_only: bool) -> Vec<(Vec<i64>, Vec<i64>)> {
    let walker = Walker::for_plan(plan);
    let mut s = walker.new_scratch();
    let mut out = Vec::new();
    walker
        .range(0, u64::MAX)
        .and_then(|all| {
            all.for_each(|_, prefix, o| {
                if !nonempty_only || walker.walk(prefix, o, &mut s, |_| Ok(()))? > 0 {
                    out.push((prefix.to_vec(), walker.offsets()[o].clone()));
                }
                Ok(())
            })
        })
        .expect("walk");
    out
}

fn check_one(seed: u64, round: u64) {
    let (shape, params) = shape_for_seed(seed);
    let vals = valuation(seed, round, &params);

    // Template path: plan the shape once, instantiate at the valuation.
    let template = plan_template(&shape).expect("template");
    let inst_nest = template.instantiate_nest(&vals).expect("instantiate nest");
    let inst_plan = template.instantiate(&vals).expect("instantiate plan");

    // Concrete path: render → parse_loop_with → fresh plan, exactly the
    // pre-template flow (also differential-testing the pretty-printer).
    let text = pretty::render(&shape);
    let conc_nest = parse_loop_with(&text, &vals).expect("concrete parse");
    let conc_plan = parallelize(&conc_nest).expect("concrete plan");

    // The lowered nest is the parsed nest. (Array *ids* may be numbered
    // differently — the generator declares arrays up front, the parser
    // in first-use order — so compare the canonical rendering, which is
    // name-based and id-free.)
    assert_eq!(
        pretty::render(&inst_nest),
        pretty::render(&conc_nest),
        "substituted nest != reparsed nest"
    );

    // Plan structure is bit-identical.
    assert_eq!(inst_plan.transform(), conc_plan.transform(), "transform");
    assert_eq!(inst_plan.inverse(), conc_plan.inverse(), "inverse");
    assert_eq!(
        inst_plan.transformed_pdm(),
        conc_plan.transformed_pdm(),
        "transformed PDM"
    );
    assert_eq!(inst_plan.doall_count(), conc_plan.doall_count(), "doall");
    assert_eq!(
        inst_plan.partition_count(),
        conc_plan.partition_count(),
        "partition count"
    );

    // Bound rows: equivalent evaluated ranges everywhere (identical in
    // practice; dark-shadow-only divergence is verified, not assumed).
    assert_ranges_equivalent(inst_plan.bounds(), conc_plan.bounds(), 0, &mut Vec::new());

    // Group sequence: same groups, same order, same offsets. If the
    // sequences diverge (possible only through the dark-shadow tolerance
    // above), every unmatched group must carry zero iterations — the
    // non-empty work schedule is always identical.
    let gi = group_sequence(&inst_plan, false);
    let gc = group_sequence(&conc_plan, false);
    if gi != gc {
        assert_eq!(
            group_sequence(&inst_plan, true),
            group_sequence(&conc_plan, true),
            "non-empty group schedules diverged"
        );
    } else {
        assert_eq!(
            exec::group_count(&inst_plan).unwrap(),
            exec::group_count(&conc_plan).unwrap(),
            "arithmetic group count"
        );
    }

    // Execution results: the compiled executors agree with the reference
    // on the instantiated plan, and the concrete plan reaches the same
    // sequential reference on the identical nest/seed — so the two
    // paths' memories are bit-identical transitively.
    let rep = compare(&inst_nest, &inst_plan, seed ^ round).expect("template exec");
    assert!(rep.equal, "template executors diverged: {rep:?}");
    let rep = compare(&conc_nest, &conc_plan, seed ^ round).expect("concrete exec");
    assert!(rep.equal, "concrete executors diverged: {rep:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// The headline differential: one random parametric nest, two random
    /// valuations, every observable pinned.
    #[test]
    fn template_instantiation_matches_concrete_replanning(seed in 0u64..1_000_000) {
        check_one(seed, 0);
        check_one(seed, 1);
    }
}

/// One template must serve *many* sizes of one shape — the serving
/// pattern the cache is built for — including the empty one.
#[test]
fn one_template_many_sizes() {
    let (shape, params) = shape_for_seed(41);
    let template = plan_template(&shape).unwrap();
    for n in [-1i64, 0, 1, 2, 5, 9, 13] {
        let vals: Vec<(&str, i64)> = params.iter().map(|p| (*p, n)).collect();
        let inst_nest = template.instantiate_nest(&vals).unwrap();
        let inst_plan = template.instantiate(&vals).unwrap();
        let conc_plan = parallelize(&inst_nest).unwrap();
        assert_eq!(
            inst_plan.bounds().enumerate().unwrap(),
            conc_plan.bounds().enumerate().unwrap(),
            "N={n}"
        );
        let rep = compare(&inst_nest, &inst_plan, 7).unwrap();
        assert!(rep.equal, "N={n}: {rep:?}");
    }
}
