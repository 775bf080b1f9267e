//! Differential harness for the speculative inspector: on randomly
//! generated parametric-subscript nests, the [`audit`] verdict is
//! checked against a brute-force cross-group conflict oracle, and the
//! verdict-picked executor is checked bit-for-bit against the
//! sequential reference semantics.
//!
//! The generator is deterministic; set `PDM_PROPTEST_SEED` to pin the
//! base seed (CI pins `1`). Every assertion names the failing seed so a
//! red run reproduces with
//! `PDM_PROPTEST_SEED=<seed> cargo test -p pdm-runtime --test
//! inspector_differential`.

use pdm_core::plan::ParallelPlan;
use pdm_core::template::plan_template;
use pdm_loopir::generator::{random_inspector_nest, GenConfig};
use pdm_loopir::nest::LoopNest;
use pdm_loopir::stmt::AccessKind;
use pdm_matrix::vec::IVec;
use pdm_runtime::inspector::{audit, run_with_verdict};
use pdm_runtime::{Memory, Verdict, Walker};
use std::collections::HashMap;

fn base_seed() -> u64 {
    std::env::var("PDM_PROPTEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0x00C0_FFEE)
}

/// Brute-force oracle, order-insensitive: some cell is touched by two
/// distinct groups and written at least once. (If ≥ 2 groups touch a
/// cell and any of them writes it, the writer conflicts with every
/// other toucher — the exact condition the certifier decides.)
fn oracle_has_cross_group_conflict(nest: &LoopNest, plan: &ParallelPlan) -> bool {
    // cell -> (first touching group, seen a second group, seen a write)
    let mut seen: HashMap<(usize, Vec<i64>), (u64, bool, bool)> = HashMap::new();
    let walker = Walker::for_plan(plan);
    let mut s = walker.new_scratch();
    let all = walker.range(0, u64::MAX).unwrap();
    walker
        .walk_task(&all, &mut s, |gid, sc| {
            let idx = sc.idx.as_slice();
            for stmt in nest.body() {
                if !stmt.guards_hold(idx) {
                    continue;
                }
                for (kind, r) in stmt.accesses() {
                    let sub = r.access.eval(&IVec(idx.to_vec()))?;
                    let e = seen
                        .entry((r.array.0, sub.0))
                        .or_insert((gid, false, false));
                    e.1 |= e.0 != gid;
                    e.2 |= kind == AccessKind::Write;
                }
            }
            Ok(())
        })
        .unwrap();
    seen.values().any(|&(_, multi, wrote)| multi && wrote)
}

fn seeded(nest: &LoopNest, seed: u64) -> Memory {
    let mut mem = Memory::for_nest(nest).expect("extent computation");
    mem.init_deterministic(seed);
    mem
}

#[test]
fn verdicts_agree_with_the_brute_force_oracle() {
    let base = base_seed();
    let cfgs = [
        GenConfig {
            depth: 1,
            extent: 7,
            coeff: 1,
            offset: 2,
            stmts: 1,
            arrays: 1,
        },
        GenConfig {
            depth: 2,
            extent: 4,
            coeff: 2,
            offset: 3,
            stmts: 2,
            arrays: 2,
        },
    ];
    let mut audited = 0usize;
    let mut noncertified = 0usize;
    for case in 0..40u64 {
        let cfg = &cfgs[(case % cfgs.len() as u64) as usize];
        let seed = base.wrapping_add(case);
        let shape = match random_inspector_nest(seed, cfg, &["K"]) {
            Ok(s) => s,
            Err(_) => continue, // degenerate draw (e.g. empty space)
        };
        assert!(shape.has_parametric_accesses(), "seed {seed}");
        // Some draws defeat the static planner (singular access hulls
        // and the like) — those shapes never reach the inspector in
        // production either, so skip them here.
        let template = match plan_template(&shape) {
            Ok(t) => t,
            Err(_) => continue,
        };
        assert!(template.requires_inspection(), "seed {seed}");
        for k in [0i64, 1, 3] {
            let vals = [("K", k)];
            let plan = match template.instantiate(&vals) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let nest = template.instantiate_nest(&vals).unwrap();
            let verdict = audit(&nest, &plan).unwrap();
            audited += 1;

            // Verdict vs. oracle. Certification must imply cross-group
            // conflict freedom; a conflict must demote the verdict.
            // (The converse is deliberately not asserted: a
            // conflict-free plan can still be rejected for intra-group
            // misordering, which the cross-group oracle cannot see.)
            let conflict = oracle_has_cross_group_conflict(&nest, &plan);
            if verdict == Verdict::Certified {
                assert!(
                    !conflict,
                    "seed {seed} K={k}: certified, but the oracle found a cross-group conflict"
                );
            } else {
                noncertified += 1;
            }
            if conflict {
                assert_ne!(
                    verdict,
                    Verdict::Certified,
                    "seed {seed} K={k}: oracle found a conflict"
                );
            }

            // Execution equivalence: whatever executor the verdict
            // picks must reproduce the sequential reference exactly.
            let seq = seeded(&nest, seed);
            let n_seq = pdm_runtime::run_sequential(&nest, &seq).unwrap();
            let spec = seeded(&nest, seed);
            let n_spec = run_with_verdict(&nest, &plan, &spec, &verdict).unwrap();
            assert_eq!(n_seq, n_spec, "seed {seed} K={k} verdict {verdict:?}");
            assert_eq!(
                seq.snapshot(),
                spec.snapshot(),
                "seed {seed} K={k} verdict {verdict:?}: output diverged from sequential"
            );
        }
    }
    // The harness must not go vacuous if the generator or planner
    // drifts: enough cases must survive to exercise both the certified
    // and the demoted paths.
    assert!(audited >= 20, "only {audited} cases audited");
    assert!(
        noncertified >= 1,
        "all {audited} audits certified — the demoted executors went untested"
    );
}

/// The facts the audit verdict is compared on across an interval:
/// the kind, plus the exact staging for refinements. (Rejection
/// *reasons* are intentionally excluded — they name the first
/// violation found, which depends on hash-map iteration order.)
fn verdict_shape(v: &Verdict) -> (String, Option<Vec<Vec<u64>>>) {
    match v {
        Verdict::Refined { stages } => (v.kind().into(), Some(stages.clone())),
        other => (other.kind().into(), None),
    }
}

/// Interval certification vs. the per-point oracle: every valuation
/// inside a certified stability box must audit to the same verdict the
/// box was derived at — kind and (for refinements) the exact stages.
#[test]
fn certified_intervals_match_the_per_point_audit() {
    let base = base_seed();
    let cfgs = [
        GenConfig {
            depth: 1,
            extent: 7,
            coeff: 1,
            offset: 2,
            stmts: 1,
            arrays: 1,
        },
        GenConfig {
            depth: 2,
            extent: 4,
            coeff: 2,
            offset: 3,
            stmts: 2,
            arrays: 2,
        },
    ];
    let mut boxes_checked = 0usize;
    let mut points_checked = 0usize;
    for case in 0..40u64 {
        let cfg = &cfgs[(case % cfgs.len() as u64) as usize];
        let seed = base.wrapping_add(1_000).wrapping_add(case);
        let shape = match random_inspector_nest(seed, cfg, &["K"]) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let template = match plan_template(&shape) {
            Ok(t) => t,
            Err(_) => continue,
        };
        for k0 in [0i64, 3, 25, -25] {
            let vals = [("K", k0)];
            let Ok(plan) = template.instantiate(&vals) else {
                continue;
            };
            let nest = template.instantiate_nest(&vals).unwrap();
            let expected = verdict_shape(&audit(&nest, &plan).unwrap());
            let bx = match template.stability_box(&vals) {
                Ok(Some(b)) => b,
                _ => continue, // point-only valuation: nothing to check
            };
            boxes_checked += 1;
            let (lo, hi) = bx[0];
            assert!(
                lo <= k0 && k0 <= hi,
                "seed {seed}: box {bx:?} must contain its own valuation K={k0}"
            );
            // Probe the box: its finite edges, and a spread around the
            // audited point, all clamped inside.
            let mut probes = vec![k0 + 1, k0 - 1, k0 + 5, k0 - 5, k0 + 97, k0 - 97];
            if lo > i64::MIN {
                probes.extend([lo, lo + 1]);
            }
            if hi < i64::MAX {
                probes.extend([hi, hi - 1]);
            }
            probes.retain(|&k| lo <= k && k <= hi && k != k0);
            probes.sort_unstable();
            probes.dedup();
            for k in probes {
                let vals_k = [("K", k)];
                let plan_k = template.instantiate(&vals_k).unwrap();
                let nest_k = template.instantiate_nest(&vals_k).unwrap();
                let got = verdict_shape(&audit(&nest_k, &plan_k).unwrap());
                assert_eq!(
                    got, expected,
                    "seed {seed}: K={k} inside box {bx:?} (derived at K={k0}) \
                     audits differently"
                );
                points_checked += 1;
            }
        }
    }
    // Vacuity guards: the generator must keep producing certifiable
    // boxes with probe-able interiors.
    assert!(boxes_checked >= 5, "only {boxes_checked} boxes certified");
    assert!(points_checked >= 10, "only {points_checked} in-box audits");
}
