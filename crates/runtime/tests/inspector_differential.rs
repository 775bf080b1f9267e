//! Differential harness for the speculative inspector: on randomly
//! generated parametric-subscript nests, the [`audit`] verdict is
//! checked against a brute-force cross-group conflict oracle and
//! against a brute-force reference audit (the decision rules over
//! `(array, subscript)` keys and index vectors), and the verdict-picked
//! executor is checked bit-for-bit against the sequential reference
//! semantics.
//!
//! The generator is deterministic; set `PDM_PROPTEST_SEED` to pin the
//! base seed (CI pins `1`). Every assertion names the failing seed so a
//! red run reproduces with
//! `PDM_PROPTEST_SEED=<seed> cargo test -p pdm-runtime --test
//! inspector_differential`.

use pdm_core::parallelize;
use pdm_core::plan::ParallelPlan;
use pdm_core::template::plan_template;
use pdm_loopir::generator::{random_inspector_nest, random_nest, GenConfig};
use pdm_loopir::nest::LoopNest;
use pdm_loopir::stmt::AccessKind;
use pdm_matrix::vec::IVec;
use pdm_runtime::inspector::{audit, audit_compiled, run_with_verdict};
use pdm_runtime::{Memory, RuntimeError, Verdict, Visit, Walker};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    let mut gid = 0;
    walker
        .walk_range(0..u64::MAX, &mut walker.new_scratch(), |step| {
            let sc = match step {
                Visit::Group { id, .. } => {
                    gid = id;
                    return Ok(());
                }
                Visit::Iteration(sc) => sc,
            };
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

/// One `(cell, group)` summary of the reference audit: original index
/// vectors, compared lexicographically.
struct RefTouches {
    wrote: bool,
    min: Vec<i64>,
    max: Vec<i64>,
    max_write: Option<Vec<i64>>,
}

/// Brute-force reference audit with the inspector's decision rules and
/// none of its machinery: one sequential walk, every access evaluated
/// from the original indices into an `(array, subscript)` key, index
/// vectors for the order checks, ordered maps for every merge.
/// Rejection reasons are not worded like [`audit`]'s; compare
/// [`verdict_shape`]s. It keeps the intra-group order check that the
/// audit leaves out (`group_walks_rise_in_original_lex_order`), so a
/// group walked against program order would show as a mismatch.
fn reference_audit(nest: &LoopNest, plan: &ParallelPlan) -> Verdict {
    type Cell = (usize, Vec<i64>);
    let mut touches: BTreeMap<(Cell, u64), RefTouches> = BTreeMap::new();
    let mut groups: Vec<u64> = Vec::new();
    let mut disorder = false;
    let walker = Walker::for_plan(plan);
    walker
        .walk_range(0..u64::MAX, &mut walker.new_scratch(), |step| {
            let sc = match step {
                Visit::Group { id, .. } => {
                    groups.push(id);
                    return Ok(());
                }
                Visit::Iteration(sc) => sc,
            };
            let gid = *groups.last().expect("a group was entered");
            let idx = sc.idx.as_slice();
            for stmt in nest.body() {
                if !stmt.guards_hold(idx) {
                    continue;
                }
                for (kind, r) in stmt.accesses() {
                    let sub = r.access.eval(&IVec(idx.to_vec()))?;
                    let write = kind == AccessKind::Write;
                    let t =
                        touches
                            .entry(((r.array.0, sub.0), gid))
                            .or_insert_with(|| RefTouches {
                                wrote: false,
                                min: idx.to_vec(),
                                max: idx.to_vec(),
                                max_write: None,
                            });
                    // A write must follow every earlier touch, a read
                    // every earlier write, in original order.
                    disorder |= if write {
                        idx < t.max.as_slice()
                    } else {
                        t.max_write.as_deref().is_some_and(|w| idx < w)
                    };
                    t.wrote |= write;
                    t.min = t.min.clone().min(idx.to_vec());
                    t.max = t.max.clone().max(idx.to_vec());
                    if write && t.max_write.as_deref().is_none_or(|w| idx > w) {
                        t.max_write = Some(idx.to_vec());
                    }
                }
            }
            Ok(())
        })
        .unwrap();
    if disorder {
        return Verdict::Rejected {
            reason: "intra-group disorder".into(),
        };
    }
    let mut by_cell: BTreeMap<&Cell, Vec<(u64, &RefTouches)>> = BTreeMap::new();
    for ((cell, gid), t) in &touches {
        by_cell.entry(cell).or_default().push((*gid, t));
    }
    // Certification: no cell shared by two groups with a write.
    if !by_cell
        .values()
        .any(|list| list.len() >= 2 && list.iter().any(|(_, t)| t.wrote))
    {
        return Verdict::Certified;
    }
    let mut edges: BTreeSet<(u64, u64)> = BTreeSet::new();
    for list in by_cell.values() {
        for (i, (ga, ta)) in list.iter().enumerate() {
            for (gb, tb) in &list[i + 1..] {
                if !ta.wrote && !tb.wrote {
                    continue;
                }
                if ta.max < tb.min {
                    edges.insert((*ga, *gb));
                } else if tb.max < ta.min {
                    edges.insert((*gb, *ga));
                } else {
                    return Verdict::Rejected {
                        reason: "interleaved conflict".into(),
                    };
                }
            }
        }
    }
    // Longest path by repeated relaxation: |groups| rounds settle any
    // DAG; a change in one more round means a cycle.
    let mut layer: BTreeMap<u64, usize> = groups.iter().map(|&g| (g, 0)).collect();
    for round in 0..=groups.len() {
        let mut changed = false;
        for &(a, b) in &edges {
            if layer[&b] < layer[&a] + 1 {
                layer.insert(b, layer[&a] + 1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == groups.len() {
            return Verdict::Rejected {
                reason: "cycle".into(),
            };
        }
    }
    let depth = layer.values().copied().max().unwrap_or(0) + 1;
    let mut stages = vec![Vec::new(); depth];
    for (g, l) in layer {
        stages[l].push(g);
    }
    Verdict::Refined { stages }
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

/// The facts the audit verdict is compared on across an interval and
/// against the reference: the kind, plus the exact staging for
/// refinements. (Rejection *reasons* are excluded: they name the first
/// violation found, which differs between valuations of one interval
/// and is worded differently by the reference.)
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

/// The generator configurations of the verdict-equality differential:
/// the 1-D and 2-D shapes of the oracle tests, a wider 1-D shape, and a
/// single-array 2-D shape with unit subscripts (the densest source of
/// refinements and rejections).
const REFERENCE_CFGS: [GenConfig; 4] = [
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
    GenConfig {
        depth: 1,
        extent: 15,
        coeff: 2,
        offset: 4,
        stmts: 2,
        arrays: 1,
    },
    GenConfig {
        depth: 2,
        extent: 4,
        coeff: 1,
        offset: 1,
        stmts: 1,
        arrays: 1,
    },
];

/// Verdict-equality differential: on every generator configuration and
/// `K ∈ −3..=5`, [`audit`] decides exactly what the brute-force
/// reference decides — the kind, and for refinements the exact stages.
#[test]
fn verdicts_equal_the_reference_audit() {
    let base = base_seed();
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    for case in 0..160u64 {
        let cfg = &REFERENCE_CFGS[(case % REFERENCE_CFGS.len() as u64) as usize];
        let seed = base.wrapping_add(2_000).wrapping_add(case);
        let Ok(shape) = random_inspector_nest(seed, cfg, &["K"]) else {
            continue;
        };
        let Ok(template) = plan_template(&shape) else {
            continue;
        };
        for k in -3i64..=5 {
            let vals = [("K", k)];
            let Ok(plan) = template.instantiate(&vals) else {
                continue;
            };
            let nest = template.instantiate_nest(&vals).unwrap();
            let got = verdict_shape(&audit(&nest, &plan).unwrap());
            let want = verdict_shape(&reference_audit(&nest, &plan));
            assert_eq!(got, want, "seed {seed} cfg {cfg:?} K={k}");
            *kinds.entry(got.0).or_default() += 1;
        }
    }
    // Vacuity guard: the demoted verdicts must be exercised too.
    for kind in ["certified", "refined", "rejected"] {
        assert!(
            kinds.get(kind) >= Some(&10),
            "verdict kinds seen: {kinds:?}"
        );
    }
}

/// Plan the hull of `src`, substitute `K = k`, and return the concrete
/// nest and plan.
fn instance(src: &str, k: i64) -> (LoopNest, ParallelPlan) {
    let shape = pdm_loopir::parse::parse_loop_symbolic(src, &["K"]).unwrap();
    let t = plan_template(&shape).unwrap();
    let vals = [("K", k)];
    (
        t.instantiate_nest(&vals).unwrap(),
        t.instantiate(&vals).unwrap(),
    )
}

#[test]
fn edge_shapes_audit_like_the_reference() {
    // Index boxes starting below zero (ranks and cell ids are offsets
    // from the box corners, never raw indices), and a guard that leaves
    // only column 0 carrying the shifted chain (failed-guard statements
    // touch nothing).
    for src in [
        "for i = -6..=5 { A[i + K] = A[i] + 1; }",
        "for i1 = -4..=3 { for i2 = -3..=2 { A[i1 + K, i2] = A[i1, i2] + B[-i1, i2]; } }",
        "for i1 = 0..=5 { for i2 = 0..=3 {
            A[i1 + K, i2] = A[i1, i2] + 1 when i2 == 0;
            B[i1, i2] = B[i1, i2] + 1;
        } }",
    ] {
        let mut kinds = BTreeSet::new();
        for k in -3i64..=5 {
            let (nest, plan) = instance(src, k);
            let v = audit(&nest, &plan).unwrap();
            assert_eq!(
                verdict_shape(&v),
                verdict_shape(&reference_audit(&nest, &plan)),
                "{src} K={k}"
            );
            kinds.insert(v.kind());
        }
        assert!(kinds.len() >= 2, "{src}: only {kinds:?}");
    }
}

/// The four parametric-subscript shapes servebench's `inspect_mixed`
/// serves (`servebench/src/workload.rs`), each with the values of `K`
/// sampled here: shifted paper §4.1, row shift, parity and chain.
const SERVED_SHAPES: [(&str, &[i64]); 4] = [
    (
        "for i1 = 0..=19 { for i2 = 0..=19 {
           A[5*i1 + i2 + K, 7*i1 + 2*i2] = A[i1 + i2 + 4 + K, i1 + 2*i2 + 6] + 1;
         } }",
        &[0, 7],
    ),
    (
        "for i1 = 0..=24 { for i2 = 0..=24 {
           A[i1 + K, i2] = A[i1, i2] + B[2*i1 + i2, i1] + C[i1 + 2*i2, i2] + D[i1 + i2, 2*i1] + 1;
         } }",
        &[-24, -5, -1, 1, 5, 24, 25, 30],
    ),
    (
        "for i = 0..=999 { A[i + K] = A[i - 2] + 1; }",
        &[4, 5, 100, 101],
    ),
    (
        "for i = 0..=19 { A[i + K] = A[i] + 1; }",
        &[-19, -1, 1, 19, 20],
    ),
];

/// The served audit (an instance's own lowering over its memory's
/// layout) decides the served shapes as the reference does, and gives
/// the same full verdict, rejection reason included, on pools of width
/// 1 and 2.
#[test]
fn served_shapes_audit_like_the_reference() {
    let pools = [1, 2].map(|n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    });
    let mut kinds = BTreeSet::new();
    for (src, ks) in SERVED_SHAPES {
        let shape = pdm_loopir::parse::parse_loop_symbolic(src, &["K"]).unwrap();
        let t = plan_template(&shape).unwrap();
        for &k in ks {
            let inst = pdm_runtime::template::instantiate_compiled(&t, &[("K", k)]).unwrap();
            let [narrow, wide] = &pools;
            let served = || audit_compiled(&inst.compiled, inst.memory.layout()).unwrap();
            let v = narrow.install(served);
            assert_eq!(wide.install(served), v, "{src} K={k}: pool widths differ");
            assert_eq!(
                verdict_shape(&v),
                verdict_shape(&reference_audit(&inst.nest, &inst.plan)),
                "{src} K={k}"
            );
            kinds.insert(v.kind());
        }
    }
    assert_eq!(kinds.len(), 3, "verdict kinds seen: {kinds:?}");
}

/// Generated shapes where three or more groups touch one conflicting
/// cell (found by a seed sweep): every pair on such a cell that writes
/// must be directed, not only neighbouring touches, and a read pair
/// must not be, or the stages come out wrong.
#[test]
fn crowded_cells_audit_like_the_reference() {
    let (a, b) = (&REFERENCE_CFGS[3], &REFERENCE_CFGS[1]);
    for (seed, cfg, ks) in [
        (2_494_498, a, &[1, 3, 5, 7][..]),
        (21_262_528, a, &[1, 3, 5, 7]),
        (14_452_188, b, &[-3, -1, 1, 3]),
        (5_852_154, b, &[-5, -2]),
    ] {
        let t = plan_template(&random_inspector_nest(seed, cfg, &["K"]).unwrap()).unwrap();
        for &k in ks {
            let vals = [("K", k)];
            let (nest, plan) = (
                t.instantiate_nest(&vals).unwrap(),
                t.instantiate(&vals).unwrap(),
            );
            let v = audit(&nest, &plan).unwrap();
            assert_eq!(v.kind(), "refined", "seed {seed} K={k}");
            assert_eq!(
                verdict_shape(&v),
                verdict_shape(&reference_audit(&nest, &plan)),
                "seed {seed} K={k}"
            );
        }
    }
}

/// A rejection names the first interleave in ascending (cell, lower
/// group, higher group) order, whatever order the audit meets
/// conflicts in. The reasons were recorded from the counting-sort
/// refinement that preceded the dense kernel.
#[test]
fn rejection_reasons_name_the_first_interleave() {
    let cfg = |depth, coeff, offset, stmts, arrays| GenConfig {
        depth,
        extent: if depth == 3 { 3 } else { 4 },
        coeff,
        offset,
        stmts,
        arrays,
    };
    for (seed, cfg, k, reason) in [
        (
            981_969,
            cfg(2, 2, 3, 2, 2),
            -1,
            "groups 0 and 1 interleave conflicting touches of cell 74 of array A1",
        ),
        (
            688_966,
            cfg(2, 1, 1, 1, 1),
            2,
            "groups 2 and 4 interleave conflicting touches of cell 16 of array A0",
        ),
        (
            1_172_025,
            cfg(3, 2, 2, 2, 2),
            -4,
            "groups 1 and 3 interleave conflicting touches of cell 5243 of array A1",
        ),
    ] {
        let t = plan_template(&random_inspector_nest(seed, &cfg, &["K"]).unwrap()).unwrap();
        let vals = [("K", k)];
        let (nest, plan) = (
            t.instantiate_nest(&vals).unwrap(),
            t.instantiate(&vals).unwrap(),
        );
        let want = Verdict::Rejected {
            reason: reason.into(),
        };
        assert_eq!(audit(&nest, &plan).unwrap(), want, "seed {seed} K={k}");
    }
}

#[test]
fn index_box_past_i64_ranks_is_a_typed_overflow() {
    // 10⁵ values per level over four levels: 10²⁰ points have no i64
    // rank, while the arrays stay small.
    let src = "for i1 = 0..=99999 { for i2 = 0..=99999 { for i3 = 0..=99999 {
        for i4 = 0..=99999 { A[i1 + K] = A[i1] + 1; } } } }";
    let (nest, plan) = instance(src, 1);
    assert!(matches!(
        audit(&nest, &plan),
        Err(RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))
    ));
}

/// Walk every group of `plan` and check that each iteration comes
/// strictly after the previous one of its group in original lex order.
/// Returns how many iterations followed another in their group.
fn assert_groups_rise(plan: &ParallelPlan, what: &str) -> u64 {
    let walker = Walker::for_plan(plan);
    let mut successors = 0u64;
    let (mut gid, mut last) = (0, None::<Vec<i64>>);
    walker
        .walk_range(0..u64::MAX, &mut walker.new_scratch(), |step| {
            match step {
                Visit::Group { id, .. } => (gid, last) = (id, None),
                Visit::Iteration(sc) => {
                    if let Some(prev) = &last {
                        assert!(
                            prev.as_slice() < sc.idx.as_slice(),
                            "{what}: group {gid} walks {:?} after {prev:?}",
                            sc.idx
                        );
                        successors += 1;
                    }
                    last = Some(sc.idx.clone());
                }
            }
            Ok(())
        })
        .unwrap();
    successors
}

/// The audit leaves out an intra-group order check because every group
/// walk is lex-monotone in the original indices (the inspector module
/// docs give the argument; the audit only `debug_assert!`s it). This
/// pins the argument in release builds too: every group of the plans
/// `random_nest` and `random_inspector_nest` yield from the seed
/// streams of `PDM_PROPTEST_SEED` 1 and 2, and of the parity and
/// row-shift shapes at `K ∈ −3..=5`, walks in ascending original order.
#[test]
fn group_walks_rise_in_original_lex_order() {
    let mut plans = 0usize;
    let mut successors = 0u64;
    for base in [1u64, 2] {
        for case in 0..160u64 {
            let cfg = &REFERENCE_CFGS[(case % REFERENCE_CFGS.len() as u64) as usize];
            let seed = base.wrapping_add(2_000).wrapping_add(case);
            if let Some(plan) = random_nest(seed, cfg)
                .ok()
                .and_then(|n| parallelize(&n).ok())
            {
                successors += assert_groups_rise(&plan, &format!("random_nest {seed}"));
                plans += 1;
            }
            let Ok(shape) = random_inspector_nest(seed, cfg, &["K"]) else {
                continue;
            };
            let Ok(template) = plan_template(&shape) else {
                continue;
            };
            for k in [-3i64, 0, 1, 3, 5] {
                if let Ok(plan) = template.instantiate(&[("K", k)]) {
                    let what = format!("random_inspector_nest {seed} K={k}");
                    successors += assert_groups_rise(&plan, &what);
                    plans += 1;
                }
            }
        }
    }
    for src in [
        "for i = 0..=999 { A[i + K] = A[i - 2] + 1; }",
        "for i1 = 0..=3 { for i2 = 0..=63 { A[i1 + K, i2] = A[i1, i2] + 1; } }",
    ] {
        for k in -3i64..=5 {
            let (_, plan) = instance(src, k);
            successors += assert_groups_rise(&plan, &format!("{src} K={k}"));
            plans += 1;
        }
    }
    // Vacuity guard: groups of more than one iteration must be walked.
    assert!(plans >= 200, "only {plans} plans walked");
    assert!(
        successors >= 10_000,
        "only {successors} in-group successors"
    );
}
