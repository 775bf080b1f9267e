//! Property tests for the streaming group walk.
//!
//! The oracle is the *historical* materializing algorithm (the full
//! doall-prefix cross product, reimplemented here independently of the
//! library): on >100 random nests the groups a [`Walker::walk_range`]
//! enters — its group hook fires for every group, empty ones included
//! — must be exactly that sequence (same multiset, same lexicographic
//! prefix-major / offset-minor order), and a range that starts at `k`
//! must seek to where the walk from group 0 arrives after `k` groups.
//! The walks step the plan's lowered bounds, as every executor does,
//! while the oracle reads the Fourier–Motzkin `LoopBounds` directly.
//! `group_count` is pinned to the oracle's length on every nest, and
//! the pool-block split (`Walker::tasks`) is walked both in claim order,
//! where no range seeks, and in reverse, where every range seeks as a
//! helper's does.

//! The generator only emits rectangular nests, so the proptests below
//! exercise prefix-dependent counting and seeking rarely; the same
//! checks also run on fixed 2- and 3-level triangles, whose dependent
//! levels count as width × tail. The explicit tests at the bottom pin
//! the edge cases — triangular (prefix-dependent) bounds at `k = 0`,
//! `k = group_count − 1`, one past the end, and empty iteration spaces.
//! The last test drives a ≥ 10⁵-group space through every parallel
//! executor and checks each against its sequential interpreter.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::ops::Range;
use vardep_loops::core::parallelize;
use vardep_loops::loopir::generator::{random_nest, GenConfig};
use vardep_loops::loopir::parse::parse_loop_with;
use vardep_loops::prelude::*;
use vardep_loops::runtime::compile::PlanScratch;
use vardep_loops::runtime::exec;
use vardep_loops::runtime::schedule::Schedule;
use vardep_loops::runtime::{CompiledPlan, Visit, Walker};

/// One entered group: its id, prefix and offset index.
type Group = (u64, Vec<i64>, usize);

/// The pre-streaming enumeration, kept as an independent oracle: build
/// every prefix level by level, then cross with the offset table.
fn materialized_oracle(plan: &ParallelPlan) -> Vec<(Vec<i64>, usize)> {
    let z = plan.doall_count();
    let mut prefixes: Vec<Vec<i64>> = vec![Vec::new()];
    for k in 0..z {
        let mut next = Vec::new();
        for p in &prefixes {
            let (lo, hi) = plan.bounds().range(k, p).unwrap();
            for v in lo..=hi {
                let mut q = p.clone();
                q.push(v);
                next.push(q);
            }
        }
        prefixes = next;
    }
    let num_offsets = plan.partition().map_or(1, |p| p.offsets().len());
    let mut out = Vec::with_capacity(prefixes.len() * num_offsets);
    for p in prefixes {
        for o in 0..num_offsets {
            out.push((p.clone(), o));
        }
    }
    out
}

fn plan_for_seed(seed: u64) -> ParallelPlan {
    let cfg = GenConfig {
        depth: 1 + (seed as usize % 3),
        extent: 4 + (seed as i64 % 5),
        stmts: 1 + (seed as usize % 2),
        arrays: 1 + (seed as usize % 2),
        ..GenConfig::default()
    };
    let nest = random_nest(seed, &cfg).expect("generator");
    parallelize(&nest).expect("plan")
}

/// The groups a walk of `groups` on `s` enters, in order.
fn entered(walker: &Walker, groups: Range<u64>, s: &mut PlanScratch) -> Vec<Group> {
    let mut out = Vec::new();
    walker
        .walk_range(groups, s, |step| {
            if let Visit::Group { id, prefix, offset } = step {
                out.push((id, prefix.to_vec(), offset));
            }
            Ok(())
        })
        .unwrap();
    out
}

/// Every group of the plan, walked from group 0 on a fresh scratch.
fn walk_sequence(plan: &ParallelPlan) -> Vec<Group> {
    let walker = Walker::for_plan(plan);
    entered(&walker, 0..u64::MAX, &mut walker.new_scratch())
}

/// Walk sequence == materialized cross product, order included, group
/// ids running `0, 1, …`, and `group_count` agrees with it without
/// enumerating.
fn check_against_oracle(plan: &ParallelPlan) -> Result<(), TestCaseError> {
    let oracle = materialized_oracle(plan);
    let walked = walk_sequence(plan);
    for (k, (id, _, _)) in walked.iter().enumerate() {
        prop_assert_eq!(*id, k as u64, "group ids must run in walk order");
    }
    let streamed: Vec<(Vec<i64>, usize)> = walked.into_iter().map(|(_, p, o)| (p, o)).collect();
    prop_assert_eq!(&streamed, &oracle, "walk diverged from oracle");
    // Prefixes must be lexicographically non-decreasing (offset-minor
    // within equal prefixes).
    for w in streamed.windows(2) {
        prop_assert!(
            w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
            "order violation: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    prop_assert_eq!(exec::group_count(plan).unwrap(), oracle.len() as u64);
    Ok(())
}

/// A range starting at `k` seeks to where the walk from group 0 arrives
/// after `k` groups, and walks on correctly, at the boundaries and a few
/// positions `salt` picks.
fn check_seek(plan: &ParallelPlan, salt: u64) -> Result<(), TestCaseError> {
    let walker = Walker::for_plan(plan);
    let all = walk_sequence(plan);
    let total = all.len() as u64;
    let mut picks = vec![0u64, total / 2, total.saturating_sub(1)];
    for i in 0..4u64 {
        if total > 0 {
            picks.push(
                (salt
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i * 1442695040888963407))
                    % total,
            );
        }
    }
    for &k in &picks {
        if k >= total {
            continue;
        }
        // The walk must continue correctly after a seek.
        let got = entered(&walker, k..k + 2, &mut walker.new_scratch());
        let want = &all[k as usize..(k as usize + 2).min(all.len())];
        prop_assert_eq!(&got[..], want, "seek({}) mismatch", k);
    }
    // Seeking past the end enters nothing and leaves the scratch at no
    // group.
    let mut s = walker.new_scratch();
    prop_assert!(entered(&walker, total..total + 1, &mut s).is_empty());
    prop_assert_eq!(s.position(), None);
    Ok(())
}

/// The pool-block split at 1..=4 threads: contiguous, non-empty ranges,
/// at most one per block, covering the space. One reused scratch walks
/// them in claim order, where its walk already stopped at every next
/// start (no seek), and in reverse, where every range seeks as a
/// helper's does; both walks concatenate, by position, to the walk
/// sequence.
fn check_split(plan: &ParallelPlan) -> Result<(), TestCaseError> {
    let walker = Walker::for_plan(plan);
    let all = walk_sequence(plan);
    for threads in 1..=4 {
        let tasks = walker.tasks(threads).unwrap();
        prop_assert!(tasks.len() <= threads * rayon::BLOCKS_PER_WORKER);
        let mut next_start = 0u64;
        for task in &tasks {
            prop_assert_eq!(task.start, next_start);
            prop_assert!(task.start < task.end);
            next_start = task.end;
        }
        prop_assert_eq!(next_start, all.len() as u64, "tasks must cover the space");

        let mut s = walker.new_scratch();
        let mut in_order = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            if i > 0 {
                prop_assert_eq!(
                    s.position(),
                    Some(task.start),
                    "in-order claim at {} would seek",
                    task.start
                );
            }
            in_order.extend(entered(&walker, task.clone(), &mut s));
        }
        prop_assert_eq!(
            &in_order,
            &all,
            "in-order walk diverged at {} threads",
            threads
        );

        let mut s = walker.new_scratch();
        let mut reversed = Vec::new();
        for task in tasks.iter().rev() {
            prop_assert_ne!(s.position(), Some(task.start), "a reversed claim must seek");
            reversed.push(entered(&walker, task.clone(), &mut s));
        }
        let reversed: Vec<_> = reversed.into_iter().rev().flatten().collect();
        prop_assert_eq!(
            &reversed,
            &all,
            "seeking walk diverged at {} threads",
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(130))]

    /// Walk sequence == materialized cross product, order included.
    #[test]
    fn walk_matches_materialized_oracle(seed in 0u64..1_000_000) {
        check_against_oracle(&plan_for_seed(seed))?;
    }

    /// A range starting at `k` lands where `k` groups from the start land.
    #[test]
    fn seek_agrees_with_nth(seed in 0u64..1_000_000) {
        check_seek(&plan_for_seed(seed), seed)?;
    }

    /// The pool-block split, claimed in order and in reverse.
    #[test]
    fn planned_tasks_agree_with_seek(seed in 0u64..1_000_000) {
        check_split(&plan_for_seed(seed))?;
    }
}

/// All-doall triangles whose inner levels read outer indices: the
/// 2-level one at 299 (45,150 groups) and the 3-level one at 63
/// (45,760 groups). Each dependent level has only independent levels
/// below it, so it counts and seeks as width × tail.
fn dependent_triangles() -> Vec<ParallelPlan> {
    [
        (
            "for i = 0..=299 { for j = 0..=i { A[i, j] = A[i, j] + j; } }",
            2,
            45_150,
        ),
        (
            "for i = 0..=63 { for j = 0..=i { for k = 0..=j { A[i, j, k] = A[i, j, k] + k; } } }",
            3,
            45_760,
        ),
    ]
    .into_iter()
    .map(|(src, z, groups)| {
        let plan = parallelize(&parse_loop_with(src, &[]).unwrap()).unwrap();
        assert_eq!(plan.doall_count(), z, "{src}");
        assert_eq!(exec::group_count(&plan).unwrap(), groups, "{src}");
        plan
    })
    .collect()
}

/// The oracle, seek and split checks on the dependent triangles.
#[test]
fn dependent_triangles_count_seek_and_split() {
    for (i, plan) in dependent_triangles().iter().enumerate() {
        check_against_oracle(plan).unwrap();
        check_seek(plan, 7 + i as u64).unwrap();
        check_split(plan).unwrap();
    }
}

/// A fully-parallel triangular nest: `z == depth`, prefix-dependent
/// inner bound, one offset.
fn triangular_plan(n: i64) -> ParallelPlan {
    let nest = parse_loop_with(
        "for i = 0..=N { for j = 0..=i { A[i, j] = i + j; } }",
        &[("N", n)],
    )
    .unwrap();
    let plan = parallelize(&nest).unwrap();
    assert_eq!(plan.doall_count(), 2, "triangle must be all-doall");
    plan
}

/// The groups a fresh scratch enters walking `groups`, and where the
/// walk stopped.
fn seek_walk(plan: &ParallelPlan, groups: Range<u64>) -> (Vec<Group>, Option<u64>) {
    let walker = Walker::for_plan(plan);
    let mut s = walker.new_scratch();
    let got = entered(&walker, groups, &mut s);
    (got, s.position())
}

/// Seek edge positions on prefix-dependent (triangular) bounds: first
/// group, last group, one past the end, and far past the end — the
/// positions the generator-driven proptest never pins by hand.
#[test]
fn seek_edges_on_triangular_bounds() {
    let plan = triangular_plan(8);
    let total = exec::group_count(&plan).unwrap();
    assert_eq!(total, 45, "1 + 2 + … + 9 prefixes");

    // k = 0: the first group, where a walk from the start begins.
    let (got, at) = seek_walk(&plan, 0..1);
    assert_eq!(got, vec![(0, vec![0, 0], 0)]);
    assert_eq!(at, Some(1));

    // k = group_count − 1: the last group; the walk runs past the end.
    let (got, at) = seek_walk(&plan, total - 1..total + 5);
    assert_eq!(got, vec![(total - 1, vec![8, 8], 0)]);
    assert_eq!(at, None);

    // k = group_count: one past the end enters nothing, without panicking.
    assert_eq!(seek_walk(&plan, total..total + 1), (vec![], None));

    // Far past the end behaves the same.
    assert_eq!(
        seek_walk(&plan, total + 1_000..total + 1_001),
        (vec![], None)
    );
}

/// The same edges with a non-trivial offset table crossed in (offset
/// indices decompose `k` as `prefix_ordinal × num_offsets + offset`):
/// a doall triangle over a recurrence of distance 3, three offsets.
#[test]
fn seek_edges_on_triangular_bounds_with_offsets() {
    let nest = parse_loop_with(
        "for i = 0..=6 { for j = 0..=i { for k = 0..=5 {
           A[i, j, k] = A[i, j, k - 3] + 1;
         } } }",
        &[],
    )
    .unwrap();
    let plan = parallelize(&nest).unwrap();
    assert_eq!(plan.doall_count(), 2);
    let noff = 3usize;
    assert_eq!(plan.partition_count(), noff as i64);
    let total = exec::group_count(&plan).unwrap();
    assert_eq!(total, 28 * 3);

    let (got, _) = seek_walk(&plan, 0..1);
    assert_eq!(got, vec![(0, vec![0, 0], 0)]);

    let (got, at) = seek_walk(&plan, total - 1..total);
    assert_eq!(got, vec![(total - 1, vec![6, 6], noff - 1)]);
    assert_eq!(at, None, "the last group leaves the scratch at no group");

    assert_eq!(seek_walk(&plan, total..total + 1), (vec![], None));
}

/// Empty iteration spaces: zero groups, a walk that enters none, and a
/// range at every start, 0 included, that enters none either.
#[test]
fn empty_iteration_space_nests() {
    for (src, n) in [
        // Outer range empty.
        ("for i = 0..N { A[i] = i; }", 0i64),
        ("for i = 0..N { A[i] = i; }", -4),
        // Outer nonempty, *every* inner triangular range empty.
        ("for i = 2..N { for j = i..=1 { A[i, j] = 1; } }", 5),
    ] {
        let nest = parse_loop_with(src, &[("N", n)]).unwrap();
        let plan = parallelize(&nest).unwrap();
        let total = exec::group_count(&plan).unwrap();
        assert_eq!(total, 0, "{src} N={n}");
        assert!(walk_sequence(&plan).is_empty(), "{src} N={n}");
        for k in [0u64, 1, 7] {
            assert_eq!(
                seek_walk(&plan, k..k + 1),
                (vec![], None),
                "{src} N={n} seek({k})"
            );
        }
        // And the executor agrees there is nothing to do.
        let mem = Memory::for_nest(&nest).unwrap();
        let compiled = CompiledPlan::compile(&nest, &plan, &mem).unwrap();
        assert_eq!(compiled.run_parallel(&mem).unwrap(), 0);
    }
}

/// Every surviving parallel executor streams a ≥ 10⁵-group space through
/// the one stage driver and lands bit-identical to its sequential
/// interpreter: plain compiled and race-checked runs of a depth-4
/// all-doall nest, compiled and checked staged runs of a multi-kernel
/// program across a barrier, and the refined stage list of a row-shift
/// nest.
#[test]
fn every_executor_streams_a_large_group_space() {
    use vardep_loops::core::{parallelize_program, plan_template};
    use vardep_loops::loopir::parse::{parse_imperfect, parse_loop, parse_loop_symbolic};
    use vardep_loops::runtime::{checked, inspector, CompiledProgram, Verdict};

    // 18^4 = 104 976 groups, every level doall.
    let nest = parse_loop(
        "for a = 0..=17 { for b = 0..=17 { for c = 0..=17 { for d = 0..=17 {
           A[a, b, c, d] = a + 2*b + 3*c + d;
         } } } }",
    )
    .unwrap();
    let plan = parallelize(&nest).unwrap();
    assert_eq!(plan.doall_count(), 4, "nest must be fully parallel");
    let total = exec::group_count(&plan).unwrap();
    assert_eq!(total, 18u64.pow(4));

    let fresh = || {
        let mut m = Memory::for_nest(&nest).unwrap();
        m.init_deterministic(7);
        m
    };
    let reference = fresh();
    run_sequential(&nest, &reference).unwrap();

    let mem = fresh();
    let cp = CompiledPlan::compile(&nest, &plan, &mem).unwrap();
    assert_eq!(cp.run_parallel(&mem).unwrap(), total);
    assert_eq!(
        mem.snapshot(),
        reference.snapshot(),
        "compiled parallel diverged"
    );

    let mem = fresh();
    assert_eq!(
        checked::run_parallel_checked(&nest, &plan, &mem).unwrap(),
        total
    );
    assert_eq!(
        mem.snapshot(),
        reference.snapshot(),
        "checked parallel diverged"
    );

    // A multi-kernel program: every stage drains before the next starts.
    let imp = parse_imperfect(
        "for a = 0..=17 {
           B[a, 0, 0, 0] = a;
           for b = 0..=17 { for c = 0..=17 { for d = 0..=17 {
             A[a, b, c, d] = B[a, 0, 0, 0] + 2*b + 3*c + d;
           } } }
         }",
    )
    .unwrap();
    let pp = parallelize_program(&imp).unwrap();
    assert!(pp.kernel_count() >= 2, "program must be multi-kernel");
    assert!(pp.barrier_count() >= 1, "program must cross a barrier");
    let pfresh = || {
        let mut m = Memory::for_imperfect(&imp).unwrap();
        m.init_deterministic(11);
        m
    };
    let preference = pfresh();
    vardep_loops::runtime::run_program_sequential(&pp, &preference).unwrap();

    let pmem = pfresh();
    CompiledProgram::compile(&pp, &pmem)
        .unwrap()
        .run_parallel(&pmem)
        .unwrap();
    assert_eq!(
        pmem.snapshot(),
        preference.snapshot(),
        "compiled staged diverged"
    );

    let pmem = pfresh();
    checked::run_program_parallel_checked(&pp, &pmem).unwrap();
    assert_eq!(
        pmem.snapshot(),
        preference.snapshot(),
        "checked staged diverged"
    );

    // A parametric row-shift nest audits to Refined (18 stages × 18
    // groups); the compiled stage driver runs the stage list.
    let template = plan_template(
        &parse_loop_symbolic(
            "for i1 = 0..=17 { for i2 = 0..=17 {
               A[i1 + K, i2] = A[i1, i2] + 1;
             } }",
            &["K"],
        )
        .unwrap(),
    )
    .unwrap();
    let vals = [("K", 1i64)];
    let rplan = template.instantiate(&vals).unwrap();
    let rnest = template.instantiate_nest(&vals).unwrap();
    let stages = match inspector::audit(&rnest, &rplan).unwrap() {
        Verdict::Refined { stages } => stages,
        other => panic!("row-shift nest must refine, got {other:?}"),
    };
    let rfresh = || {
        let mut m = Memory::for_nest(&rnest).unwrap();
        m.init_deterministic(3);
        m
    };
    let rreference = rfresh();
    run_sequential(&rnest, &rreference).unwrap();
    let rmem = rfresh();
    let rcp = CompiledPlan::compile(&rnest, &rplan, &rmem).unwrap();
    let count = inspector::run_refined_compiled(&rcp, &rmem, &stages, Schedule).unwrap();
    assert_eq!(count, 18 * 18);
    assert_eq!(
        rmem.snapshot(),
        rreference.snapshot(),
        "refined run diverged"
    );
}
