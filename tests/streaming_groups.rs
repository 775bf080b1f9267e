//! Property tests for the streaming group enumerator.
//!
//! The oracle is the *historical* materializing algorithm (the full
//! doall-prefix cross product, reimplemented here independently of the
//! library): on >100 random nests the [`GroupCursor`] must yield exactly
//! the same sequence — same multiset, same lexicographic prefix-major /
//! offset-minor order — and `seek(k)` must agree with `k` advances from
//! the start. The cursors walk the plan's lowered [`CompiledBounds`], as
//! every executor does, while the oracle reads the Fourier–Motzkin
//! `LoopBounds` directly. `group_count` is pinned to the oracle's length
//! on every nest, and the pool-block split (`Walker::tasks`) is walked
//! both in claim order and in reverse, a helper's seeking path.

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
use vardep_loops::core::parallelize;
use vardep_loops::loopir::generator::{random_nest, GenConfig};
use vardep_loops::loopir::parse::parse_loop_with;
use vardep_loops::prelude::*;
use vardep_loops::runtime::compile::CompiledBounds;
use vardep_loops::runtime::exec;
use vardep_loops::runtime::schedule::{group_count, GroupCursor, Schedule};
use vardep_loops::runtime::{CompiledPlan, Walker};

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

/// The bounds every executor walks: the plan's, lowered.
fn lowered(plan: &ParallelPlan) -> CompiledBounds {
    CompiledBounds::compile(plan.bounds())
}

fn cursor_sequence(plan: &ParallelPlan) -> Vec<(Vec<i64>, usize)> {
    let num_offsets = plan.partition().map_or(1, |p| p.offsets().len());
    let bounds = lowered(plan);
    let mut cur = GroupCursor::new(&bounds, plan.doall_count(), num_offsets).unwrap();
    let mut out = Vec::new();
    while let Some((prefix, o)) = cur.current() {
        out.push((prefix.to_vec(), o));
        if !cur.advance().unwrap() {
            break;
        }
    }
    out
}

/// Cursor sequence == materialized cross product, order included, and
/// `group_count` agrees with it without enumerating.
fn check_against_oracle(plan: &ParallelPlan) -> Result<(), TestCaseError> {
    let oracle = materialized_oracle(plan);
    let streamed = cursor_sequence(plan);
    prop_assert_eq!(&streamed, &oracle, "cursor diverged from oracle");
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

/// `seek(k)` lands exactly where `k` advances from the start land, at
/// the boundaries and a few positions `salt` picks.
fn check_seek(plan: &ParallelPlan, salt: u64) -> Result<(), TestCaseError> {
    let num_offsets = plan.partition().map_or(1, |p| p.offsets().len());
    let z = plan.doall_count();
    let bounds = lowered(plan);
    let all = cursor_sequence(plan);
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
        let mut cur = GroupCursor::new(&bounds, z, num_offsets).unwrap();
        prop_assert!(cur.seek(k).unwrap(), "seek({k}) of {total} failed");
        let (p, o) = cur.current().unwrap();
        prop_assert_eq!(
            (p.to_vec(), o),
            all[k as usize].clone(),
            "seek({}) mismatch",
            k
        );
        prop_assert_eq!(cur.position(), k);
        // The cursor must continue correctly after a seek.
        if cur.advance().unwrap() {
            let (p, o) = cur.current().unwrap();
            prop_assert_eq!((p.to_vec(), o), all[k as usize + 1].clone());
        } else {
            prop_assert_eq!(k + 1, total, "premature exhaustion after seek({})", k);
        }
    }
    // Seeking past the end exhausts cleanly.
    let mut cur = GroupCursor::new(&bounds, z, num_offsets).unwrap();
    prop_assert!(!cur.seek(total).unwrap());
    prop_assert!(cur.current().is_none());
    Ok(())
}

/// The pool-block split at 1..=4 threads: contiguous, non-empty tasks,
/// at most one per block, covering the space. One reused cursor walks
/// them in claim order, where it already sits at every next start (no
/// seek), and in reverse, where every task seeks as a helper does; both
/// walks concatenate, by position, to the cursor sequence.
fn check_split(plan: &ParallelPlan) -> Result<(), TestCaseError> {
    let walker = Walker::for_plan(plan);
    let all: Vec<(u64, Vec<i64>, usize)> = cursor_sequence(plan)
        .into_iter()
        .enumerate()
        .map(|(i, (p, o))| (i as u64, p, o))
        .collect();
    for threads in 1..=4 {
        let tasks = walker.tasks(threads).unwrap();
        prop_assert!(tasks.len() <= threads * rayon::BLOCKS_PER_WORKER);
        let mut next_start = 0u64;
        for task in &tasks {
            prop_assert_eq!(task.start(), next_start);
            prop_assert!(task.start() < task.end());
            next_start = task.end();
        }
        prop_assert_eq!(next_start, all.len() as u64, "tasks must cover the space");

        let mut cursor = walker.cursor();
        let mut in_order = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            if i > 0 {
                prop_assert!(
                    !cursor.is_exhausted() && cursor.position() == task.start(),
                    "in-order claim at {} would seek",
                    task.start()
                );
            }
            task.for_each(&mut cursor, |gid, prefix, off| {
                in_order.push((gid, prefix.to_vec(), off));
                Ok(())
            })
            .unwrap();
        }
        prop_assert_eq!(
            &in_order,
            &all,
            "in-order walk diverged at {} threads",
            threads
        );

        let mut cursor = walker.cursor();
        let mut reversed = Vec::new();
        for task in tasks.iter().rev() {
            let mut walked = Vec::new();
            task.for_each(&mut cursor, |gid, prefix, off| {
                walked.push((gid, prefix.to_vec(), off));
                Ok(())
            })
            .unwrap();
            reversed.push(walked);
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

    /// Cursor sequence == materialized cross product, order included.
    #[test]
    fn cursor_matches_materialized_oracle(seed in 0u64..1_000_000) {
        check_against_oracle(&plan_for_seed(seed))?;
    }

    /// `seek(k)` lands exactly where `k` advances from the start land.
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

/// `seek(k)` edge positions on prefix-dependent (triangular) bounds:
/// first group, last group, one past the end, and far past the end —
/// the positions the generator-driven proptest never pins by hand.
#[test]
fn seek_edges_on_triangular_bounds() {
    let plan = triangular_plan(8);
    let z = plan.doall_count();
    let bounds = lowered(&plan);
    let total = group_count(&bounds, z, 1).unwrap();
    assert_eq!(total, 45, "1 + 2 + … + 9 prefixes");

    // k = 0: the first group, identical to a fresh cursor.
    let mut cur = GroupCursor::new(&bounds, z, 1).unwrap();
    assert!(cur.seek(0).unwrap());
    assert_eq!(cur.current().unwrap(), (&[0i64, 0][..], 0));
    assert_eq!(cur.position(), 0);

    // k = group_count − 1: the last group; advancing exhausts.
    let mut cur = GroupCursor::new(&bounds, z, 1).unwrap();
    assert!(cur.seek(total - 1).unwrap());
    assert_eq!(cur.current().unwrap(), (&[8i64, 8][..], 0));
    assert!(!cur.advance().unwrap());
    assert!(cur.is_exhausted());

    // k = group_count: one past the end exhausts without panicking.
    let mut cur = GroupCursor::new(&bounds, z, 1).unwrap();
    assert!(!cur.seek(total).unwrap());
    assert!(cur.current().is_none());

    // Far past the end behaves the same.
    let mut cur = GroupCursor::new(&bounds, z, 1).unwrap();
    assert!(!cur.seek(total + 1_000).unwrap());
    assert!(cur.current().is_none());
}

/// The same edges with a non-trivial offset table crossed in (offset
/// indices decompose `k` as `prefix_ordinal × num_offsets + offset`).
#[test]
fn seek_edges_on_triangular_bounds_with_offsets() {
    let plan = triangular_plan(6);
    let z = plan.doall_count();
    let noff = 3usize;
    let bounds = lowered(&plan);
    let total = group_count(&bounds, z, noff).unwrap();
    assert_eq!(total, 28 * 3);

    let mut cur = GroupCursor::new(&bounds, z, noff).unwrap();
    assert!(cur.seek(0).unwrap());
    assert_eq!(cur.current().unwrap(), (&[0i64, 0][..], 0));

    let mut cur = GroupCursor::new(&bounds, z, noff).unwrap();
    assert!(cur.seek(total - 1).unwrap());
    assert_eq!(cur.current().unwrap(), (&[6i64, 6][..], noff - 1));
    assert!(!cur.advance().unwrap());

    let mut cur = GroupCursor::new(&bounds, z, noff).unwrap();
    assert!(!cur.seek(total).unwrap());
    assert!(cur.current().is_none());
}

/// Empty iteration spaces: zero groups, an immediately-exhausted
/// cursor, and `seek` returning `false` at every position including 0.
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
        let noff = plan.partition().map_or(1, |p| p.offsets().len());
        let z = plan.doall_count();
        let bounds = lowered(&plan);
        let total = group_count(&bounds, z, noff).unwrap();
        assert_eq!(total, 0, "{src} N={n}");
        let mut cur = GroupCursor::new(&bounds, z, noff).unwrap();
        assert!(cur.current().is_none(), "{src} N={n}");
        assert!(!cur.advance().unwrap());
        for k in [0u64, 1, 7] {
            let mut cur = GroupCursor::new(&bounds, z, noff).unwrap();
            assert!(!cur.seek(k).unwrap(), "{src} N={n} seek({k})");
            assert!(cur.is_exhausted());
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
