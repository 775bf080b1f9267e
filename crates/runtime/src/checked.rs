//! Group-conflict race checking (failure injection harness).
//!
//! The parallel executor's soundness rests on the analysis' claim that
//! distinct groups never touch conflicting cells. This module *verifies*
//! the claim at runtime: the compiled walker executes every group with
//! a logging visitor that records each access the bytecode performs
//! (the cell id of [`Memory`]'s one buffer, read off the
//! strength-reduced offsets, and the kind; guarded-off statements touch
//! nothing), then cross-group conflicts with at least one write are
//! reported, naming the array and its in-array flat cell. Running a
//! deliberately wrong plan through this checker must — and does, see
//! the tests — detect the race.
//!
//! Both checkers run each stage's tasks concurrently on the current
//! pool, exactly as the unchecked executors do, and scan the logs at the
//! stage barrier. A wrong plan's racing writes really race before they
//! are reported, on [`Memory`]'s atomic cells: they leave wrong values,
//! never undefined behaviour. The logged cells follow from the indices
//! alone and guards read only indices, so the reported conflicts do not
//! depend on the thread schedule or the pool width.

use crate::compile::{CompiledPlan, PlanScratch, Visit};
use crate::memory::{self, Memory};
use crate::schedule;
use crate::staged::CompiledProgram;
use crate::{Result, RuntimeError};
use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;
use std::ops::Range;

/// Per-group access logs of one group range, keyed by global group id:
/// `(cell, write)` per access, as [`detect_conflicts`] scans them.
type GroupLogs = Vec<(u64, Vec<(usize, bool)>)>;

/// Execute one group range through the compiled walker with a logging
/// visitor and a worker's reused scratch. Returns the range's iteration
/// count and one log per group, in walk order.
fn log_range(
    cp: &CompiledPlan,
    mem: &Memory,
    groups: Range<u64>,
    s: &mut PlanScratch,
) -> Result<(u64, GroupLogs)> {
    let mut logs: GroupLogs = Vec::new();
    let count = cp.walker().walk_range(groups, s, |step| match step {
        Visit::Group { id, .. } => {
            logs.push((id, Vec::new()));
            Ok(())
        }
        Visit::Iteration(sc) => {
            let log = &mut logs.last_mut().expect("a group was entered").1;
            cp.program()
                .exec_traced(mem, sc, |cell, write| log.push((cell, write)))
        }
    })?;
    Ok((count, logs))
}

/// Execute the plan in parallel while logging accesses per group; after
/// the run, detect cross-group conflicts. Groups are streamed in
/// contiguous index ranges, one per pool block
/// ([`crate::compile::Walker::tasks`]), on the vendored pool — the
/// group list is never materialized, only the access logs are.
///
/// Returns the number of iterations executed, or
/// [`RuntimeError::RaceDetected`].
pub fn run_parallel_checked(nest: &LoopNest, plan: &ParallelPlan, mem: &Memory) -> Result<u64> {
    let cp = CompiledPlan::compile(nest, plan, mem)?;
    let layout = mem.layout();
    let tasks = cp.walker().tasks(rayon::current_num_threads())?;
    let mut total = 0u64;
    let mut logs: GroupLogs = Vec::new();
    schedule::run_stages(
        std::slice::from_ref(&tasks),
        || cp.new_scratch(),
        |s, task| log_range(&cp, mem, task.clone(), s),
        |_, results| {
            for (count, task_logs) in results {
                total += count;
                logs.extend(task_logs);
            }
            Ok(())
        },
    )?;

    // Cross-group conflict detection (keyed by global group index).
    race_free(layout.cells(), logs, |g0, g1, cell| {
        let (array, flat) = layout.locate(cell);
        format!("array {array} cell {flat} touched by groups {g0} and {g1}")
    })?;
    Ok(total)
}

/// First-toucher conflict scan over the access logs of one concurrency
/// domain: two distinct `unit`s touching a common cell with at least one
/// write conflict. Cells are ids of one [`Layout`](crate::memory::Layout)
/// below `cells`, so the owner of each cell lives in one zeroed table
/// indexed by id — no hashing. The single implementation
/// behind both checkers — [`run_parallel_checked`] keys units by global
/// group id, [`run_program_parallel_checked`] by `(kernel, group)` — so
/// the subtle first-owner/wrote-flag merge rule lives in exactly one
/// place. It is also the **certifier** of the speculative inspector
/// ([`crate::inspector::audit`]), which feeds it one `(cell, wrote)`
/// summary per touched cell and group instead of execution traces, and
/// refines only the cells it hears of. `conflict(first_owner, unit,
/// cell)` hears of every conflict in scan order, so every cell two
/// units touch with a write is named at least once. Returns the
/// conflict count.
pub(crate) fn detect_conflicts<K, L>(
    cells: usize,
    logs: impl IntoIterator<Item = (K, L)>,
    mut conflict: impl FnMut(K, K, usize),
) -> Result<usize>
where
    K: Copy + PartialEq,
    L: IntoIterator<Item = (usize, bool)>,
{
    // owner[cell]: 0 while untouched, else (unit ordinal + 1) << 1 | wrote.
    let mut owner: Vec<u64> = memory::zeroed(cells, || "conflict owner table".into())?;
    let mut units: Vec<K> = Vec::new();
    let mut conflicts = 0usize;
    for (unit, log) in logs {
        units.push(unit);
        let me = (units.len() as u64) << 1;
        for (cell, write) in log {
            let o = owner[cell];
            if o == 0 {
                owner[cell] = me | u64::from(write);
                continue;
            }
            let (first, wrote) = (units[(o >> 1) as usize - 1], o & 1 == 1);
            if first != unit && (write || wrote) {
                conflicts += 1;
                conflict(first, unit, cell);
            } else {
                owner[cell] = o | u64::from(write);
            }
        }
    }
    Ok(conflicts)
}

/// [`detect_conflicts`] as the checkers report it: a conflict is
/// [`RuntimeError::RaceDetected`], with the count and the first
/// conflict worded by `describe(first_owner, unit, cell)`.
fn race_free<K, L>(
    cells: usize,
    logs: impl IntoIterator<Item = (K, L)>,
    describe: impl Fn(K, K, usize) -> String,
) -> Result<()>
where
    K: Copy + PartialEq,
    L: IntoIterator<Item = (usize, bool)>,
{
    let mut sample = None;
    let conflicts = detect_conflicts(cells, logs, |first, unit, cell| {
        sample.get_or_insert_with(|| describe(first, unit, cell));
    })?;
    match sample {
        Some(sample) => Err(RuntimeError::RaceDetected { conflicts, sample }),
        None => Ok(()),
    }
}

/// Execute a multi-kernel [`pdm_core::program::ProgramPlan`] stage by
/// stage while logging every access per **(kernel, group)** unit, then
/// detect conflicts *within* each stage at its barrier — two distinct
/// units of the same stage touching one cell with at least one write is
/// a race (units of one stage run concurrently; cross-stage conflicts
/// are exactly what the DAG barriers order, so they are legal).
///
/// Race reports name the kernel index **alongside** the global group id
/// (`kernel 1 group 3 and kernel 2 group 0 in stage 1`): with
/// multi-kernel plans a bare group id is ambiguous — every kernel has a
/// group 0.
///
/// Returns the summed kernel iteration count, or
/// [`RuntimeError::RaceDetected`] for the first racing stage.
pub fn run_program_parallel_checked(
    pp: &pdm_core::program::ProgramPlan,
    mem: &Memory,
) -> Result<u64> {
    let program = CompiledProgram::compile(pp, mem)?;
    let layout = mem.layout();
    let stages = program.stage_tasks(rayon::current_num_threads())?;
    let mut total = 0u64;
    schedule::run_stages(
        &stages,
        || program.new_scratches(),
        |scratches, (k, task)| {
            let logged = log_range(
                &program.kernels()[*k],
                mem,
                task.clone(),
                &mut scratches[*k],
            );
            Ok((*k, logged?))
        },
        |si, results| {
            let mut units: Vec<((usize, u64), Vec<(usize, bool)>)> = Vec::new();
            for (k, (count, logs)) in results {
                total += count;
                units.extend(logs.into_iter().map(|(gid, log)| ((k, gid), log)));
            }
            race_free(layout.cells(), units, |(k0, g0), (k1, g1), cell| {
                let (array, flat) = layout.locate(cell);
                format!(
                    "array {array} cell {flat} touched by kernel {k0} group {g0} \
                     and kernel {k1} group {g1} in stage {si}"
                )
            })
        },
    )?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::parallelize;
    use pdm_loopir::parse::parse_loop;

    #[test]
    fn correct_plans_pass_the_checker() {
        for src in [
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
             } }",
            "for i1 = 0..=9 { for i2 = 0..=9 {
               A[i1, 3*i2 + 2] = B[i1, i2] + 1;
               B[3*i1 + 2, i1 + i2 + 1] = A[i1, i2] + 2;
             } }",
            "for i = 0..=50 { A[i] = i; }",
            "for i1 = 1..=9 { for i2 = 0..=9 { A[i1, i2] = A[i1 - 1, i2] + 1; } }",
        ] {
            let nest = parse_loop(src).unwrap();
            let plan = parallelize(&nest).unwrap();
            let mem = Memory::for_nest(&nest).unwrap();
            run_parallel_checked(&nest, &plan, &mem).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn injected_wrong_plan_is_caught() {
        // The dependent nest; the plan of a dependence-free twin claims
        // full parallelism -> the checker must see cross-group conflicts.
        let dependent = parse_loop("for i = 1..=20 { A[i] = A[i - 1] + 1; }").unwrap();
        let independent = parse_loop("for i = 1..=20 { A[i] = i; }").unwrap();
        let wrong = parallelize(&independent).unwrap();
        let mem = Memory::for_nest(&dependent).unwrap();
        let err = run_parallel_checked(&dependent, &wrong, &mem);
        assert!(
            matches!(err, Err(RuntimeError::RaceDetected { .. })),
            "expected race, got {err:?}"
        );
    }

    #[test]
    fn wrong_plan_on_a_wide_pool_races_without_undefined_behaviour() {
        // The nest and plan of `injected_wrong_plan_is_caught`, sized so
        // the region outlives `rayon::SPAWN_AFTER` and goes wide: the
        // wrong plan's writes really race on two threads. The checker
        // reports the race; the unchecked executor finishes every
        // iteration, with whatever values the race left in the cells.
        const N: u64 = 1 << 17;
        let dependent = parse_loop(&format!("for i = 1..={N} {{ A[i] = A[i - 1] + 1; }}")).unwrap();
        let independent = parse_loop(&format!("for i = 1..={N} {{ A[i] = i; }}")).unwrap();
        let wrong = parallelize(&independent).unwrap();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        pool.install(|| {
            let mem = Memory::for_nest(&dependent).unwrap();
            let (err, tally) =
                rayon::tally_regions(|| run_parallel_checked(&dependent, &wrong, &mem));
            assert!(
                matches!(err, Err(RuntimeError::RaceDetected { .. })),
                "expected race, got {err:?}"
            );
            assert_eq!(tally.threads, 2, "the checked region went wide");

            let mem = Memory::for_nest(&dependent).unwrap();
            let cp = CompiledPlan::compile(&dependent, &wrong, &mem).unwrap();
            let (ran, tally) = rayon::tally_regions(|| cp.run_parallel(&mem));
            assert_eq!(ran.unwrap(), N);
            assert_eq!(tally.threads, 2, "the unchecked region went wide");
        });
    }

    #[test]
    fn guarded_off_statements_touch_nothing() {
        // The guard-free twin writes A[i] at both j, so its plan runs the
        // i rows as independent groups. Paired with a chain whose guard
        // never holds, that plan is sound: the logging visitor and the
        // audit must both see no access at all. The same chain guarded
        // on j == 0 links every row to the previous one.
        let twin = parse_loop("for i = 1..=20 { for j = 0..=1 { A[i, 0] = i; } }").unwrap();
        let plan = parallelize(&twin).unwrap();
        assert!(plan.doall_count() >= 1, "twin rows must be independent");
        let chain = |guard: i64| {
            parse_loop(&format!(
                "for i = 1..=20 {{ for j = 0..=1 {{ A[i, 0] = A[i - 1, 0] + 1 when j == {guard}; }} }}"
            ))
            .unwrap()
        };

        let never = chain(5);
        let mem = Memory::for_nest(&never).unwrap();
        assert_eq!(run_parallel_checked(&never, &plan, &mem).unwrap(), 40);
        assert_eq!(
            crate::inspector::audit(&never, &plan).unwrap(),
            crate::inspector::Verdict::Certified
        );

        let holds = chain(0);
        let mem = Memory::for_nest(&holds).unwrap();
        let err = run_parallel_checked(&holds, &plan, &mem);
        assert!(
            matches!(err, Err(RuntimeError::RaceDetected { .. })),
            "expected race, got {err:?}"
        );
        assert_ne!(
            crate::inspector::audit(&holds, &plan).unwrap(),
            crate::inspector::Verdict::Certified
        );
    }

    #[test]
    fn program_checker_passes_correct_plans_and_names_kernels() {
        let imp = pdm_loopir::parse::parse_imperfect(
            "for i = 0..=6 {
               B[i, 0] = i;
               for j = 1..=6 { A[i, j] = A[i, j - 1] + B[i, 0]; }
             }",
        )
        .unwrap();
        let pp = pdm_core::program::parallelize_program(&imp).unwrap();
        let mem = Memory::for_imperfect(&imp).unwrap();
        let n = run_program_parallel_checked(&pp, &mem).unwrap();
        assert!(n > 0);
        // The checked run's memory matches the reference.
        let m_ref = Memory::for_imperfect(&imp).unwrap();
        crate::staged::run_imperfect_sequential(&imp, &m_ref).unwrap();
        assert_eq!(mem.snapshot(), m_ref.snapshot());
    }

    #[test]
    fn program_checker_reports_kernel_index_on_injected_race() {
        // Two kernels with a real flow dependence (pre writes B[i, 0],
        // body reads it). Deleting the DAG edge collapses them into one
        // stage — the checker must see the cross-kernel conflict and
        // name both kernel indices in the sample.
        let imp = pdm_loopir::parse::parse_imperfect(
            "for i = 0..=6 {
               B[i, 0] = i;
               for j = 1..=6 { A[i, j] = B[i, 0] + j; }
             }",
        )
        .unwrap();
        let mut normalized = pdm_loopir::normalize::to_perfect_kernels(&imp).unwrap();
        assert_eq!(normalized.edges, vec![(0, 1)], "test needs a real edge");
        normalized.edges.clear(); // inject the wrong (barrier-free) DAG
        let wrong = pdm_core::program::plan_program(normalized).unwrap();
        assert_eq!(wrong.stages().len(), 1);
        let mem = Memory::for_imperfect(&imp).unwrap();
        match run_program_parallel_checked(&wrong, &mem) {
            Err(RuntimeError::RaceDetected { sample, .. }) => {
                assert!(
                    sample.contains("kernel 0") && sample.contains("kernel 1"),
                    "sample must name both kernels: {sample}"
                );
                assert!(sample.contains("stage 0"), "{sample}");
            }
            other => panic!("expected race, got {other:?}"),
        }
    }

    #[test]
    fn wrong_partitioning_also_caught() {
        // 2-D: dependence along i1 only; a "plan" from a different loop
        // that parallelizes i1 must conflict.
        let dependent =
            parse_loop("for i1 = 1..=6 { for i2 = 0..=6 { A[i1, i2] = A[i1 - 1, i2] + 1; } }")
                .unwrap();
        let other =
            parse_loop("for i1 = 1..=6 { for i2 = 0..=6 { A[i1, i2] = A[i1, i2] + 1; } }").unwrap();
        let wrong = parallelize(&other).unwrap();
        assert!(wrong.is_fully_parallel());
        let mem = Memory::for_nest(&dependent).unwrap();
        assert!(matches!(
            run_parallel_checked(&dependent, &wrong, &mem),
            Err(RuntimeError::RaceDetected { .. })
        ));
    }
}
