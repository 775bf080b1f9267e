//! Group-conflict race checking (failure injection harness).
//!
//! The parallel executor's soundness rests on the analysis' claim that
//! distinct groups never touch conflicting cells. This module *verifies*
//! the claim at runtime: the compiled walker executes every group with
//! a logging visitor that records each access the bytecode performs
//! (array, flat cell from the strength-reduced offsets, kind — guarded-off
//! statements touch nothing), then cross-group conflicts with at least
//! one write are reported. Running a deliberately wrong plan through
//! this checker must — and does, see the tests — detect the race.
//!
//! Both checkers run each stage's tasks concurrently on the current
//! pool, exactly as the unchecked executors do, and scan the logs at the
//! stage barrier. A wrong plan's racing writes therefore really race
//! before they are reported: check a plan you do not trust inside a
//! one-thread pool (`rayon::ThreadPoolBuilder::new().num_threads(1)`),
//! which runs the same tasks one after another and reports the same
//! conflicts.

use crate::compile::{CompiledBounds, CompiledPlan};
use crate::memory::Memory;
use crate::schedule::{self, RangeTask};
use crate::staged::CompiledProgram;
use crate::{Result, RuntimeError};
use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;
use std::collections::HashMap;

/// One logged access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedAccess {
    /// Array index.
    pub array: usize,
    /// Flattened cell index.
    pub cell: usize,
    /// Was it a write?
    pub write: bool,
}

/// Per-group access logs of one range task, keyed by global group id.
type GroupLogs = Vec<(u64, Vec<LoggedAccess>)>;

/// Execute one range task through the compiled walker with a logging
/// visitor. Returns the task's iteration count and one log per group
/// that ran at least one iteration, in walk order.
fn log_task(
    cp: &CompiledPlan,
    mem: &Memory,
    task: &RangeTask<'_, CompiledBounds>,
) -> Result<(u64, GroupLogs)> {
    let mut logs: GroupLogs = Vec::new();
    let mut s = cp.new_scratch();
    let count = cp.walker().walk_task(task, &mut s, |gid, sc| {
        if logs.last().is_none_or(|(g, _)| *g != gid) {
            logs.push((gid, Vec::new()));
        }
        let log = &mut logs.last_mut().expect("pushed above").1;
        cp.program().exec_traced(mem, sc, |array, cell, write| {
            log.push(LoggedAccess { array, cell, write })
        })
    })?;
    Ok((count, logs))
}

/// Execute the plan in parallel while logging accesses per group; after
/// the run, detect cross-group conflicts. Groups are streamed in
/// contiguous, steal-aware index ranges
/// ([`crate::schedule::plan_range_tasks`]) on the work-stealing pool —
/// the group list is never materialized, only the access logs are.
/// Run an untrusted plan under a one-thread pool (see the module docs).
///
/// Returns the number of iterations executed, or
/// [`RuntimeError::RaceDetected`].
pub fn run_parallel_checked(nest: &LoopNest, plan: &ParallelPlan, mem: &Memory) -> Result<u64> {
    let cp = CompiledPlan::compile(nest, plan, mem)?;
    let sched = crate::config::RuntimeConfig::global().schedule();
    let tasks = cp.walker().tasks(&sched, rayon::current_num_threads())?;
    let mut total = 0u64;
    let mut logs: GroupLogs = Vec::new();
    schedule::run_stages(
        std::slice::from_ref(&tasks),
        |task| log_task(&cp, mem, task),
        |_, results| {
            for (count, task_logs) in results {
                total += count;
                logs.extend(task_logs);
            }
            Ok(())
        },
    )?;

    // Cross-group conflict detection (keyed by global group index).
    let (conflicts, sample) = detect_conflicts(
        logs.iter().map(|(gid, log)| (*gid, log.as_slice())),
        |g0, g1, a| {
            format!(
                "array {} cell {} touched by groups {} and {}",
                a.array, a.cell, g0, g1
            )
        },
    );
    if conflicts > 0 {
        return Err(RuntimeError::RaceDetected { conflicts, sample });
    }
    Ok(total)
}

/// First-toucher conflict scan over the access logs of one concurrency
/// domain: two distinct `unit`s touching a common `(array, cell)` with
/// at least one write conflict. The single implementation behind both
/// checkers — [`run_parallel_checked`] keys units by global group id,
/// [`run_program_parallel_checked`] by `(kernel, group)` — so the
/// subtle first-owner/wrote-flag merge rule lives in exactly one place.
/// It is also the **certifier** of the speculative inspector
/// ([`crate::inspector::audit`]), which feeds it synthesized per-group
/// logs instead of execution traces. Returns the conflict count and a
/// sample description (empty when clean).
pub(crate) fn detect_conflicts<'a, K: Copy + PartialEq>(
    logs: impl IntoIterator<Item = (K, &'a [LoggedAccess])>,
    describe: impl Fn(K, K, &LoggedAccess) -> String,
) -> (usize, String) {
    let mut owner: HashMap<(usize, usize), (K, bool)> = HashMap::new();
    let mut conflicts = 0usize;
    let mut sample = String::new();
    for (unit, log) in logs {
        for a in log {
            match owner.get_mut(&(a.array, a.cell)) {
                None => {
                    owner.insert((a.array, a.cell), (unit, a.write));
                }
                Some((u0, wrote)) => {
                    if *u0 != unit && (a.write || *wrote) {
                        conflicts += 1;
                        if sample.is_empty() {
                            sample = describe(*u0, unit, a);
                        }
                    } else {
                        *wrote |= a.write;
                    }
                }
            }
        }
    }
    (conflicts, sample)
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
/// group 0. Run an untrusted plan under a one-thread pool (see the
/// module docs).
///
/// Returns the summed kernel iteration count, or
/// [`RuntimeError::RaceDetected`] for the first racing stage.
pub fn run_program_parallel_checked(
    pp: &pdm_core::program::ProgramPlan,
    mem: &Memory,
) -> Result<u64> {
    let program = CompiledProgram::compile(pp, mem)?;
    let sched = crate::config::RuntimeConfig::global().schedule();
    let stages = program.stage_tasks(&sched, rayon::current_num_threads())?;
    let mut total = 0u64;
    schedule::run_stages(
        &stages,
        |(k, task)| Ok((*k, log_task(&program.kernels()[*k], mem, task)?)),
        |si, results| {
            let mut units: Vec<((usize, u64), Vec<LoggedAccess>)> = Vec::new();
            for (k, (count, logs)) in results {
                total += count;
                units.extend(logs.into_iter().map(|(gid, log)| ((k, gid), log)));
            }
            let (conflicts, sample) = detect_conflicts(
                units.iter().map(|(unit, log)| (*unit, log.as_slice())),
                |(k0, g0), (k1, g1), a| {
                    format!(
                        "array {} cell {} touched by kernel {k0} group {g0} \
                         and kernel {k1} group {g1} in stage {si}",
                        a.array, a.cell
                    )
                },
            );
            if conflicts > 0 {
                return Err(RuntimeError::RaceDetected { conflicts, sample });
            }
            Ok(())
        },
    )?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::parallelize;
    use pdm_loopir::parse::parse_loop;

    /// Wrong plans are checked one task at a time, so their racing
    /// writes never actually overlap.
    fn one_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(f)
    }

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
        let err = one_thread(|| run_parallel_checked(&dependent, &wrong, &mem));
        assert!(
            matches!(err, Err(RuntimeError::RaceDetected { .. })),
            "expected race, got {err:?}"
        );
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
        let err = one_thread(|| run_parallel_checked(&holds, &plan, &mem));
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
        match one_thread(|| run_program_parallel_checked(&wrong, &mem)) {
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
            one_thread(|| run_parallel_checked(&dependent, &wrong, &mem)),
            Err(RuntimeError::RaceDetected { .. })
        ));
    }
}
