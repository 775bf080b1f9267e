//! Inspector/executor speculation for **size-dependent dependences**.
//!
//! A nest whose array subscripts read symbolic parameters (e.g.
//! `A[i + K] = A[i] + 1`) has dependence distances that change with the
//! parameter valuation — exactly the case the paper's static framework
//! cannot decide once and for all. The planner therefore plans
//! **speculatively** on the parameter-free *hull* of the accesses (the
//! `i·A + b` part, ignoring `q·P`), and this module supplies the
//! runtime half of the classic inspector/executor bargain: once per
//! concrete valuation, *inspect* the real access pattern and decide
//! whether the speculative parallel plan is safe to run.
//!
//! [`audit`] walks the concrete access lattice of the substituted nest
//! under the planned partitioning — every group, every iteration, every
//! access, **without executing the body** — and returns a [`Verdict`].
//! The walk is the compiled group walker ([`crate::compile::Walker`])
//! on the plan's bare geometry, so it needs no [`Memory`]; its visitor
//! evaluates each executed statement's `(array, subscript)` touches from
//! the original indices.
//!
//! * [`Verdict::Certified`] — no two groups touch a common cell with a
//!   write, and within every group the touch order of every written
//!   cell is consistent with original program order. The parallel
//!   executors run unchanged.
//! * [`Verdict::Refined`] — groups conflict, but every conflict is
//!   *directed*: for each shared cell one group's touches all precede
//!   the other's in original order. The conflict graph is a DAG and
//!   its longest-path layering yields **stages**;
//!   [`run_refined_compiled`] runs stages sequentially with the
//!   groups of one stage in parallel as compiled range tasks, reached
//!   through seeked range cursors — no group table materialization.
//! * [`Verdict::Rejected`] — intra-group touch order disagrees with
//!   program order, conflicting touch ranges overlap, or the direction
//!   graph has a cycle. The caller falls back to
//!   [`crate::exec::run_sequential`].
//!
//! The cross-group certifier is [`crate::checked`]'s conflict detector
//! (`detect_conflicts`), fed synthesized per-group access summaries —
//! the same first-owner/wrote-flag merge rule the race checker trusts.
//!
//! Soundness: cross-group conflict freedom alone is **not** enough. The
//! hull plan also fixes a *within-group* walk order (transformed lex
//! order), and a parametric offset can redirect a dependence between
//! two iterations of one group. [`audit`] therefore checks, per
//! `(cell, group)`, that every write is walked after every earlier
//! touch of that cell in original-lex terms and every read is walked
//! after every original-lex-earlier write — the exact pairwise
//! condition for the group walk to reproduce sequential semantics on
//! that cell.
//!
//! Verdicts are cached per `(structural_hash, valuation)` in
//! [`crate::sharded::VerdictCache`], so a service audits each valuation
//! once and every later request dispatches straight to the certified
//! executor. When the planner's template can additionally certify a
//! whole valuation *interval* (`PlanTemplate::stability_box` in
//! `pdm-core`), the cache stores the interval ahead of point entries
//! and every in-interval valuation skips the audit entirely.

use crate::checked::{detect_conflicts, LoggedAccess};
use crate::compile::{CompiledBounds, CompiledPlan, Walker};
use crate::memory::Memory;
use crate::schedule::{self, RangeTask, Schedule};
use crate::Result;
use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;
use pdm_loopir::stmt::AccessKind;
use pdm_matrix::vec::IVec;
use std::collections::{BTreeMap, HashMap};

/// The inspector's decision for one `(shape, valuation)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The speculative plan is safe as-is: run the parallel executors.
    Certified,
    /// The plan's groups conflict, but acyclically: run `stages`
    /// sequentially (each inner `Vec` holds global group indices that
    /// may run concurrently) via [`run_refined_compiled`].
    Refined {
        /// Longest-path layers of the group-dependence DAG, in
        /// execution order. Every group index appears exactly once.
        stages: Vec<Vec<u64>>,
    },
    /// Speculation failed; the caller must run sequentially.
    Rejected {
        /// Human-readable cause (first violation found).
        reason: String,
    },
}

impl Verdict {
    /// Stable lowercase tag (`certified` / `refined` / `rejected`) —
    /// the wire-protocol and metrics label.
    pub fn kind(&self) -> &'static str {
        match self {
            Verdict::Certified => "certified",
            Verdict::Refined { .. } => "refined",
            Verdict::Rejected { .. } => "rejected",
        }
    }
}

/// Per-`(cell, group)` touch summary, updated in walk order.
struct Touches {
    wrote: bool,
    /// Original-lex minimum over all touches.
    min: Vec<i64>,
    /// Original-lex maximum over all touches (doubles as the running
    /// "latest touch so far" during the walk — its final value is the
    /// same either way).
    max: Vec<i64>,
    /// Original-lex maximum over writes walked so far.
    max_write: Option<Vec<i64>>,
}

/// One range task's worth of audit state, merged at the barrier.
/// Cell ids are task-local (first-touch order within the range);
/// `keys[local_id]` is the `(array, subscripts)` key, so the merge can
/// remap local ids onto a global intern table deterministically.
struct AuditLocal {
    keys: Vec<(usize, Vec<i64>)>,
    touches: HashMap<(usize, u64), Touches>,
    groups: Vec<u64>,
    disorder: Option<String>,
}

/// Walk one contiguous group range and summarize its touches. The
/// intra-group order check is complete here: a group lies wholly within
/// one range, so `touches` entries never need cross-task merging.
fn audit_range(
    nest: &LoopNest,
    walker: &Walker,
    task: &RangeTask<'_, CompiledBounds>,
) -> Result<AuditLocal> {
    let mut intern: HashMap<(usize, Vec<i64>), usize> = HashMap::new();
    let mut local = AuditLocal {
        keys: Vec::new(),
        touches: HashMap::new(),
        groups: Vec::new(),
        disorder: None,
    };
    let mut s = walker.new_scratch();
    task.for_each(|gid, prefix, o| {
        local.groups.push(gid);
        walker.walk(prefix, o, &mut s, |sc| {
            let idx = sc.idx.as_slice();
            for stmt in nest.body() {
                if !stmt.guards_hold(idx) {
                    continue;
                }
                for (kind, r) in stmt.accesses() {
                    let sub = r.access.eval(&IVec(idx.to_vec()))?;
                    let next = local.keys.len();
                    let cell = match intern.entry((r.array.0, sub.0)) {
                        std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            local.keys.push(e.key().clone());
                            *e.insert(next)
                        }
                    };
                    let write = kind == AccessKind::Write;
                    match local.touches.get_mut(&(cell, gid)) {
                        None => {
                            local.touches.insert(
                                (cell, gid),
                                Touches {
                                    wrote: write,
                                    min: idx.to_vec(),
                                    max: idx.to_vec(),
                                    max_write: write.then(|| idx.to_vec()),
                                },
                            );
                        }
                        Some(t) => {
                            // Pairwise order check against everything
                            // already walked in this group: a write
                            // must be lex-after every prior touch, a
                            // read lex-after every prior write.
                            let bad = if write {
                                idx < t.max.as_slice()
                            } else {
                                t.max_write.as_deref().is_some_and(|w| idx < w)
                            };
                            if bad && local.disorder.is_none() {
                                local.disorder = Some(format!(
                                    "group {gid} walks cell {cell} (array {}) against \
                                     program order at iteration {idx:?}",
                                    r.array.0
                                ));
                            }
                            t.wrote |= write;
                            if idx < t.min.as_slice() {
                                t.min = idx.to_vec();
                            }
                            if idx > t.max.as_slice() {
                                t.max = idx.to_vec();
                            }
                            if write && t.max_write.as_deref().is_none_or(|w| idx > w) {
                                t.max_write = Some(idx.to_vec());
                            }
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok(())
    })?;
    Ok(local)
}

/// Audit the concrete nest (parameters already substituted) against the
/// speculative `plan`: walk every group's iterations in plan order,
/// log every access (guards respected, body **not** executed), and
/// classify the result. See the [module docs](self) for the decision
/// rules. Cost is one extra pass over the iteration space — compare
/// `replan_ms` vs `audit_ms` in `BENCH_inspector.json` for why this
/// beats re-planning per valuation — and the walk fans out over the
/// same steal-aware group ranges the executors use, so first-contact
/// audits scale with cores.
///
/// Determinism: tasks cover disjoint ascending ranges and are merged
/// in task order, so the global intern table, the group order, and the
/// verdict are identical to a sequential walk regardless of thread
/// schedule.
pub fn audit(nest: &LoopNest, plan: &ParallelPlan) -> Result<Verdict> {
    let walker = Walker::for_plan(plan);
    let sched = crate::config::RuntimeConfig::global().schedule();
    let tasks = walker.tasks(&sched, rayon::current_num_threads().max(1))?;
    let mut locals = Vec::new();
    schedule::run_stages(
        std::slice::from_ref(&tasks),
        |task| audit_range(nest, &walker, task),
        |_, results| {
            locals = results;
            Ok(())
        },
    )?;

    // Merge in task order: walking each task's keys in first-touch
    // order reproduces the sequential intern numbering exactly.
    let mut intern: HashMap<(usize, Vec<i64>), usize> = HashMap::new();
    let mut touches: HashMap<(usize, u64), Touches> = HashMap::new();
    let mut all_groups: Vec<u64> = Vec::new();
    let mut disorder: Option<String> = None;
    for local in locals {
        let remap: Vec<usize> = local
            .keys
            .into_iter()
            .map(|key| {
                let next = intern.len();
                *intern.entry(key).or_insert(next)
            })
            .collect();
        // Plain inserts: a group lives in exactly one range task, so
        // (cell, gid) keys are disjoint across tasks.
        for ((cell, gid), t) in local.touches {
            touches.insert((remap[cell], gid), t);
        }
        all_groups.extend(local.groups);
        if disorder.is_none() {
            disorder = local.disorder;
        }
    }
    if let Some(reason) = disorder {
        // Intra-group misordering cannot be repaired by staging whole
        // groups — only sequential execution preserves semantics.
        return Ok(Verdict::Rejected { reason });
    }

    // Certify cross-group independence with the race checker's scan,
    // over synthesized one-entry-per-(cell, group) logs.
    let mut per_group: BTreeMap<u64, Vec<LoggedAccess>> = BTreeMap::new();
    for ((cell, gid), t) in &touches {
        per_group.entry(*gid).or_default().push(LoggedAccess {
            array: 0,
            cell: *cell,
            write: t.wrote,
        });
    }
    let (conflicts, _) = detect_conflicts(
        per_group.iter().map(|(gid, log)| (*gid, log.as_slice())),
        |g0, g1, a| format!("cell {} touched by groups {g0} and {g1}", a.cell),
    );
    if conflicts == 0 {
        return Ok(Verdict::Certified);
    }

    // Refinement: direct each conflict, reject overlaps, layer the DAG.
    let mut by_cell: HashMap<usize, Vec<(u64, &Touches)>> = HashMap::new();
    for ((cell, gid), t) in &touches {
        by_cell.entry(*cell).or_default().push((*gid, t));
    }
    let mut edges: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    for (cell, list) in &by_cell {
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
                    return Ok(Verdict::Rejected {
                        reason: format!(
                            "groups {ga} and {gb} interleave conflicting touches of cell {cell}"
                        ),
                    });
                }
            }
        }
    }

    // Kahn longest-path layering over all groups (isolated groups land
    // in stage 0). A cycle means contradictory directions → reject.
    let mut indeg: HashMap<u64, usize> = all_groups.iter().map(|&g| (g, 0)).collect();
    let mut succ: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(a, b) in &edges {
        *indeg.get_mut(&b).expect("edge endpoint is a group") += 1;
        succ.entry(a).or_default().push(b);
    }
    let mut layer: HashMap<u64, usize> = HashMap::new();
    let mut queue: Vec<u64> = all_groups
        .iter()
        .copied()
        .filter(|g| indeg[g] == 0)
        .collect();
    for &g in &queue {
        layer.insert(g, 0);
    }
    let mut done = 0usize;
    while let Some(g) = queue.pop() {
        done += 1;
        let lg = layer[&g];
        for &s in succ.get(&g).map(Vec::as_slice).unwrap_or(&[]) {
            let e = layer.entry(s).or_insert(0);
            *e = (*e).max(lg + 1);
            let d = indeg.get_mut(&s).expect("edge endpoint is a group");
            *d -= 1;
            if *d == 0 {
                queue.push(s);
            }
        }
    }
    if done != all_groups.len() {
        return Ok(Verdict::Rejected {
            reason: "group-dependence graph has a cycle".into(),
        });
    }
    let depth = layer.values().copied().max().unwrap_or(0) + 1;
    let mut stages: Vec<Vec<u64>> = vec![Vec::new(); depth];
    for &g in &all_groups {
        stages[layer[&g]].push(g);
    }
    for s in &mut stages {
        s.sort_unstable();
    }
    Ok(Verdict::Refined { stages })
}

/// Coalesce one stage's group ids into contiguous `[start, end)` runs
/// and split fat runs so the stage yields roughly `target` similarly
/// sized chunks — the unit of parallelism for the refined executors.
/// Chunks are cursor ranges, so no group table is ever materialized.
fn stage_chunks(stage: &[u64], target: usize) -> Vec<(u64, u64)> {
    let mut gids = stage.to_vec();
    gids.sort_unstable();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for g in gids {
        match runs.last_mut() {
            Some(r) if r.1 == g => r.1 = g + 1,
            _ => runs.push((g, g + 1)),
        }
    }
    let per = (stage.len() as u64 / target.max(1) as u64).max(1);
    let mut chunks = Vec::new();
    for (mut s, e) in runs {
        while e - s > per {
            chunks.push((s, s + per));
            s += per;
        }
        if s < e {
            chunks.push((s, e));
        }
    }
    chunks
}

/// Target chunk count per stage for the current pool and schedule.
fn stage_chunk_target(sched: &Schedule) -> usize {
    rayon::current_num_threads().max(1) * sched.chunks_per_thread.max(1)
}

/// Execute a [`Verdict::Refined`] staging through a [`CompiledPlan`]:
/// each stage's contiguous group runs become compiled range tasks (one
/// scratch per chunk, positioned by a seek inside the task), run by the
/// stage driver with a barrier between stages. Returns the iterations
/// executed.
pub fn run_refined_compiled(
    plan: &CompiledPlan,
    mem: &Memory,
    stages: &[Vec<u64>],
    sched: Schedule,
) -> Result<u64> {
    let target = stage_chunk_target(&sched);
    let chunks: Vec<Vec<(u64, u64)>> = stages
        .iter()
        .map(|stage| stage_chunks(stage, target))
        .collect();
    let mut total = 0u64;
    schedule::run_stages(
        &chunks,
        |&(start, end)| plan.run_task(mem, &plan.walker().range(start, end)?),
        |_, counts| {
            total += counts.iter().sum::<u64>();
            Ok(())
        },
    )?;
    Ok(total)
}

/// Dispatch execution on a verdict: certified → the compiled parallel
/// engine, refined → the compiled staged executor, rejected → the
/// sequential reference order. Returns the iterations executed.
pub fn run_with_verdict(
    nest: &LoopNest,
    plan: &ParallelPlan,
    mem: &Memory,
    verdict: &Verdict,
) -> Result<u64> {
    let schedule = crate::config::RuntimeConfig::global().schedule();
    match verdict {
        Verdict::Certified => {
            CompiledPlan::compile(nest, plan, mem)?.run_parallel_scheduled(mem, schedule)
        }
        Verdict::Refined { stages } => run_refined_compiled(
            &CompiledPlan::compile(nest, plan, mem)?,
            mem,
            stages,
            schedule,
        ),
        Verdict::Rejected { .. } => crate::exec::run_sequential(nest, mem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::template::plan_template;
    use pdm_loopir::parse::{parse_loop_symbolic, parse_loop_with};

    /// Plan the hull of `src`, substitute at `vals`, audit.
    fn audit_at(
        src: &str,
        params: &[&str],
        vals: &[(&str, i64)],
    ) -> (LoopNest, ParallelPlan, Verdict) {
        let shape = parse_loop_symbolic(src, params).unwrap();
        assert!(shape.has_parametric_accesses());
        let t = plan_template(&shape).unwrap();
        assert!(t.requires_inspection());
        let plan = t.instantiate(vals).unwrap();
        let nest = t.instantiate_nest(vals).unwrap();
        let v = audit(&nest, &plan).unwrap();
        (nest, plan, v)
    }

    const SHIFTED_CHAIN: &str = "for i = 0..=19 { A[i + K] = A[i] + 1; }";

    #[test]
    fn zero_offset_chain_certifies_nothing_but_k0_is_race_free() {
        // Hull of A[i + K] = A[i] + 1 is A[i] = A[i] + 1: fully
        // parallel. K = 0 really is race-free → certified.
        let (nest, plan, v) = audit_at(SHIFTED_CHAIN, &["K"], &[("K", 0)]);
        assert_eq!(v, Verdict::Certified);
        let mem = Memory::for_nest(&nest).unwrap();
        let n = run_with_verdict(&nest, &plan, &mem, &v).unwrap();
        assert_eq!(n, 20);
    }

    #[test]
    fn nonzero_offset_chain_is_not_certified() {
        // K = 1 turns the nest into a true sequential chain; the
        // speculative fully-parallel plan must not be certified.
        let (nest, plan, v) = audit_at(SHIFTED_CHAIN, &["K"], &[("K", 1)]);
        assert_ne!(v, Verdict::Certified, "{v:?}");
        // Execution through the verdict still matches the reference.
        let mem = Memory::for_nest(&nest).unwrap();
        let m_ref = Memory::for_nest(&nest).unwrap();
        run_with_verdict(&nest, &plan, &mem, &v).unwrap();
        crate::exec::run_sequential(&nest, &m_ref).unwrap();
        assert_eq!(mem.snapshot(), m_ref.snapshot());
    }

    #[test]
    fn directed_conflicts_refine_into_stages() {
        // Hull A[i1, i2] = A[i1, i2] + 1 is fully parallel (every
        // iteration its own group); K = 1 shifts the write one row
        // down, so cell (i1 + 1, i2) is written by group (i1, i2) and
        // read by group (i1 + 1, i2) — conflicts directed along i1.
        // The layering must recover row-by-row stages with the four
        // groups of one row still concurrent.
        let src = "for i1 = 0..=3 { for i2 = 0..=3 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        let (nest, plan, v) = audit_at(src, &["K"], &[("K", 1)]);
        match &v {
            Verdict::Refined { stages } => {
                let total: usize = stages.iter().map(Vec::len).sum();
                assert_eq!(total as u64, crate::exec::group_count(&plan).unwrap());
                assert_eq!(stages.len(), 4, "one stage per i1 row: {stages:?}");
                assert!(stages.iter().all(|s| s.len() == 4), "{stages:?}");
            }
            other => panic!("expected refinement, got {other:?}"),
        }
        let mem = Memory::for_nest(&nest).unwrap();
        let m_ref = Memory::for_nest(&nest).unwrap();
        let n = run_with_verdict(&nest, &plan, &mem, &v).unwrap();
        crate::exec::run_sequential(&nest, &m_ref).unwrap();
        assert_eq!(n, 16);
        assert_eq!(mem.snapshot(), m_ref.snapshot());
    }

    #[test]
    fn interleaved_conflicts_reject() {
        // Hull A[i] = A[i - 2] + 1 partitions into even/odd chains;
        // K = 1 shifts only the write, so each chain writes the cells
        // the other reads, interleaved across the whole range — no
        // stage order exists and speculation must fail closed.
        let src = "for i = 2..=21 { A[i + K] = A[i - 2] + 1; }";
        let (nest, plan, v) = audit_at(src, &["K"], &[("K", 1)]);
        assert!(matches!(v, Verdict::Rejected { .. }), "{v:?}");
        // The rejected path still executes correctly (sequentially).
        let mem = Memory::for_nest(&nest).unwrap();
        let m_ref = Memory::for_nest(&nest).unwrap();
        let n = run_with_verdict(&nest, &plan, &mem, &v).unwrap();
        crate::exec::run_sequential(&nest, &m_ref).unwrap();
        assert_eq!(n, 20);
        assert_eq!(mem.snapshot(), m_ref.snapshot());
    }

    #[test]
    fn audit_respects_guards() {
        // The guarded statement touches row 0 only at i2 == 0; with a
        // parametric column shift on a separate array the hull stays
        // parallel and K = 0 certifies.
        let src = "for i1 = 0..=3 { for i2 = 0..=3 {
            A[i1, i2 + K] = A[i1, i2] + 1;
            B[i1, 0] = A[i1, 0] when i2 == 0;
        } }";
        let (_, _, v) = audit_at(src, &["K"], &[("K", 0)]);
        assert_eq!(v, Verdict::Certified);
    }

    #[test]
    fn refined_compiled_matches_sequential() {
        // Row-shift refinement: the staged compiled executor must agree
        // with the sequential reference, bit for bit.
        let src = "for i1 = 0..=7 { for i2 = 0..=7 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        let (nest, plan, v) = audit_at(src, &["K"], &[("K", 1)]);
        let stages = match &v {
            Verdict::Refined { stages } => stages.clone(),
            other => panic!("expected refinement, got {other:?}"),
        };
        let m_ref = Memory::for_nest(&nest).unwrap();
        crate::exec::run_sequential(&nest, &m_ref).unwrap();

        let cp = CompiledPlan::compile(&nest, &plan, &m_ref).unwrap();
        let m_comp = Memory::for_nest(&nest).unwrap();
        let sched = crate::config::RuntimeConfig::global().schedule();
        let n_comp = run_refined_compiled(&cp, &m_comp, &stages, sched).unwrap();
        assert_eq!(n_comp, 64);
        assert_eq!(m_comp.snapshot(), m_ref.snapshot());
    }

    #[test]
    fn stage_chunks_cover_each_stage_exactly() {
        // Contiguous and gapped stages, various targets: the chunks
        // must partition exactly the stage's gids, in order.
        let cases: [&[u64]; 4] = [&[0, 1, 2, 3, 4, 5, 6, 7], &[3], &[2, 3, 7, 8, 9, 20], &[]];
        for stage in cases {
            for target in [1usize, 3, 16] {
                let chunks = stage_chunks(stage, target);
                let mut covered: Vec<u64> = Vec::new();
                for &(s, e) in &chunks {
                    assert!(s < e, "empty chunk in {chunks:?}");
                    covered.extend(s..e);
                }
                assert_eq!(covered, stage, "target {target}");
            }
        }
    }

    #[test]
    fn audit_verdict_is_identical_across_pool_sizes() {
        // The parallel walk's task-order merge must reproduce the
        // single-threaded audit exactly — intern ids and stages
        // included.
        let src = "for i1 = 0..=5 { for i2 = 0..=5 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        let shape = parse_loop_symbolic(src, &["K"]).unwrap();
        let t = plan_template(&shape).unwrap();
        let plan = t.instantiate(&[("K", 1)]).unwrap();
        let nest = t.instantiate_nest(&[("K", 1)]).unwrap();
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let four = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let v1 = one.install(|| audit(&nest, &plan)).unwrap();
        let v4 = four.install(|| audit(&nest, &plan)).unwrap();
        assert_eq!(v1, v4);
        assert!(matches!(v1, Verdict::Refined { .. }), "{v1:?}");
    }

    #[test]
    fn substituted_nest_matches_direct_parse() {
        // The audited nest is exactly what parsing with the valuation
        // inlined would give.
        let shape = parse_loop_symbolic(SHIFTED_CHAIN, &["K"]).unwrap();
        let sub = shape.substitute(&[("K", 3)]).unwrap();
        let direct = parse_loop_with(SHIFTED_CHAIN, &[("K", 3)]).unwrap();
        assert_eq!(sub, direct);
    }
}
