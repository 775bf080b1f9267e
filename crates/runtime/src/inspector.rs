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
//! with the nest's linearized accesses attached. A served run audits
//! the instance it already lowered ([`audit_compiled`] on the
//! instance's [`CompiledPlan`] and its memory's [`Layout`]), so the
//! audit computes no index ranges and lowers nothing; [`audit`] on a
//! bare nest builds the layout and lowers once, allocating no cells.
//! Its visitor reads each executed access's strength-reduced offset,
//! exactly the cell the executor would touch:
//!
//! * a cell is a [`Layout`] cell id (row-major order is a bijection on
//!   each box and the boxes lie end to end, so the id names one
//!   `(array, subscript)` exactly);
//! * original lexicographic order is one scalar rank over the nest's
//!   index box (`Σ (i_k − lo_k)·W_k`), so a `(cell, group)` summary is
//!   a few plain integers;
//! * each worker's state holds a stamp table indexed by cell id, each
//!   entry stamped with the generation of the group that wrote it, so a
//!   touch finds its group's summary in one load and a group starts
//!   with one increment on the walk's group entry. Audit scratch is
//!   O(cells) per worker, allocated fallibly and freed when the audit
//!   returns.
//!
//! The merge is hash-free and copies no summary: certification scans the
//! tasks' summaries in place, and refinement chains only the touches of
//! the cells certification found conflicting.
//!
//! * [`Verdict::Certified`] — no two groups touch a common cell with a
//!   write. The parallel executors run unchanged.
//! * [`Verdict::Refined`] — groups conflict, but every conflict is
//!   *directed*: for each shared cell one group's touches all precede
//!   the other's in original order. The conflict graph is a DAG and
//!   its longest-path layering yields **stages**;
//!   [`run_refined_compiled`] runs stages sequentially with the
//!   groups of one stage in parallel as compiled group ranges, each
//!   one range walk that seeks its start at most once — no group table
//!   materialization.
//! * [`Verdict::Rejected`] — conflicting touch ranges overlap, or the
//!   direction graph has a cycle. The valuation runs in original order
//!   on the compiled walker ([`CompiledPlan::run_original_order`]),
//!   reusing the instance's lowered program.
//!
//! Every verdict therefore executes on the one compiled walker
//! ([`PreparedVerdict::execute`]); the reference interpreter
//! ([`crate::exec::run_sequential`]) is the oracle the tests hold every
//! executor to, not a path any verdict runs.
//!
//! The cross-group certifier is [`crate::checked`]'s conflict detector
//! (`detect_conflicts`), fed one `(cell, wrote)` summary per touched
//! cell of each group — the same first-owner/wrote-flag merge rule the
//! race checker trusts.
//!
//! Soundness within a group: the hull plan also fixes a *within-group*
//! walk order (transformed lex order), and a parametric offset can make
//! two iterations of one group touch a common cell. That needs no check,
//! because every group walk is lex-monotone in the original indices.
//! Two iterations of one group differ by a `δ` whose first `n − ρ`
//! transformed coordinates are zero, `δ·T = (0, r)`. Since `H·T = [0 |
//! U]` with `U` upper triangular and positive on the diagonal, `δ = c·H`
//! with `r = c·U`. The rows of the HNF PDM `H` have strictly increasing
//! levels and positive leading entries, so the lex sign of `δ` is the
//! sign of the first nonzero `c_j`, and so is the lex sign of `r`. The
//! walk runs `r` ascending, hence `δ` ascending: an iteration's rank
//! never falls within a group, so every group touches each cell in
//! original program order. That holds for any nest audited under any
//! plan Algorithm 1 builds (`parallelize`, `plan_from_analysis` or
//! template instantiation, the only constructors of a `ParallelPlan`).
//! The audit walk `debug_assert!`s it, and a release-mode test walks
//! the groups of random plans to pin it.
//!
//! Verdicts are cached per `(structural_hash, valuation)` in
//! [`crate::sharded::VerdictCache`] as [`PreparedVerdict`]s, so a
//! service audits each valuation once, a refined verdict's stages are
//! sorted and chunked once, and every later request only walks. When
//! the planner's template can additionally certify a whole valuation
//! *interval* (`PlanTemplate::stability_box` in `pdm-core`), the cache
//! stores the interval ahead of point entries and every in-interval
//! valuation skips the audit entirely.

use crate::checked::detect_conflicts;
use crate::compile::{CompiledPlan, PlanScratch, Visit};
use crate::memory::{self, Layout, Memory};
use crate::schedule::{self, Schedule};
use crate::{Result, RuntimeError};
use pdm_core::plan::ParallelPlan;
use pdm_loopir::nest::LoopNest;
use std::ops::Range;
use std::sync::OnceLock;

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

/// Original lexicographic order as one scalar: `rank(i) = Σ (i_k − lo_k)
/// · W_k` over the nest's index box, `W_k` the product of the inner
/// widths. Row-major numbering of the box is monotone in lex order, so
/// comparing ranks compares iterations.
struct LexRank {
    lo: Vec<i64>,
    weights: Vec<i64>,
}

impl LexRank {
    /// Weights for the box `ranges`; `Overflow` when the box has more
    /// points than an `i64` numbers, so no rank ever wraps.
    fn new(ranges: &[(i64, i64)]) -> Result<LexRank> {
        let overflow = || RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow);
        let mut weights = vec![0i64; ranges.len()];
        let mut w = 1i64;
        for (k, &(lo, hi)) in ranges.iter().enumerate().rev() {
            weights[k] = w;
            let width =
                i64::try_from((hi as i128 - lo as i128 + 1).max(0)).map_err(|_| overflow())?;
            w = w.checked_mul(width).ok_or_else(overflow)?;
        }
        Ok(LexRank {
            lo: ranges.iter().map(|r| r.0).collect(),
            weights,
        })
    }

    /// Rank of a point of the box (each term, and the sum, lies in
    /// `[0, points)`, so the wrapping operations are exact).
    #[inline]
    fn rank(&self, idx: &[i64]) -> i64 {
        let mut r = 0i64;
        for ((i, lo), w) in idx.iter().zip(&self.lo).zip(&self.weights) {
            r = r.wrapping_add(i.wrapping_sub(*lo).wrapping_mul(*w));
        }
        r
    }
}

/// Per-`(cell, group)` touch summary, updated in walk order; positions
/// in original order are [`LexRank`] ranks. A group walks in original
/// order (module docs), so the first touch has the least rank and the
/// latest touch the greatest. The group is implied ([`AuditLocal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Touches {
    /// [`Layout`] cell id (an audited layout has fewer than 2³² cells).
    cell: u32,
    wrote: bool,
    /// Rank of the first touch.
    min: i64,
    /// Rank of the latest touch.
    max: i64,
}

/// One task's cell → summary table, indexed by [`Layout`] cell id:
/// `(generation, slot among the group's summaries)`, where an entry of
/// another generation is empty, so the next group starts with one
/// increment and the table is cleared only when the generation wraps.
#[derive(Default)]
struct Stamps {
    table: Vec<(u32, u32)>,
    generation: u32,
}

impl Stamps {
    /// Forget every entry: the next group's generation.
    fn next_group(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.table.fill((0, 0));
            self.generation = 1;
        }
        self.generation
    }
}

/// One group range's worth of audit state, merged at the barrier: the
/// touch summaries in walk order, and each walked group's id with the
/// range of its summaries (a group that touches nothing included).
#[derive(Debug, PartialEq)]
struct AuditLocal {
    touches: Vec<Touches>,
    groups: Vec<(u64, Range<usize>)>,
}

/// Every walked group's id and summaries, tasks in task order: the
/// sequential walk's groups, read in place.
fn walked(locals: &[AuditLocal]) -> impl Iterator<Item = (u64, &[Touches])> {
    locals.iter().flat_map(|l| {
        l.groups
            .iter()
            .map(|(gid, r)| (*gid, &l.touches[r.clone()]))
    })
}

/// Walk one contiguous group range with a worker's reused walk scratch
/// and stamp table, and summarize its touches. A group lies wholly
/// within one range, so a `(cell, group)` summary never needs
/// cross-range merging.
fn audit_range(
    cp: &CompiledPlan,
    layout: &Layout,
    lex: &LexRank,
    range: Range<u64>,
    (scratch, stamps): &mut (PlanScratch, Stamps),
) -> Result<AuditLocal> {
    let program = cp.program();
    let mut local = AuditLocal {
        touches: Vec::new(),
        groups: Vec::new(),
    };
    // Room for each group of the range with one iteration's accesses, an
    // estimate (a range may end past the space): a refusal is harmless.
    let groups = range.end.saturating_sub(range.start) as usize;
    let touches = groups.saturating_mul(program.accesses().len());
    let _ = local.groups.try_reserve(groups);
    let _ = local.touches.try_reserve(touches);
    if stamps.table.len() != layout.cells() {
        stamps.table = memory::zeroed(layout.cells(), || "audit stamp table".into())?;
    }
    let (mut generation, mut start, mut last) = (0, 0, -1);
    cp.walker().walk_range(range, scratch, |step| {
        let sc = match step {
            Visit::Group { id, .. } => {
                generation = stamps.next_group();
                start = local.touches.len();
                last = -1;
                if let Some((_, run)) = local.groups.last_mut() {
                    run.end = start;
                }
                local.groups.push((id, start..start));
                return Ok(());
            }
            Visit::Iteration(sc) => sc,
        };
        let rank = lex.rank(&sc.idx);
        debug_assert!(
            rank > last,
            "group {:?} walks against original order",
            local.groups.last().map(|g| g.0)
        );
        last = rank;
        let (table, touches) = (&mut stamps.table, &mut local.touches);
        program.for_each_access(layout, sc, |cell, write| {
            let (stamp, slot) = &mut table[cell];
            if *stamp == generation {
                let t = &mut touches[start + *slot as usize];
                t.wrote |= write;
                t.max = rank;
            } else {
                // Slots count the group's cells, so fit a `u32`.
                (*stamp, *slot) = (generation, (touches.len() - start) as u32);
                touches.push(Touches {
                    cell: cell as u32,
                    wrote: write,
                    min: rank,
                    max: rank,
                });
            }
        })
    })?;
    if let Some((_, run)) = local.groups.last_mut() {
        run.end = local.touches.len();
    }
    Ok(local)
}

/// Audit the concrete nest (parameters already substituted) against the
/// speculative `plan`: walk every group's iterations in plan order,
/// summarize every access (guards respected, body **not** executed),
/// and classify the result. See the [module docs](self) for the
/// decision rules. Cost is the layout, a lowering and about one extra
/// walk of the iteration space; servebench's traced `inspector.audit_us`
/// row times this function on the bare nest, layout and lowering
/// included. The walk fans out over the same group ranges the executors
/// use, so first-contact audits scale with cores.
///
/// Determinism: group ranges are disjoint and ascending and are merged
/// in range order, and every later pass runs over dense cell ids and group
/// positions in ascending order, so the verdict — rejection reason
/// included — is identical to a sequential walk regardless of thread
/// schedule or pool width.
pub fn audit(nest: &LoopNest, plan: &ParallelPlan) -> Result<Verdict> {
    // Lower once against the nest's layout: no cells are allocated.
    let layout = Layout::for_nest(nest)?;
    audit_compiled(&CompiledPlan::lower(nest, plan, &layout)?, &layout)
}

/// [`audit`] of a plan already lowered against `layout` — an
/// instance's [`CompiledPlan`] and its memory's layout — with no
/// lowering and no index-range projection of its own: lexicographic
/// ranks come from the layout's index ranges. This is the audit the
/// session serves. A plan whose accesses do not address the layout's
/// cells is refused; 2³² cells or more are an `Overflow`.
pub fn audit_compiled(cp: &CompiledPlan, layout: &Layout) -> Result<Verdict> {
    if !cp.program().fits(layout) {
        return Err(RuntimeError::Core(
            "plan was lowered against a different layout".into(),
        ));
    }
    u32::try_from(layout.cells())
        .map_err(|_| RuntimeError::Matrix(pdm_matrix::MatrixError::Overflow))?;
    let lex = LexRank::new(layout.ranges())?;
    let tasks = cp.walker().tasks(rayon::current_num_threads())?;
    let mut locals = Vec::new();
    schedule::run_stages(
        std::slice::from_ref(&tasks),
        || (cp.new_scratch(), Stamps::default()),
        |state, task| audit_range(cp, layout, &lex, task.clone(), state),
        |_, results| {
            locals = results;
            Ok(())
        },
    )?;
    decide(layout, &locals)
}

/// Classify a walked audit. Cross-group independence is certified by
/// the race checker's scan, one `(cell, wrote)` entry per touched cell
/// of each group, which also names the cells to refine.
fn decide(layout: &Layout, locals: &[AuditLocal]) -> Result<Verdict> {
    let mut conflicting: Vec<usize> = Vec::new();
    detect_conflicts(
        layout.cells(),
        walked(locals).map(|(gid, run)| (gid, run.iter().map(|t| (t.cell as usize, t.wrote)))),
        |_, _, cell| conflicting.push(cell),
    )?;
    if conflicting.is_empty() {
        return Ok(Verdict::Certified);
    }
    refine(layout, locals, &conflicting)
}

/// Refinement of a conflicting audit: direct every conflict on the
/// `conflicting` cells in one pass over the summaries, reject overlaps,
/// and layer the group DAG by longest path. Nothing is sorted.
fn refine(layout: &Layout, locals: &[AuditLocal], conflicting: &[usize]) -> Result<Verdict> {
    // `last[cell]`: 1 + the latest hit on a conflicting cell (`END` before
    // its first, 0 elsewhere); each hit links its cell's previous one.
    const END: usize = usize::MAX;
    let mut last: Vec<usize> = memory::zeroed(layout.cells(), || "audit conflict chains".into())?;
    for &cell in conflicting {
        last[cell] = END;
    }
    // Edges go into per-group lists (`head[g]` is 1 + g's latest edge in
    // `succ`, each edge links the one before). The rejection names the
    // first interleave in ascending (cell, lower, higher group) order.
    let n = locals.iter().map(|l| l.groups.len()).sum();
    let mut gids: Vec<u64> = Vec::with_capacity(n);
    let (mut head, mut indeg) = (vec![0usize; n], vec![0usize; n]);
    let mut hits: Vec<(usize, &Touches, usize)> = Vec::with_capacity(2 * conflicting.len());
    let mut succ: Vec<(usize, usize)> = Vec::with_capacity(conflicting.len());
    let mut interleave: Option<(u32, usize, usize)> = None;
    for (gb, (gid, run)) in walked(locals).enumerate() {
        gids.push(gid);
        for tb in run {
            let latest = last[tb.cell as usize];
            if latest == 0 {
                continue;
            }
            let mut earlier = latest;
            while earlier != END {
                let (ga, ta, next) = hits[earlier - 1];
                earlier = next;
                if !ta.wrote && !tb.wrote {
                    continue;
                }
                let (a, b) = if ta.max < tb.min {
                    (ga, gb)
                } else if tb.max < ta.min {
                    (gb, ga)
                } else {
                    let at = (tb.cell, ga, gb);
                    interleave = Some(interleave.map_or(at, |first| first.min(at)));
                    continue;
                };
                // Neighbouring cells often repeat a group's latest edge.
                if head[a] == 0 || succ[head[a] - 1].0 != b {
                    succ.push((b, head[a]));
                    head[a] = succ.len();
                    indeg[b] += 1;
                }
            }
            hits.push((gb, tb, latest));
            last[tb.cell as usize] = hits.len();
        }
    }
    if let Some((cell, ga, gb)) = interleave {
        let (array, flat) = layout.locate(cell as usize);
        let (a, b, name) = (gids[ga], gids[gb], &layout.arrays()[array].name);
        let reason = format!(
            "groups {a} and {b} interleave conflicting touches of cell {flat} of array {name}"
        );
        return Ok(Verdict::Rejected { reason });
    }

    // Kahn longest-path layering over dense group positions (isolated
    // groups land in stage 0); a cycle means contradictory directions.
    let mut layer = vec![0usize; n];
    let mut queue: Vec<usize> = (0..n).filter(|&g| indeg[g] == 0).collect();
    let mut done = 0usize;
    while let Some(g) = queue.pop() {
        done += 1;
        let mut e = head[g];
        while e != 0 {
            let (s, next) = succ[e - 1];
            layer[s] = layer[s].max(layer[g] + 1);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
            e = next;
        }
    }
    if done != n {
        let reason = "group-dependence graph has a cycle".into();
        return Ok(Verdict::Rejected { reason });
    }
    // Group ids ascend with position (tasks cover ascending ranges), so
    // every stage comes out sorted.
    let mut stages: Vec<Vec<u64>> = vec![Vec::new(); layer.iter().max().map_or(1, |d| d + 1)];
    for (&g, &l) in gids.iter().zip(&layer) {
        stages[l].push(g);
    }
    Ok(Verdict::Refined { stages })
}

/// Coalesce one stage's group ids into contiguous `[start, end)` runs
/// and split fat runs so the stage yields roughly `target` similarly
/// sized chunks — the unit of parallelism for the refined executors.
/// Chunks are group ranges, so no group table is ever materialized.
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

/// Target chunk count per stage for the current pool: one chunk per
/// pool block, the split every group space gets
/// ([`crate::compile::Walker::tasks`]).
fn stage_chunk_target() -> usize {
    schedule::task_target(rayon::current_num_threads())
}

/// A refined staging laid out for execution: every stage's chunks
/// ([`stage_chunks`]) for one chunk target. Building it sorts and
/// splits every stage, so a served verdict builds it once
/// ([`PreparedVerdict`]) and each later run only walks.
#[derive(Debug)]
struct StageLayout {
    target: usize,
    chunks: Vec<Vec<(u64, u64)>>,
}

impl StageLayout {
    fn new(stages: &[Vec<u64>], target: usize) -> StageLayout {
        StageLayout {
            target,
            chunks: stages
                .iter()
                .map(|stage| stage_chunks(stage, target))
                .collect(),
        }
    }

    /// Run the stages in order, a barrier between them, each stage's
    /// chunks as compiled group ranges on the stage driver (a worker's
    /// walk seeks each chunk that does not start where its last one
    /// stopped). Returns the iterations executed.
    fn run(&self, plan: &CompiledPlan, mem: &Memory) -> Result<u64> {
        let mut total = 0u64;
        schedule::run_stages(
            &self.chunks,
            || plan.new_scratch(),
            |s, &(start, end)| plan.run_range(mem, start..end, s),
            |_, counts| {
                total += counts.iter().sum::<u64>();
                Ok(())
            },
        )?;
        Ok(total)
    }
}

/// Execute a [`Verdict::Refined`] staging through a [`CompiledPlan`]:
/// each stage's contiguous group runs become compiled group ranges,
/// run by the stage driver with a barrier between stages. Lays the
/// stages out on every call; a server that runs one verdict many times
/// holds a [`PreparedVerdict`] instead. The [`Schedule`] argument is the
/// replay-only shim and is ignored. Returns the iterations executed.
pub fn run_refined_compiled(
    plan: &CompiledPlan,
    mem: &Memory,
    stages: &[Vec<u64>],
    _: Schedule,
) -> Result<u64> {
    StageLayout::new(stages, stage_chunk_target()).run(plan, mem)
}

/// A verdict ready to serve: the [`Verdict`] and, once a refined one
/// has run, its stage layout, kept for every later run at the same
/// chunk target (pool width × `rayon::BLOCKS_PER_WORKER`). This is
/// what [`crate::sharded::VerdictCache`] holds, so a hot refined
/// valuation pays for its iterations only.
#[derive(Debug)]
pub struct PreparedVerdict {
    verdict: Verdict,
    layout: OnceLock<StageLayout>,
}

impl PreparedVerdict {
    /// Wrap `verdict`; the layout is built on the first refined run.
    pub fn new(verdict: Verdict) -> PreparedVerdict {
        PreparedVerdict {
            verdict,
            layout: OnceLock::new(),
        }
    }

    /// The verdict.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// Execute `plan` (compiled from `nest` against `mem`) as the
    /// verdict allows: certified → the compiled parallel engine,
    /// refined → the staged group ranges, rejected → the compiled walker
    /// in original order. All three are the one compiled walker. A
    /// refined run under a pool width the kept layout was not built for
    /// lays its stages out afresh. Returns the iterations executed.
    pub fn execute(&self, plan: &CompiledPlan, nest: &LoopNest, mem: &Memory) -> Result<u64> {
        match &self.verdict {
            Verdict::Certified => plan.run_parallel(mem),
            Verdict::Refined { stages } => {
                let target = stage_chunk_target();
                let kept = self.layout.get_or_init(|| StageLayout::new(stages, target));
                if kept.target == target {
                    kept.run(plan, mem)
                } else {
                    StageLayout::new(stages, target).run(plan, mem)
                }
            }
            Verdict::Rejected { .. } => plan.run_original_order(nest, mem),
        }
    }
}

/// Dispatch execution on a verdict ([`PreparedVerdict::execute`]):
/// certified → the compiled parallel engine, refined → the compiled
/// staged executor, rejected → the compiled walker in original order.
/// Returns the iterations executed.
pub fn run_with_verdict(
    nest: &LoopNest,
    plan: &ParallelPlan,
    mem: &Memory,
    verdict: &Verdict,
) -> Result<u64> {
    PreparedVerdict::new(verdict.clone()).execute(
        &CompiledPlan::compile(nest, plan, mem)?,
        nest,
        mem,
    )
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
    fn lowered_instance_audits_like_the_bare_nest() {
        // An instance's own lowering and its memory's layout give the
        // verdict a fresh audit of the bare nest gives; a plan lowered
        // against another nest's layout is refused, not misread.
        let src = "for i1 = 0..=3 { for i2 = 0..=3 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        let shape = parse_loop_symbolic(src, &["K"]).unwrap();
        let t = plan_template(&shape).unwrap();
        for k in [0, 1] {
            let inst = crate::template::instantiate_compiled(&t, &[("K", k)]).unwrap();
            let lowered = audit_compiled(&inst.compiled, inst.memory.layout()).unwrap();
            assert_eq!(lowered, audit(&inst.nest, &inst.plan).unwrap(), "K={k}");
        }
        let other = parse_loop_with("for i = 0..=3 { B[i] = A[i] + 1; }", &[]).unwrap();
        let inst = crate::template::instantiate_compiled(&t, &[("K", 1)]).unwrap();
        let foreign = Layout::for_nest(&other).unwrap();
        assert!(matches!(
            audit_compiled(&inst.compiled, &foreign),
            Err(RuntimeError::Core(_))
        ));
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
        let n_comp = run_refined_compiled(&cp, &m_comp, &stages, Schedule).unwrap();
        assert_eq!(n_comp, 64);
        assert_eq!(m_comp.snapshot(), m_ref.snapshot());

        // A prepared verdict keeps the layout of its first run's pool
        // width and lays out afresh under another: every run matches.
        let prepared = PreparedVerdict::new(v);
        for width in [2, 1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let m = Memory::for_nest(&nest).unwrap();
            let n = pool.install(|| prepared.execute(&cp, &nest, &m).unwrap());
            assert_eq!(n, 64);
            assert_eq!(m.snapshot(), m_ref.snapshot(), "width {width}");
        }
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
        // single-threaded audit exactly, stages and rejection reasons
        // included, on repeated calls and at every pool width. The
        // generated nest rejects on interleaved conflicts between two
        // groups; the reason must name the first such pair in
        // ascending (cell, lower group, higher group) order.
        let row_shift = {
            let src = "for i1 = 0..=5 { for i2 = 0..=5 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
            let shape = parse_loop_symbolic(src, &["K"]).unwrap();
            (plan_template(&shape).unwrap(), 1)
        };
        let interleaved = {
            let cfg = pdm_loopir::generator::GenConfig {
                depth: 2,
                extent: 4,
                coeff: 2,
                offset: 3,
                stmts: 2,
                arrays: 2,
            };
            let shape =
                pdm_loopir::generator::random_inspector_nest(981_969, &cfg, &["K"]).unwrap();
            (plan_template(&shape).unwrap(), -1)
        };
        let pools: Vec<rayon::ThreadPool> = [1, 2, 4]
            .map(|n| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .unwrap()
            })
            .into();
        let mut verdicts = Vec::new();
        for (t, k) in [row_shift, interleaved] {
            let plan = t.instantiate(&[("K", k)]).unwrap();
            let nest = t.instantiate_nest(&[("K", k)]).unwrap();
            let first = audit(&nest, &plan).unwrap();
            for pool in &pools {
                for _ in 0..3 {
                    assert_eq!(pool.install(|| audit(&nest, &plan)).unwrap(), first);
                }
            }
            verdicts.push(first);
        }
        assert!(
            matches!(verdicts[0], Verdict::Refined { .. }),
            "{verdicts:?}"
        );
        match &verdicts[1] {
            Verdict::Rejected { reason } => {
                assert!(reason.contains("interleave"), "{reason}")
            }
            other => panic!("expected an interleave rejection, got {other:?}"),
        }
    }

    #[test]
    fn stamp_generations_wrap_without_losing_touches() {
        // Rows are the hull's groups, each touching two cells four times;
        // K = 1 directs row i into row i + 1. A table near u32::MAX wraps
        // in the second group, and its stale entries carry the generation
        // the wrap restarts at: a wrap that kept them would see touches.
        let src = "for i1 = 0..=5 { for i2 = 0..=3 { A[i1 + K, 0] = A[i1, 0] + 1; } }";
        let t = plan_template(&parse_loop_symbolic(src, &["K"]).unwrap()).unwrap();
        let inst = crate::template::instantiate_compiled(&t, &[("K", 1)]).unwrap();
        let (cp, layout) = (&inst.compiled, inst.memory.layout());
        let lex = LexRank::new(layout.ranges()).unwrap();
        let walk = |stamps: Stamps| {
            let state = &mut (cp.new_scratch(), stamps);
            audit_range(cp, layout, &lex, 0..u64::MAX, state).unwrap()
        };
        let fresh = walk(Stamps::default());
        let wrapped = walk(Stamps {
            table: vec![(1, 0); layout.cells()],
            generation: u32::MAX - 1,
        });
        assert_eq!(fresh.groups.len(), 6);
        assert!(fresh.touches.iter().all(|t| t.max > t.min), "{fresh:?}");
        assert_eq!(wrapped, fresh);
        let verdict = decide(layout, &[wrapped]).unwrap();
        assert_eq!(verdict, decide(layout, &[fresh]).unwrap());
        assert_eq!(verdict, audit_compiled(cp, layout).unwrap());
        let Verdict::Refined { stages } = verdict else {
            panic!("expected refinement, got {verdict:?}")
        };
        assert_eq!(stages.len(), 6, "one stage per row: {stages:?}");
    }

    #[test]
    fn a_group_with_no_iteration_is_still_a_group() {
        // The hull A[i] = A[i - 11] + 1 plans one group per residue of i
        // mod 11, and i = 0..=7 leaves groups 8, 9 and 10 without an
        // iteration. At K = −15 group i writes the cell group i − 4 read
        // first, so groups 4..=7 follow 0..=3; the empty groups are
        // groups all the same and land in the first stage.
        let src = "for i = 0..=7 { A[i + K] = A[i - 11] + 1; }";
        let t = plan_template(&parse_loop_symbolic(src, &["K"]).unwrap()).unwrap();
        let inst = crate::template::instantiate_compiled(&t, &[("K", -15)]).unwrap();
        assert_eq!(inst.plan.partition_count(), 11);
        let (mut entered, mut ran) = (Vec::new(), 0);
        let mut s = inst.compiled.new_scratch();
        inst.compiled
            .walker()
            .walk_range(0..u64::MAX, &mut s, |step| {
                match step {
                    Visit::Group { id, .. } => entered.push(id),
                    Visit::Iteration(_) => ran += 1,
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(entered, (0..11).collect::<Vec<u64>>());
        assert_eq!(ran, 8);
        let expected = Verdict::Refined {
            stages: vec![vec![0, 1, 2, 3, 8, 9, 10], vec![4, 5, 6, 7]],
        };
        for width in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let audited = pool.install(|| audit_compiled(&inst.compiled, inst.memory.layout()));
            assert_eq!(audited.unwrap(), expected, "width {width}");
            assert_eq!(
                pool.install(|| audit(&inst.nest, &inst.plan)).unwrap(),
                expected
            );
        }
        let mem = Memory::for_nest(&inst.nest).unwrap();
        let m_ref = Memory::for_nest(&inst.nest).unwrap();
        assert_eq!(
            run_with_verdict(&inst.nest, &inst.plan, &mem, &expected).unwrap(),
            8
        );
        crate::exec::run_sequential(&inst.nest, &m_ref).unwrap();
        assert_eq!(mem.snapshot(), m_ref.snapshot());
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
