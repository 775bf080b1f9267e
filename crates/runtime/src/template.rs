//! Runtime-side template instantiation.
//!
//! `pdm-core`'s [`PlanTemplate`] carries everything planning ever
//! derives from a nest *shape*; this module finishes the job for the
//! executors. [`instantiate_compiled`] lowers a valuation straight to a
//! ready-to-run [`CompiledInstance`]: concrete nest, concrete
//! [`ParallelPlan`], a [`Memory`] sized for that size's footprint, and
//! the [`CompiledPlan`] engine program — with the only per-size analysis
//! work being affine bound evaluation. [`instantiate_seeded`] is the
//! same with the memory seeded in the allocating pass, as a run wants
//! it.
//!
//! Paired with a [`ShardedPlanCache`](crate::sharded::ShardedPlanCache),
//! keyed by the nest's [`structural hash`](LoopNest::structural_hash)
//! (verified by `==` on hit, so collisions cannot alias plans), the
//! *template* — the expensive object — is a pay-once artifact per
//! kernel shape:
//!
//! ```
//! use pdm_loopir::parse::parse_loop_symbolic;
//! use pdm_runtime::sharded::ShardedPlanCache;
//! use pdm_runtime::template::instantiate_compiled;
//!
//! let shape = parse_loop_symbolic(
//!     "for i = 1..=N { A[i] = A[i - 1] + 1; }", &["N"]).unwrap();
//! let cache = ShardedPlanCache::new(1, 16);
//! for n in [10i64, 1000, 10] {
//!     let template = cache.get_or_plan(&shape).unwrap(); // plans once
//!     let inst = instantiate_compiled(&template, &[("N", n)]).unwrap();
//!     inst.compiled.run_parallel(&inst.memory).unwrap();
//! }
//! let s = cache.stats();
//! assert_eq!((s.hits, s.planned), (2, 1));
//! ```

use crate::compile::CompiledPlan;
use crate::memory::Memory;
use crate::Result;
use pdm_core::plan::ParallelPlan;
use pdm_core::template::PlanTemplate;
use pdm_loopir::nest::LoopNest;

/// A template lowered at one parameter valuation: everything an executor
/// needs, ready to run.
pub struct CompiledInstance {
    /// The concrete nest at this valuation.
    pub nest: LoopNest,
    /// The concrete plan (identical to what fresh planning would build).
    pub plan: ParallelPlan,
    /// Arrays sized for this valuation's access footprint: zero-filled
    /// by [`instantiate_compiled`], seeded by [`instantiate_seeded`]
    /// (or later by [`Memory::init_deterministic`]).
    pub memory: Memory,
    /// The compiled engine program for `(nest, plan, memory)`.
    pub compiled: CompiledPlan,
}

/// Lower `template` at `params` to a ready-to-run [`CompiledInstance`]
/// with zero-filled memory ([`Memory::for_nest`]). The plan assembly is
/// pure bound-row evaluation (no FM, no analysis); memory allocation
/// and bytecode lowering are the same per-size work any execution path
/// pays.
pub fn instantiate_compiled(
    template: &PlanTemplate,
    params: &[(&str, i64)],
) -> Result<CompiledInstance> {
    instantiate_with(template, params, Memory::for_nest)
}

/// [`instantiate_compiled`] with the memory seeded with `seed` as it is
/// allocated ([`Memory::seeded`]): one pass over the cells instead of a
/// zero fill and a re-seed.
pub fn instantiate_seeded(
    template: &PlanTemplate,
    params: &[(&str, i64)],
    seed: u64,
) -> Result<CompiledInstance> {
    instantiate_with(template, params, |nest| Memory::seeded(nest, seed))
}

/// The one instantiation body; `memory` allocates the instance's cells.
fn instantiate_with(
    template: &PlanTemplate,
    params: &[(&str, i64)],
    memory: impl FnOnce(&LoopNest) -> Result<Memory>,
) -> Result<CompiledInstance> {
    let nest = template.instantiate_nest(params)?;
    let plan = template.instantiate(params)?;
    let memory = memory(&nest)?;
    let compiled = CompiledPlan::compile(&nest, &plan, &memory)?;
    Ok(CompiledInstance {
        nest,
        plan,
        memory,
        compiled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::template::plan_template;
    use pdm_loopir::parse::{parse_loop_symbolic, parse_loop_with};

    const CHAIN: &str = "for i = 1..=N { A[i] = A[i - 1] + 1; }";

    #[test]
    fn compiled_instance_matches_fresh_pipeline() {
        let shape = parse_loop_symbolic(CHAIN, &["N"]).unwrap();
        let template = plan_template(&shape).unwrap();
        for n in [1i64, 17, 40] {
            let mut inst = instantiate_compiled(&template, &[("N", n)]).unwrap();
            inst.memory.init_deterministic(3);
            let seeded = instantiate_seeded(&template, &[("N", n)], 3).unwrap();
            assert_eq!(seeded.memory.snapshot(), inst.memory.snapshot(), "N={n}");
            let ran = inst.compiled.run_parallel(&inst.memory).unwrap();
            assert_eq!(ran, n as u64);

            let nest = parse_loop_with(CHAIN, &[("N", n)]).unwrap();
            let mut mem = Memory::for_nest(&nest).unwrap();
            mem.init_deterministic(3);
            crate::exec::run_sequential(&nest, &mem).unwrap();
            assert_eq!(inst.memory.snapshot(), mem.snapshot(), "N={n}");
        }
    }
}
