//! # pdm-runtime — executing loop nests: compile → schedule → execute
//!
//! The runtime realizes the schedules produced by `pdm-core` through one
//! compiled walker, held to one contract — bit-identical `Memory`
//! contents against the reference interpreter:
//!
//! **Reference interpreters** ([`exec::run_sequential`],
//! [`staged::run_imperfect_sequential`],
//! [`staged::run_program_sequential`]). Walk the nest recursively in
//! original order, re-evaluating expression trees and bounds at every
//! point. Slow on purpose: they are the executable *semantics*, kept
//! obvious so the fast path has something trustworthy to be checked
//! against.
//!
//! **Compiled walker** ([`compile`] + [`program`]). The perf-critical
//! pipeline, lowering a `(LoopNest, ParallelPlan)` pair once and then
//! executing allocation-free:
//!
//! 1. *Compile* — body `Expr` trees flatten to postfix bytecode run on a
//!    reusable scratch stack; each array access composes with the
//!    row-major layout into a single linear form `base + coeff·i`
//!    ([`program::LinAccess`]); per-level Fourier–Motzkin bounds become
//!    raw coefficient rows ([`compile::CompiledBounds`]).
//! 2. *Schedule* — the independent-group index space (doall-prefix
//!    values × Theorem-2 partition offsets) is counted arithmetically
//!    ([`schedule::group_count`]) and split into contiguous ranges with
//!    steal-aware sizing ([`schedule::plan_range_tasks`] — finer chunks
//!    when per-group cost is skewed, so the work-stealing pool's idle
//!    threads always find something to take); each range task arrives
//!    with a pre-positioned streaming [`schedule::GroupCursor`] with
//!    `O(depth)` state and one reused scratch — the group list is never
//!    materialized.
//! 3. *Execute* — an iterative (non-recursive) walker
//!    ([`compile::Walker`]) advances the transformed point level by
//!    level; the `y·T⁻¹` back-substitution and every access's flat
//!    offset update by precomputed per-level deltas (strength
//!    reduction), and partition residues are computed once per level
//!    entry with lattice coordinates advancing by 1. The walker is
//!    generic over a per-iteration visitor: executing bytecode, logging
//!    touched cells ([`checked`]), and summarising touches for the
//!    inspector ([`inspector`]) are all visitors of the same walk.
//!
//! **One stage driver** ([`schedule`]). Every parallel run is a list of
//! stages, each a list of independent `(kernel, group-range)` tasks,
//! with a barrier between stages: a plain plan is one stage
//! ([`compile::CompiledPlan::run_parallel`]), an imperfect nest
//! normalized into a multi-kernel [`pdm_core::program::ProgramPlan`] has
//! one stage per DAG layer ([`staged::CompiledProgram`]), and a refined
//! inspector verdict has one per conflict layer
//! ([`inspector::run_refined_compiled`]). The race checker and the audit
//! go through the same driver.
//!
//! Supporting modules:
//!
//! * [`schedule`] — the streaming group enumerator: prefix cursors,
//!   arithmetic group counting, `k`-th-group seeking, cursor-clone
//!   range planning, steal-aware range splitting
//!   (`PDM_CHUNKS_PER_THREAD` / `PDM_STEAL_CHUNKS_PER_THREAD`), and the
//!   stage driver;
//! * [`template`] — parametric serving: lower a `pdm-core`
//!   `PlanTemplate` at a size to a ready-to-run
//!   [`template::CompiledInstance`] (no re-analysis, no FM), with an LRU
//!   [`template::PlanCache`] keyed by nest structural hash so heavy
//!   traffic over one kernel shape pays planning once;
//! * [`sharded`] — the concurrent version of that cache:
//!   [`sharded::ShardedPlanCache`] shards entries across independent
//!   locks and deduplicates concurrent planning runs for the same shape
//!   through a single-flight layer (`pdm-service`'s template store);
//! * [`config`] — [`config::RuntimeConfig`]: every `PDM_*` environment
//!   knob parsed once per process instead of per executor call;
//! * [`memory`] — integer array storage sized from the nest's access
//!   footprint (conservative interval arithmetic over the iteration
//!   polyhedron, checked against overflow), with a `Sync` shared view
//!   for `doall` execution;
//! * [`checked`] — a group-conflict race checker: every access is logged
//!   per group and cross-group conflicts (≥ 1 write) are reported;
//! * [`inspector`] — inspector/executor speculation for nests whose
//!   *subscripts* read symbolic parameters: the plan is computed on the
//!   parameter-free hull, and once per valuation [`inspector::audit`]
//!   walks the concrete access lattice to certify the parallel plan,
//!   refine it into stages, or reject it back to sequential order, with
//!   verdicts cached in [`sharded::VerdictCache`];
//! * [`equivalence`] — the soundness harness: the reference against the
//!   compiled walker in original order and under the parallel plan, and
//!   the program analogue, used all over the test suite and benches.
//!
//! The parallel executors' memory accesses are unsynchronized by design:
//! the dependence analysis *proves* cross-group independence, and that
//! proof is what the checker and the equivalence harness validate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checked;
pub mod compile;
pub mod config;
pub mod equivalence;
pub mod exec;
pub mod inspector;
pub mod memory;
pub mod program;
pub mod schedule;
pub mod sharded;
pub mod staged;
pub mod template;

pub use compile::{CompiledNest, CompiledPlan, Walker};
pub use config::RuntimeConfig;
pub use exec::run_sequential;
pub use inspector::{audit, run_refined_compiled, run_with_verdict, Verdict};
pub use memory::Memory;
pub use schedule::{GroupCursor, Schedule};
pub use sharded::{CacheStats, ShardedPlanCache};
pub use staged::{run_imperfect_sequential, run_program_sequential, CompiledProgram};
pub use template::{CompiledInstance, InstantiateCompiled, PlanCache};

/// Errors from execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Exact arithmetic failure.
    Matrix(pdm_matrix::MatrixError),
    /// Loop IR failure.
    Ir(pdm_loopir::IrError),
    /// Core pipeline failure.
    Core(String),
    /// An access fell outside the allocated array extents (always a bug in
    /// extent computation, surfaced loudly).
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending subscript.
        subscript: Vec<i64>,
    },
    /// The race checker found cross-group conflicts.
    RaceDetected {
        /// Number of conflicting cells.
        conflicts: usize,
        /// A sample description.
        sample: String,
    },
    /// A single-flight planning run died without producing a result —
    /// the leader panicked (or was otherwise torn down) mid-plan.
    /// Followers of the failed flight receive this instead of
    /// deadlocking; the shape is retryable (the in-flight entry is
    /// cleared, so the next request leads a fresh planning run).
    PlanningFailed(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Matrix(e) => write!(f, "matrix error: {e}"),
            RuntimeError::Ir(e) => write!(f, "loop IR error: {e}"),
            RuntimeError::Core(m) => write!(f, "core error: {m}"),
            RuntimeError::OutOfBounds { array, subscript } => {
                write!(f, "access out of bounds: {array}{subscript:?}")
            }
            RuntimeError::RaceDetected { conflicts, sample } => {
                write!(f, "race detected on {conflicts} cells, e.g. {sample}")
            }
            RuntimeError::PlanningFailed(m) => {
                write!(f, "planning failed: {m} (retry the request)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<pdm_matrix::MatrixError> for RuntimeError {
    fn from(e: pdm_matrix::MatrixError) -> Self {
        RuntimeError::Matrix(e)
    }
}

impl From<pdm_loopir::IrError> for RuntimeError {
    fn from(e: pdm_loopir::IrError) -> Self {
        RuntimeError::Ir(e)
    }
}

impl From<pdm_core::CoreError> for RuntimeError {
    fn from(e: pdm_core::CoreError) -> Self {
        RuntimeError::Core(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
