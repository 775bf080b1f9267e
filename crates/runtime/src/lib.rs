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
//!    reusable scratch stack; each array access composes with its
//!    array's row-major box and base in the run's one cell space
//!    ([`memory::Layout`]) into a single linear form `base + coeff·i`
//!    naming a cell id ([`program::LinAccess`]); per-level
//!    Fourier–Motzkin bounds become
//!    raw coefficient rows ([`compile::CompiledBounds`]).
//! 2. *Schedule* — the independent-group index space (doall-prefix
//!    values × Theorem-2 partition offsets) is counted arithmetically
//!    ([`schedule::group_count`]) on those rows and split into one
//!    contiguous range per block of the vendored pool
//!    ([`compile::Walker::tasks`]); each worker walks the ranges it
//!    claims with one reused scratch, which records where its last walk
//!    stopped, so a range seeks only when it does not start there — the
//!    group list is never materialized.
//! 3. *Execute* — an iterative (non-recursive) walker
//!    ([`compile::Walker::walk_range`]) walks a range of groups as one
//!    walk: the prefix levels and the offset index are its outer
//!    levels, and it advances the transformed point level by level; the
//!    `y·T⁻¹` back-substitution and every access's flat offset update by
//!    precomputed per-level deltas (strength reduction), and partition
//!    residues are computed once per level entry with lattice
//!    coordinates advancing by 1. The walker is generic over one visitor
//!    that hears of every group entry and every iteration: executing
//!    bytecode, logging touched cells ([`checked`]), and summarising
//!    touches for the inspector ([`inspector`]) are all visitors of the
//!    same walk.
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
//! * [`schedule`] — the group index space: one counting routine for
//!   group counts and `k`-th-group seeks, the pool-block split, and the
//!   stage driver;
//! * [`template`] — parametric serving: lower a `pdm-core`
//!   `PlanTemplate` at a size to a ready-to-run
//!   [`template::CompiledInstance`] (no re-analysis, no FM);
//! * [`sharded`] — the template cache that makes heavy traffic over one
//!   kernel shape pay planning once: [`sharded::ShardedPlanCache`] is
//!   keyed by nest structural hash, shards entries across independent
//!   locks and deduplicates concurrent planning runs for the same shape
//!   through a single-flight layer (`pdm-service`'s template store);
//! * [`lru`] — [`lru::Lru`], the one bounded least-recently-used map
//!   behind the template shards, the verdict points and `pdm-service`'s
//!   source memo;
//! * [`config`] — [`config::RuntimeConfig`]: every `PDM_*` environment
//!   variable (test seeds, client timeout, fault probes) parsed once
//!   per process; none of them tunes execution;
//! * [`memory`] — one cell space per run: a [`memory::Layout`] sizes
//!   every array from the nest's access footprint (conservative
//!   interval arithmetic over the iteration polyhedron, checked against
//!   overflow) and lays the arrays end to end, so one cell id names one
//!   `(array, subscript)` for the lowering, the race checker and the
//!   audit alike; a [`Memory`] is a layout plus one buffer of atomic
//!   cells shared by `doall` groups through relaxed loads and stores;
//! * [`checked`] — a group-conflict race checker: every access is logged
//!   per group and cross-group conflicts (≥ 1 write) are reported;
//! * [`inspector`] — inspector/executor speculation for nests whose
//!   *subscripts* read symbolic parameters: the plan is computed on the
//!   parameter-free hull, and once per valuation the audit
//!   ([`inspector::audit`], or [`inspector::audit_compiled`] on an
//!   instance already lowered) walks the concrete access lattice to
//!   certify the parallel plan,
//!   refine it into stages, or reject it back to original order on the
//!   compiled walker, with verdicts (and refined stage layouts) cached
//!   in [`sharded::VerdictCache`];
//! * [`equivalence`] — the soundness harness: the reference against the
//!   compiled walker in original order and under the parallel plan, and
//!   the program analogue, used all over the test suite and benches.
//!
//! The parallel executors' memory accesses are relaxed atomics, so the
//! crate holds no `unsafe` code: the dependence analysis *proves*
//! cross-group independence, the checker and the equivalence harness
//! validate that proof, and a plan that breaks it computes wrong values
//! rather than undefined behaviour.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checked;
pub mod compile;
pub mod config;
pub mod equivalence;
pub mod exec;
pub mod inspector;
pub mod lru;
pub mod memory;
pub mod program;
pub mod schedule;
pub mod sharded;
pub mod staged;
pub mod template;

pub use compile::{CompiledPlan, Visit, Walker};
pub use config::RuntimeConfig;
pub use exec::run_sequential;
pub use inspector::{audit, run_refined_compiled, run_with_verdict, PreparedVerdict, Verdict};
pub use memory::Memory;
pub use schedule::Schedule;
pub use sharded::{CacheStats, ShardedPlanCache};
pub use staged::{run_imperfect_sequential, run_program_sequential, CompiledProgram};
pub use template::CompiledInstance;

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
    /// The allocator refused an array's cells (the sizes make the
    /// memory larger than the machine can provide).
    AllocationFailed {
        /// Array name.
        array: String,
        /// Cells requested.
        cells: usize,
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
            RuntimeError::AllocationFailed { array, cells } => {
                write!(f, "cannot allocate {cells} cells for array {array}")
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
