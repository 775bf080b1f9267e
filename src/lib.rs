//! # vardep-loops — parallelizing loops with variable dependence distances
//!
//! Facade crate re-exporting the whole workspace: a production Rust
//! implementation of *Yu & D'Hollander, "Partitioning Loops with Variable
//! Dependence Distances", ICPP 2000*.
//!
//! ## One-minute tour
//!
//! A [`Session`] is the front door: it wraps parse → analyze → template
//! → cache → execute behind one object with one error type
//! ([`PdmError`]), caches plan templates per nest *shape*, and fixes the
//! execution schedule and thread pool at construction.
//!
//! ```
//! use vardep_loops::Session;
//!
//! let session = Session::new();
//!
//! // The paper's §4.1-style loop: variable-distance dependences
//! // (every distance is a multiple of (2,2), but the multiple varies
//! // with the iteration).
//! let nest = session.parse(
//!     "for i1 = 0..10 { for i2 = 0..10 {
//!        A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
//!     } }",
//! ).unwrap();
//!
//! // Analyze: derive the pseudo distance matrix (PDM).
//! let analysis = session.analyze(&nest).unwrap();
//! assert_eq!(analysis.pdm().rows(), 1);          // rank-1 lattice [[2,2]]
//!
//! // Plan: a legal schedule with one outer doall loop and two
//! // independent partitions (det = 2) — served from the session's
//! // template cache, planned at most once for this shape.
//! let plan = session.parallelize(&nest).unwrap();
//! assert_eq!(plan.doall_count(), 1);
//! assert_eq!(plan.partition_count(), 2);
//!
//! // Execute: instantiate, seed memory deterministically, run on the
//! // session's pool, and digest the result.
//! let outcome = session.run(&nest, &[], 7).unwrap();
//! assert_eq!(outcome.iterations, 100);
//! ```
//!
//! ## Serving many sizes of one kernel
//!
//! The transformation is valid for any loop bounds, so one kernel shape
//! is planned **once** — symbolic analysis plus parametric
//! Fourier–Motzkin — and re-bounded per problem size. The session does
//! the caching: the first `run` plans, every later size instantiates.
//!
//! ```
//! use vardep_loops::Session;
//!
//! let session = Session::new();
//! let shape = session.parse_symbolic(
//!     "for i1 = 0..N { for i2 = 0..N {
//!        A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
//!     } }",
//!     &["N"],
//! ).unwrap();
//! for n in [10i64, 100] {
//!     let outcome = session.run(&shape, &[("N", n)], 1).unwrap();
//!     assert_eq!(outcome.iterations, (n * n) as u64);
//! }
//! // One template served both sizes.
//! assert_eq!(session.cache_stats().planned, 1);
//! ```
//!
//! Behind a socket, the same session becomes a long-running service:
//! [`PlanServer`] speaks a length-prefixed JSON protocol (shapes
//! addressable by source or by structural hash), deduplicates
//! concurrent planning through a sharded single-flight cache, and
//! exposes a `/metrics`-style text page — see the [`service`] crate
//! docs for the wire format.
//!
//! ## Size-dependent dependences: inspector/executor speculation
//!
//! When a parameter appears in a *subscript* — not just a bound — the
//! dependence structure itself changes with the problem size, and no
//! static plan can be exact for every valuation. The session plans the
//! parameter-free conservative **hull** once, and a runtime
//! **inspector** audits each concrete valuation by walking its access
//! lattice (the race checker's conflict detection turned certifier).
//! The verdict is cached per `(shape, valuation)` — and, when the
//! audited access geometry admits it, the template derives a whole
//! **stability interval** of valuations on which the verdict provably
//! holds, cached ahead of the point entries so every later in-interval
//! valuation skips the audit outright. The verdict picks the executor:
//!
//! * **certified** — the hull plan is exact here; run fully parallel;
//! * **refined** — cross-group conflicts admit a stage order; run the
//!   hull groups in audited stages through the compiled stage driver;
//! * **rejected** — no stage order exists; run the compiled walker in
//!   original (sequential) order. Never wrong, at worst not parallel.
//!
//! ```
//! use vardep_loops::Session;
//!
//! let session = Session::new();
//! let shape = session
//!     .parse_symbolic("for i = 0..=19 { A[i + K] = A[i] + 1; }", &["K"])
//!     .unwrap();
//!
//! // K = 0: every write lands on its own read cell — certified.
//! let outcome = session.run(&shape, &[("K", 0)], 1).unwrap();
//! assert_eq!(outcome.verdict.as_ref().unwrap().kind(), "certified");
//!
//! // K = 1: each write feeds a neighboring group — demoted, not wrong.
//! let outcome = session.run(&shape, &[("K", 1)], 1).unwrap();
//! assert_ne!(outcome.verdict.as_ref().unwrap().kind(), "certified");
//!
//! // One audit per valuation; later runs hit the verdict cache.
//! let counts = || (session.verdicts().stats().hits, session.verdicts().stats().misses);
//! assert_eq!(counts(), (0, 2));
//! session.run(&shape, &[("K", 0)], 2).unwrap();
//! assert_eq!(counts(), (1, 2));
//! ```
//!
//! Over the wire, `run` responses carry the `verdict` and whether it
//! was served from a certified interval (`interval_hit`); the metrics
//! page counts `pdm_inspector_{certified,refined,rejected}_total`,
//! `pdm_inspector_interval_hits_total`, the verdict cache's
//! hit/miss/eviction counters, and audit latency. The verdict cache
//! itself is bounded (LRU per shard,
//! [`SessionBuilder::verdict_capacity`](pdm_service::session::SessionBuilder::verdict_capacity)).
//! The serving benchmark (`servebench`, `--workload inspect_mixed
//! --trace 1`) times the audit and the verdict-picked executors per
//! layer.
//!
//! ## Imperfect nests: the LU example
//!
//! The paper's machinery assumes a perfect nest, but the pipeline
//! accepts **imperfect** ones — statements between loop levels — by
//! normalizing them into perfect kernels (code sinking with `when`
//! guards, or loop fission with a dependence-direction proof) and
//! planning each kernel separately, sequenced by a dependence DAG with
//! barriers only at its edges. An LU-style elimination, with statements
//! at three different depths, runs end to end:
//!
//! ```
//! use vardep_loops::prelude::*;
//!
//! let session = Session::new();
//! let imp = session.parse_imperfect(
//!     "for k = 0..=5 {
//!        A[k, k] = A[k, k] + 1;                       # pivot, depth 1
//!        for i = k + 1..=7 {
//!          A[i, k] = A[i, k] * A[k, k];               # scale, depth 2
//!          for j = k + 1..=7 {
//!            A[i, j] = A[i, j] - A[i, k] * A[k, j];   # update, depth 3
//!          }
//!        }
//!      }",
//! ).unwrap();
//!
//! // The trailing update feeds the next step's pivot — a cycle through
//! // k — so fission is illegal and the normalizer sinks: one perfect
//! // kernel whose pivot/scale statements are guarded on the first
//! // inner iterations.
//! let prog = to_perfect_kernels(&imp).unwrap();
//! assert_eq!(prog.kernels.len(), 1);
//! assert!(prog.kernels[0].nest.body()[0].is_guarded());
//!
//! // Plan + execute: staged parallel runs are bit-identical to the
//! // imperfect reference interpreter.
//! let pp = session.plan_program(&imp).unwrap();
//! let rep = vardep_loops::runtime::equivalence::compare_program(&imp, &pp, 7).unwrap();
//! assert!(rep.all_equal());
//! ```
//!
//! A prologue/epilogue nest instead *fissions* into multiple kernels —
//! see `examples/imperfect_lu.rs` and
//! [`pdm_core::program::ProgramPlan`] for the staged schedule.
//!
//! Crate map: [`matrix`] (exact integer linear algebra), [`poly`]
//! (Fourier–Motzkin), [`loopir`] (nest IR + DSL, perfect and
//! imperfect), [`core`] (the paper's analysis and transformations),
//! [`runtime`] (the compiled walker and its stage driver on a
//! work-first thread pool, sharded plan + verdict caches, the speculative
//! inspector, staged multi-kernel programs),
//! [`service`] (the `Session` facade, TCP plan
//! server, wire protocol, metrics), [`isdg`] (ground-truth dependence
//! graphs), [`baselines`] (the related-work methods of Table 1).

pub use pdm_baselines as baselines;
pub use pdm_core as core;
pub use pdm_isdg as isdg;
pub use pdm_loopir as loopir;
pub use pdm_matrix as matrix;
pub use pdm_poly as poly;
pub use pdm_runtime as runtime;
pub use pdm_service as service;

pub use pdm_service::{
    ClientBuilder, Deadline, Faults, PdmError, PlanServer, RunOutcome, ServiceClient, Session,
    SessionBuilder,
};

/// Convenient glob-import surface for examples and quick scripts.
///
/// [`Session`] is the primary entry point; the lower-level types stay
/// re-exported for code that inspects plans, memory, or the IR
/// directly. The single-shot pipeline stages live in their crates
/// ([`core::parallelize`], [`loopir::parse`], ...); a session caches
/// what they recompute on every call.
pub mod prelude {
    pub use crate::{PdmError, PlanServer, RunOutcome, ServiceClient, Session, SessionBuilder};
    pub use pdm_core::codegen::{render_plan, render_program_plan};
    pub use pdm_core::pdm::PdmAnalysis;
    pub use pdm_core::plan::ParallelPlan;
    pub use pdm_core::program::ProgramPlan;
    pub use pdm_core::template::PlanTemplate;
    pub use pdm_isdg::graph::Isdg;
    pub use pdm_loopir::imperfect::ImperfectNest;
    pub use pdm_loopir::nest::LoopNest;
    pub use pdm_loopir::normalize::{sink_fully, to_perfect_kernels, unsink};
    pub use pdm_matrix::{IMat, IVec, Lattice, Unimodular};
    pub use pdm_runtime::exec::run_sequential;
    pub use pdm_runtime::memory::Memory;
    pub use pdm_runtime::staged::{run_imperfect_sequential, CompiledProgram};
    pub use pdm_runtime::template::instantiate_compiled;
    pub use pdm_runtime::{audit, run_with_verdict, RuntimeConfig, ShardedPlanCache, Verdict};
}
