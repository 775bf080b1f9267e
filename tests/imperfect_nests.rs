//! Differential tests for imperfect-nest normalization.
//!
//! For > 100 random **imperfect** nests from the extended generator, the
//! normalized execution paths
//!
//! ```text
//! to_perfect_kernels → plan_program → { kernels-in-order sequential,
//!                                       staged interpreted-parallel,
//!                                       staged compiled-parallel }
//! ```
//!
//! must all be **memory-identical** to the imperfect reference
//! interpreter (which walks the original nest in exact source order),
//! and the `sink → unsink` pair must round-trip both structurally and
//! through the pretty-printer/parser.
//!
//! A separate oracle test pins the normalizer's *outputs*: every emitted
//! kernel re-parses as a concrete perfect nest, the kernel DAG is
//! acyclic and stage-consistent, and — on small sizes — a brute-force
//! statement-level dependence check confirms every real inter-kernel
//! conflict is covered by a DAG edge.
//!
//! # Reproducibility
//!
//! The vendored `proptest` stand-in derives each test's RNG stream from
//! the test name, optionally mixed with the **`PDM_PROPTEST_SEED`**
//! environment variable. CI pins `PDM_PROPTEST_SEED=1` (see
//! `.github/workflows/ci.yml`), so a red CI run names a case that any
//! machine reproduces with the same variable; set a different value
//! locally to explore other sequences.

use proptest::prelude::*;
use std::collections::HashSet;
use vardep_loops::core::parallelize_program;
use vardep_loops::loopir::generator::{random_imperfect_nest, GenConfig};
use vardep_loops::loopir::parse::{parse_imperfect, parse_loop};
use vardep_loops::loopir::pretty::{render, render_imperfect};
use vardep_loops::prelude::*;
use vardep_loops::runtime::equivalence::assert_program_equivalent;

fn imperfect_for_seed(seed: u64) -> ImperfectNest {
    let cfg = GenConfig {
        depth: 2 + (seed as usize % 2),
        extent: 3 + (seed as i64 % 3),
        coeff: 2,
        offset: 3,
        stmts: 1 + (seed as usize % 2),
        arrays: 1 + (seed as usize % 2),
    };
    random_imperfect_nest(seed, &cfg, 1 + (seed as usize % 3)).expect("generator")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// The headline differential: one random imperfect nest per case,
    /// every normalized executor pinned to the imperfect reference.
    #[test]
    fn normalized_executors_match_imperfect_reference(seed in 0u64..1_000_000) {
        let imp = imperfect_for_seed(seed);
        assert_program_equivalent(&imp, seed);
    }

    /// Sinking is exactly invertible, and the pretty-printed forms
    /// round-trip through the parser.
    #[test]
    fn sink_then_unsink_roundtrips_source(seed in 0u64..1_000_000) {
        let imp = imperfect_for_seed(seed);
        // The generator guarantees non-empty inner loops, so full
        // sinking is always legal.
        let sunk = sink_fully(&imp).expect("sink");
        let back = unsink(&sunk).expect("unsink");
        prop_assert_eq!(&back, &imp, "unsink(sink(imp)) != imp (seed {})", seed);
        prop_assert_eq!(
            render_imperfect(&back),
            render_imperfect(&imp),
            "pretty-printed round trip diverged (seed {})", seed
        );
        // The sunk (guarded) perfect nest itself survives text:
        // render → parse → render is a fixpoint.
        let text = render(&sunk);
        let reparsed = parse_loop(&text).expect("sunk nest re-parses");
        prop_assert_eq!(render(&reparsed), text, "seed {}", seed);
        // And the imperfect source survives text the same way (array
        // ids may renumber to first-use order, so compare canonically).
        let itext = render_imperfect(&imp);
        let ireparsed = parse_imperfect(&itext).expect("imperfect re-parses");
        prop_assert_eq!(render_imperfect(&ireparsed), itext, "seed {}", seed);
    }
}

/// All cells a kernel touches, guard-aware: `(array, cell id)` sets of
/// reads and writes.
fn kernel_footprint(
    nest: &LoopNest,
    mem: &Memory,
) -> (HashSet<(usize, usize)>, HashSet<(usize, usize)>) {
    let mut reads = HashSet::new();
    let mut writes = HashSet::new();
    for it in nest.iterations().expect("iterations") {
        for stmt in nest.body() {
            if !stmt.guards_hold(it.as_slice()) {
                continue;
            }
            for (kind, r) in stmt.accesses() {
                let sub = r.access.eval(&it).expect("subscript");
                let cell = mem.flat(r.array, &sub).expect("in bounds");
                if kind == vardep_loops::loopir::AccessKind::Write {
                    writes.insert((r.array.0, cell));
                } else {
                    reads.insert((r.array.0, cell));
                }
            }
        }
    }
    (reads, writes)
}

/// Oracle: kernels re-parse as concrete perfect nests; the DAG is
/// acyclic and stage-consistent; and on small sizes every *actual*
/// statement-level conflict between two kernels is covered by an edge
/// (edges are a conservative superset — the unsafe direction would be a
/// missing edge).
#[test]
fn kernel_and_dag_oracle() {
    for seed in 0..40u64 {
        let imp = imperfect_for_seed(seed);
        let normalized = to_perfect_kernels(&imp).expect("normalize");
        let pp = parallelize_program(&imp).expect("plan");
        assert_eq!(pp.kernel_count(), normalized.kernels.len());
        assert!(pp.validate_dag(), "seed {seed}: DAG/stage inconsistency");
        for &(f, t) in pp.edges() {
            assert!(f < t, "seed {seed}: backward edge ({f}, {t})");
        }

        // Every kernel is a concrete perfect nest that survives text.
        for (i, k) in normalized.kernels.iter().enumerate() {
            assert!(!k.nest.is_symbolic());
            let text = render(&k.nest);
            let reparsed =
                parse_loop(&text).unwrap_or_else(|e| panic!("seed {seed} kernel {i}: {e}"));
            assert_eq!(
                render(&reparsed),
                text,
                "seed {seed} kernel {i}: canonical render not a fixpoint"
            );
            reparsed.iterations().expect("concrete iteration space");
        }

        // Brute-force dependence check: real conflicts need edges.
        let mem = Memory::for_imperfect(&imp).expect("memory");
        let foots: Vec<_> = normalized
            .kernels
            .iter()
            .map(|k| kernel_footprint(&k.nest, &mem))
            .collect();
        let edge_set: HashSet<(usize, usize)> = pp.edges().iter().copied().collect();
        for i in 0..foots.len() {
            for j in i + 1..foots.len() {
                let (ri, wi) = &foots[i];
                let (rj, wj) = &foots[j];
                let conflict = wi.intersection(wj).next().is_some()
                    || wi.intersection(rj).next().is_some()
                    || ri.intersection(wj).next().is_some();
                if conflict {
                    assert!(
                        edge_set.contains(&(i, j)),
                        "seed {seed}: kernels {i} and {j} really conflict but the DAG \
                         has no edge — the conservative edge set missed a dependence"
                    );
                }
            }
        }
    }
}

/// The stage schedule puts dependent kernels in strictly increasing
/// stages and never groups conflicting kernels together.
#[test]
fn stages_respect_real_conflicts() {
    for seed in 0..40u64 {
        let imp = imperfect_for_seed(seed);
        let pp = parallelize_program(&imp).expect("plan");
        let mut stage_of = vec![0usize; pp.kernel_count()];
        for (s, ks) in pp.stages().iter().enumerate() {
            for &k in ks {
                stage_of[k] = s;
            }
        }
        for &(f, t) in pp.edges() {
            assert!(
                stage_of[f] < stage_of[t],
                "seed {seed}: edge ({f}, {t}) not separated by a barrier"
            );
        }
    }
}
