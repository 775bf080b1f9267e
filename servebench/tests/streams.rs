//! The request streams are a function of the seed alone.

use servebench::workload::{Op, Request, ShapeRef, Stream, Workload, CONNECTIONS, WORKLOADS};
use std::collections::HashSet;

const LEN: usize = 20_000;

fn take(workload: Workload, seed: u64, conn: usize) -> Vec<Request> {
    Stream::new(workload, seed, conn).take(LEN).collect()
}

/// Shares of plan, instantiate, run and cold-shape requests.
fn shares(reqs: &[Request]) -> [f64; 4] {
    let share = |keep: &dyn Fn(&Request) -> bool| {
        reqs.iter().filter(|r| keep(r)).count() as f64 / reqs.len() as f64
    };
    [
        share(&|r| r.op == Op::Plan),
        share(&|r| r.op == Op::Instantiate),
        share(&|r| r.op == Op::Run),
        share(&|r| matches!(r.shape, ShapeRef::Cold(_))),
    ]
}

#[test]
fn a_seed_replays_and_another_seed_draws_the_same_mix() {
    for workload in WORKLOADS {
        for conn in 0..CONNECTIONS {
            let first = take(workload, 7, conn);
            assert_eq!(
                first,
                take(workload, 7, conn),
                "{} connection {conn}: seed 7 did not replay",
                workload.name()
            );
            let other = take(workload, 8, conn);
            assert_ne!(first, other, "{}: seeds 7 and 8 agree", workload.name());
            for (a, b) in shares(&first).into_iter().zip(shares(&other)) {
                assert!(
                    (a - b).abs() < 0.01,
                    "{}: op shares {a} vs {b}",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn the_storm_mix_matches_its_design() {
    let [plan, instantiate, run, cold] = shares(&take(Workload::StormSmall, 1, 0));
    assert!(
        (instantiate - 0.6).abs() < 0.02,
        "instantiate {instantiate}"
    );
    assert!((plan - 0.3).abs() < 0.02, "plan {plan}");
    assert!((run - 0.1).abs() < 0.02, "run {run}");
    assert!(cold > 0.005 && cold < 0.03, "cold {cold}");
    assert_eq!(shares(&take(Workload::InspectMixed, 1, 0))[2], 1.0);
}

#[test]
fn every_run_names_a_key_with_a_reference() {
    for workload in WORKLOADS {
        let keys: HashSet<_> = workload.run_keys().into_iter().collect();
        for r in take(workload, 3, 0).iter().filter(|r| r.op == Op::Run) {
            let ShapeRef::Warm(shape) = r.shape else {
                panic!("{}: a run of a cold shape", workload.name());
            };
            assert!(
                keys.contains(&(shape, r.value, r.seed)),
                "{}: {r:?} has no reference key",
                workload.name()
            );
        }
    }
}

#[test]
fn cold_shapes_are_never_repeated() {
    let mut seen = HashSet::new();
    for conn in 0..2 {
        for r in take(Workload::StormSmall, 5, conn) {
            if let ShapeRef::Cold(id) = r.shape {
                assert!(seen.insert(id), "cold shape {id} named twice");
            }
        }
    }
}
