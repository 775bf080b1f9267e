//! CI perf-regression gate: re-measure the workload of every committed
//! `BENCH_*.json` snapshot (one row of [`SUITES`] each) and fail when a
//! gated metric drops below the committed snapshot by more than its
//! tolerance (25% for deterministic count ratios, 40% for timing-based
//! speedups — see `pdm_bench::perf`). Per-metric deltas are printed even
//! on green runs so drifts stay visible before they trip the gate.
//!
//! ```sh
//! cargo run --release -p pdm-bench --bin bench_check
//! ```
//!
//! Gated metrics are the machine-portable ratios (`*_speedup`,
//! `*_reduction`, `*_overhead`, `*_ratio` but not `*_time_ratio`) — both
//! factors of a ratio are measured on the same host in the same run, so
//! a slower CI runner does not trip the gate, while a genuine engine or
//! pruning regression does. Absolute throughput (`*_per_s`) is printed
//! for context and gated only with `BENCH_CHECK_STRICT=1` (useful on a
//! pinned benchmarking machine). A gated metric missing from the fresh
//! run also fails — dropping a benchmark must be an explicit snapshot
//! regeneration with the suite's bench binary, not a silent pass.

use pdm_bench::{json, perf};
use std::process::ExitCode;

/// One gated suite: its committed snapshot and the measurement that
/// re-produces the snapshot's JSON (the same call its `bench_*` binary
/// writes out).
struct Suite {
    snapshot: &'static str,
    measure: fn() -> String,
}

const SUITES: &[Suite] = &[
    Suite {
        snapshot: "BENCH_runtime.json",
        measure: || perf::runtime_json(&perf::runtime_cases()),
    },
    Suite {
        snapshot: "BENCH_fm.json",
        measure: || {
            let (plans, elims) = perf::fm_cases();
            perf::fm_json(&plans, &elims)
        },
    },
    Suite {
        snapshot: "BENCH_template.json",
        measure: || perf::template_json(&perf::template_cases()),
    },
    Suite {
        snapshot: "BENCH_imperfect.json",
        measure: || perf::imperfect_json(&perf::imperfect_cases()),
    },
    Suite {
        snapshot: "BENCH_scaling.json",
        measure: || perf::scaling_json(&perf::scaling_cases()),
    },
    Suite {
        snapshot: "BENCH_service.json",
        measure: || perf::service_json(&perf::service_cases()),
    },
    Suite {
        snapshot: "BENCH_faults.json",
        measure: || perf::faults_json(&perf::faults_cases()),
    },
    Suite {
        snapshot: "BENCH_inspector.json",
        measure: || perf::inspector_json(&perf::inspector_cases(), &perf::inspector_storm()),
    },
];

fn metrics(label: &str, text: &str) -> Result<Vec<(String, f64)>, String> {
    Ok(json::parse(text)
        .map_err(|e| format!("{label}: {e}"))?
        .metrics())
}

/// Re-measure one suite and print every gated metric's delta.
fn check(suite: &Suite, strict: bool) -> Result<Vec<perf::Regression>, String> {
    let path = suite.snapshot;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e} (regenerate with the matching bench binary)"))?;
    let committed = metrics(path, &text)?;
    println!("bench_check: re-measuring {path}...");
    let fresh = metrics(&format!("fresh {path} output"), &(suite.measure)())?;
    println!("\n{path}: gated metrics (committed -> fresh, delta)");
    for (key, c) in &committed {
        if !perf::is_gated(key, strict) {
            continue;
        }
        let tol = perf::tolerance_for(key) * 100.0;
        match fresh.iter().find(|(k, _)| k == key).map(|(_, v)| *v) {
            // Deltas print on every run — green runs included — so a
            // drift toward the tolerance edge is visible before it trips.
            Some(v) if *c > 0.0 => println!(
                "  {key:<44} {c:>9.2} -> {v:>9.2}  ({:+7.1}%, tol {tol:.0}%)",
                (v / c - 1.0) * 100.0
            ),
            Some(v) => println!("  {key:<44} {c:>9.2} -> {v:>9.2}  (tol {tol:.0}%)"),
            None => println!("  {key:<44} {c:>9.2} -> MISSING"),
        }
    }
    Ok(perf::regressions(&committed, &fresh, strict))
}

fn main() -> ExitCode {
    let strict = std::env::var("BENCH_CHECK_STRICT").is_ok_and(|v| v == "1");
    let mut regressions = Vec::new();
    for suite in SUITES {
        match check(suite, strict) {
            Ok(mut r) => regressions.append(&mut r),
            Err(e) => {
                eprintln!("bench_check: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if regressions.is_empty() {
        println!("\nbench_check: PASS (no gated metric regressed past tolerance)");
        return ExitCode::SUCCESS;
    }
    eprintln!("\nbench_check: FAIL — {} regression(s):", regressions.len());
    for r in &regressions {
        match r.fresh {
            Some(f) => eprintln!(
                "  {}: committed {:.2}, fresh {:.2} ({:+.0}%)",
                r.key,
                r.committed,
                f,
                (f / r.committed - 1.0) * 100.0
            ),
            None => eprintln!(
                "  {}: committed {:.2}, missing from fresh run",
                r.key, r.committed
            ),
        }
    }
    eprintln!("(intentional? regenerate the snapshot with its bench_* binary)");
    ExitCode::FAILURE
}
