//! Write the committed `BENCH_inspector.json` snapshot: what the
//! inspector/executor speculation costs and what it buys. Three
//! parametric workloads, one per verdict:
//!
//! 1. a `K`-shifted paper-§4.1 nest whose concrete dependences match
//!    the hull at every valuation — **certified**, runs parallel;
//! 2. a uniform row shift whose hull groups chain at `K = 1` —
//!    **refined**, runs in audited stages;
//! 3. a parity-mixing shift with interleaved touch ranges at `K = 1` —
//!    **rejected**, falls back to the sequential reference.
//!
//! Plus one in-interval valuation storm: 32 distinct valuations inside
//! a single certified stability interval, which must cost exactly one
//! audit.
//!
//! ```sh
//! cargo run --release -p pdm-bench --bin bench_inspector
//! ```
//!
//! Gated by `bench_check`: `inspector_certified_speedup` (forced
//! sequential over certified-parallel), `inspector_audit_overhead`
//! (verdict-cached session throughput over the uninspected path,
//! clamped to 1.0), and `interval_skip_ratio` (storm requests answered
//! without auditing). This binary refuses to write a snapshot where
//! certification buys no speedup, steady-state inspection costs more
//! than 5%, or the storm audits more than once.

use pdm_bench::perf;

fn main() {
    println!("bench_inspector: audit cost vs. replan, verdict-picked executors");
    let cases = perf::inspector_cases();
    for c in &cases {
        if c.verdict == "certified" {
            assert!(
                c.certified_speedup() > 1.0,
                "{}: certified execution ({:.2}ms) is no faster than forced sequential \
                 ({:.2}ms) — the speculation buys nothing on this host",
                c.name,
                c.t_verdict * 1e3,
                c.t_seq * 1e3
            );
        }
        if let Some(s) = &c.steady {
            assert!(
                s.audit_overhead() >= 0.95,
                "{}: verdict-cached session throughput is {:.3}x the uninspected path — \
                 steady-state inspection overhead exceeds the 5% floor",
                c.name,
                s.audit_overhead()
            );
        }
    }
    let storm = perf::inspector_storm();
    assert_eq!(
        storm.audits, 1,
        "in-interval storm took {} audits for {} requests — interval \
         certification is not short-circuiting the inspector",
        storm.audits, storm.requests,
    );
    let json = perf::inspector_json(&cases, &storm);
    std::fs::write("BENCH_inspector.json", &json).expect("write BENCH_inspector.json");
    println!("\nwrote BENCH_inspector.json");
}
