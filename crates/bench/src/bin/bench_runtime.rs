//! Measure compiled-walker vs. reference-interpreter iteration
//! throughput and record the result in `BENCH_runtime.json`.
//!
//! ```sh
//! cargo run --release -p pdm-bench --bin bench_runtime
//! ```
//!
//! Cases: the paper's §4.1 and §4.2 nests and a classic 2-D stencil.
//! Every timed executor is first verified against the sequential
//! reference; the JSON reports best-of-N iteration throughput, the
//! gated compiled/interpreted sequential speedup, and the compiled
//! parallel throughput for context. The
//! measurement itself lives in `pdm_bench::perf` so the `bench_check`
//! regression gate can rerun it without touching this file's output.

fn main() {
    let cases = pdm_bench::perf::runtime_cases();
    let out = pdm_bench::perf::runtime_json(&cases);
    std::fs::write("BENCH_runtime.json", &out).expect("write BENCH_runtime.json");
    println!("wrote BENCH_runtime.json");
}
