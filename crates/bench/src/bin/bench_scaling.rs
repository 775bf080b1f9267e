//! Write the committed `BENCH_scaling.json` snapshot: thread scaling of
//! the work-stealing scheduler — a 1 → `max(4, machine)` pool ladder on
//! a balanced rectangular nest and a cost-skewed triangular nest
//! (compiled, with observed per-region worker counts), plus a
//! stealing-vs-contiguous duel at the widest pool.
//!
//! ```sh
//! cargo run --release -p pdm-bench --bin bench_scaling
//! ```
//!
//! Reported, not gated: `skewed_scaling_time_ratio` (steal-aware fine
//! chunking vs. one coarse contiguous range per worker on the skewed
//! nest — the workload where idle threads must be able to relieve
//! whoever drew the fat end of the triangle) and the analogous
//! `balanced_scaling_time_ratio` control. On a host with fewer cores
//! than the widest pool both legs serialize and the ratios are noise.

use pdm_bench::perf;

fn main() {
    println!("bench_scaling: work-stealing thread scaling");
    let cases = perf::scaling_cases();
    let json = perf::scaling_json(&cases);
    std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    println!("\nwrote BENCH_scaling.json");
}
