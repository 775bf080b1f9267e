//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against live plan servers and prints every metric
//! by name with its unit, then one JSON result line: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
//!
//! The measured window is cut into segments of about `SEGMENT_S`
//! seconds, each a fresh serving process (this program re-run with
//! `--segment <i>`) with its own set-up, warm-up and seeded stream; every
//! metric is the median over the segments. Fresh processes given the same
//! stream differed far more than windows inside one long process, and a
//! host stall shorter than half the run moves no median, so no single
//! process or stall decides a run.
//!
//! Exits 1 on a reference-checksum mismatch, a failed mechanism guard or
//! a set-up error, and 2 on a usage error.

use servebench::load::{self, Config, Counters, Server};
use servebench::reference::References;
use servebench::report::{self, Metric, Outcome};
use servebench::stats::median;
use servebench::trace;
use servebench::workload::{Catalog, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Measured seconds per segment.
const SEGMENT_S: f64 = 2.0;
/// Set-ups per segment; a segment's `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed closed-loop traffic before a segment's measured window, so
/// the caches reach their steady state (capped at half the window).
const WARMUP: Duration = Duration::from_millis(500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only this segment, in this process.
    segment: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 5.0, false);
    let mut segment = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--segment" => segment = Some(value.parse().map_err(|e| format!("--segment: {e}"))?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        segment,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload storm_small|inspect_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.segment {
        Some(segment) => run_segment(&args, segment),
        None => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
        println!("  {:<34} {:>14.3} {}{n}", m.name, m.value, m.unit);
    }
}

/// One run: its segments one after another, each in a fresh process;
/// `Ok(false)` when a segment's outputs were wrong or a guard failed.
fn run(args: &Args) -> Result<bool, String> {
    let segments = (args.seconds / SEGMENT_S).round().clamp(1.0, 256.0) as u64;
    let seconds = args.seconds / segments as f64;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    println!(
        "{}: {segments} segment(s) of {seconds:.2} s measured, each a fresh serving process; \
         metrics are medians over the segments",
        args.workload.name()
    );
    let mut outcomes = Vec::new();
    for segment in 0..segments {
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--segment", &segment.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("segment {segment}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines();
        println!("  segment {segment}: {}", lines.next().unwrap_or(""));
        let outcome = lines
            .last()
            .ok_or_else(|| "no result line".to_string())
            .and_then(Outcome::parse)
            .map_err(|e| format!("segment {segment} ({}): {e}", output.status))?;
        let correct = outcome.correct;
        outcomes.push(outcome);
        if !correct {
            break;
        }
    }
    let outcome = Outcome::combine(&outcomes);
    print_metrics(&outcome.metrics);
    println!(
        "  failed_frac {:.6} ({} of {})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.line(false));
    Ok(outcome.correct)
}

/// The stream seed of segment `segment` of a run seeded `seed`: distinct
/// for every pair a run can name (`run` makes at most 256 segments).
fn segment_seed(seed: u64, segment: u64) -> u64 {
    seed.wrapping_mul(256).wrapping_add(segment)
}

/// One segment in this process: a header line, then its result line.
fn run_segment(args: &Args, segment: u64) -> Result<bool, String> {
    let workload = args.workload;
    let seed = segment_seed(args.seed, segment);
    let cfg = Config::for_workload(workload);
    let catalog = Catalog::new(workload);
    let refs = References::compute(&catalog, &workload.run_keys())?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.stop()?;
        }
        let (started, secs) = Server::start(&cfg, &catalog)?;
        setups.push(secs);
        server = Some(started);
    }
    let mut server = server.expect("at least one set-up");
    let setup_s = median(&mut setups);

    let window = Duration::from_secs_f64(args.seconds);
    let warmup = WARMUP.min(window / 2);
    let before = Counters::read(&server.session);
    let pass = load::drive(&mut server, workload, seed, &catalog, &refs, warmup, window);
    let counters = Counters::read(&server.session).since(&before);
    let peak_rss = load::peak_rss_mib();
    server.stop()?;
    let peak_rss = peak_rss?;

    println!(
        "{} connection(s), closed loop, pool width {}, stream seed {seed}, {:.2} s measured \
         after {:.2} s warm-up, {} reference checksums",
        cfg.connections,
        cfg.threads,
        args.seconds,
        warmup.as_secs_f64(),
        refs.len()
    );
    for e in &pass.errors {
        eprintln!("failed request: {e}");
    }
    let mut problems = report::guards(workload, &pass, &counters);
    if pass.mismatches > 0 {
        problems.push(format!(
            "{} run checksums differ from the reference",
            pass.mismatches
        ));
    }
    let metrics = if args.trace {
        // A quarter of the window after the warm-up requests: the replay
        // runs every request twice.
        let ledger = trace::replay(workload, seed, &cfg, &catalog, &pass, window / 4)?;
        if ledger.mismatches > 0 {
            problems.push(format!(
                "{} traced-replay checksums differ from the wire responses",
                ledger.mismatches
            ));
        }
        report::per_layer(&pass, &counters, &ledger)
    } else {
        report::end_to_end(&pass, setup_s, peak_rss)
    };
    for p in &problems {
        eprintln!("servebench: segment {segment}: refusing to report: {p}");
    }
    let correct = problems.is_empty();
    let outcome = Outcome {
        correct,
        attempted: pass.measured().count() as u64,
        failed: pass.measured().filter(|r| !r.ok).count() as u64,
        metrics: if correct { metrics } else { Vec::new() },
    };
    println!("{}", outcome.line(true));
    Ok(correct)
}
