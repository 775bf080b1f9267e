//! Metrics, mechanism guards and the result line.

use crate::load::{Counters, Pass, Record};
use crate::stats::{median, quantile_us};
use crate::trace::{self, Ledger};
use crate::workload::{Op, ShapeRef, Workload};
use pdm_service::json::{self, Json};

/// One reported metric.
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured (0 where the layer did no work).
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Raw samples behind a latency percentile.
    pub samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit: unit.into(),
        samples: None,
    }
}

/// `num / den`, 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Round trips of measured requests that `keep` selects, in ns.
fn latencies(pass: &Pass, keep: impl Fn(&Record) -> bool) -> Vec<i64> {
    pass.measured().filter(|r| keep(r)).map(|r| r.ns).collect()
}

/// `p50` and `p99` over the window of the round trips `keep` selects,
/// each with its sample count.
fn percentiles(prefix: &str, pass: &Pass, keep: impl Fn(&Record) -> bool) -> [Metric; 2] {
    let mut samples = latencies(pass, keep);
    let n = Some(samples.len());
    [0.5, 0.99].map(|q| Metric {
        samples: n,
        ..metric(
            format!("{prefix}p{:.0}_us", q * 100.0),
            quantile_us(&mut samples, q),
            "us",
        )
    })
}

/// The end-to-end metrics of one segment, all from its untraced pass.
pub fn end_to_end(pass: &Pass, setup_s: f64, peak_rss_mib: f64) -> Vec<Metric> {
    let rate = pass.measured().count() as f64 / pass.window_s;
    let mut out = vec![metric("req_per_s", rate, "1/s")];
    out.extend(percentiles("", pass, |_| true));
    out.extend(percentiles("run_", pass, |r| r.req.op == Op::Run));
    out.push(metric("setup_s", setup_s, "s"));
    out.push(metric("peak_rss_mib", peak_rss_mib, "MiB"));
    out
}

/// The per-layer metrics: stage timings from the traced replay, counts
/// from the session accessors and response fields of the untraced pass.
pub fn per_layer(pass: &Pass, counters: &Counters, ledger: &Ledger) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut instantiate = latencies(pass, |r| r.req.op == Op::Instantiate);
    out.push(metric(
        "instantiate_p50_us",
        quantile_us(&mut instantiate, 0.5),
        "us",
    ));
    let mut cold = latencies(pass, |r| matches!(r.req.shape, ShapeRef::Cold(_)));
    out.push(metric(
        "plan_cold_p50_us",
        quantile_us(&mut cold, 0.5),
        "us",
    ));
    for stage in trace::STAGES {
        let mut samples = ledger.samples.get(stage).cloned().unwrap_or_default();
        out.push(metric(
            format!("{stage}_us"),
            quantile_us(&mut samples, 0.5),
            "us",
        ));
        out.push(metric(
            format!("{stage}_busy_ms"),
            ledger.busy_ns(stage) as f64 / 1e6,
            "ms",
        ));
    }
    let cache = &counters.cache;
    let verdicts = &counters.verdicts;
    let answered = (verdicts.hits + verdicts.interval_hits) as f64;
    let runs: Vec<&Record> = pass.measured().filter(|r| r.req.op == Op::Run).collect();
    let per_run = |f: fn(&Record) -> u32| {
        ratio(
            runs.iter().map(|r| f64::from(f(r))).sum(),
            runs.len() as f64,
        )
    };
    out.extend([
        metric(
            "sharded.hit_ratio",
            ratio(cache.hits as f64, cache.requests() as f64),
            "ratio",
        ),
        metric("sharded.planned", cache.planned as f64, "count"),
        metric("sharded.waited", cache.waited as f64, "count"),
        metric("sharded.evictions", cache.evictions as f64, "count"),
        metric(
            "memory.cells",
            ratio(ledger.cells as f64, ledger.allocations as f64),
            "count",
        ),
        metric(
            "compile.ns_per_iter",
            ratio(
                ledger.busy_ns(trace::EXECUTE) as f64,
                ledger.executed_iterations as f64,
            ),
            "ns",
        ),
        metric("inspector.audits", verdicts.misses as f64, "count"),
        metric(
            "inspector.ns_per_audited_iter",
            ratio(
                ledger.busy_ns(trace::AUDIT) as f64,
                ledger.audited_iterations as f64,
            ),
            "ns",
        ),
        metric(
            "verdict.hit_ratio",
            ratio(answered, answered + verdicts.misses as f64),
            "ratio",
        ),
        metric(
            "verdict.interval_hits",
            verdicts.interval_hits as f64,
            "count",
        ),
        metric("verdict.evictions", verdicts.evictions as f64, "count"),
        metric("rayon.observed_threads", per_run(|r| r.threads), "count"),
        metric("rayon.steals", per_run(|r| r.steals), "count"),
        metric(
            "trace.overhead_ratio",
            ratio(ledger.traced_ns as f64, ledger.untraced_ns as f64),
            "ratio",
        ),
    ]);
    out
}

/// Why the workload no longer exercises what it was chosen for; empty
/// when every guard holds.
pub fn guards(workload: Workload, pass: &Pass, counters: &Counters) -> Vec<String> {
    let count = |keep: &dyn Fn(&Record) -> bool| pass.measured().filter(|r| keep(r)).count();
    let mut failed = Vec::new();
    let mut require = |holds: bool, what: String| {
        if !holds {
            failed.push(what);
        }
    };
    match workload {
        Workload::StormSmall => {
            for op in [Op::Plan, Op::Instantiate, Op::Run] {
                require(
                    count(&|r| r.req.op == op) > 0,
                    format!("no measured {} requests", op.name()),
                );
            }
            require(
                count(&|r| matches!(r.req.shape, ShapeRef::Cold(_))) > 0
                    && counters.cache.planned > 0,
                "no cold plans".into(),
            );
            require(
                counters.cache.evictions > 0,
                "no template-cache evictions".into(),
            );
        }
        Workload::InspectMixed => {
            for kind in ["certified", "refined", "rejected"] {
                require(
                    count(&|r| r.verdict == Some(kind)) > 0,
                    format!("no {kind} verdicts"),
                );
            }
            let v = &counters.verdicts;
            require(v.misses > 0, "no fresh audits".into());
            require(v.interval_hits > 0, "no interval hits".into());
            require(v.evictions > 0, "no verdict-cache evictions".into());
        }
    }
    failed
}

/// What a segment, or a whole run, reports: the fields of its result
/// line.
pub struct Outcome {
    /// Every output was right and every mechanism guard held.
    pub correct: bool,
    /// Measured requests sent.
    pub attempted: u64,
    /// Measured requests that failed.
    pub failed: u64,
    /// The metrics (none when not `correct`).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, each metric `{value, unit}`. A segment's
    /// line also carries the latency sample counts (`samples`).
    pub fn line(&self, with_samples: bool) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut value = vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.clone())),
                ];
                if let (true, Some(n)) = (with_samples, m.samples) {
                    value.push(("samples".into(), Json::Num(n as f64)));
                }
                (m.name.clone(), Json::Obj(value))
            })
            .collect();
        json::render(&Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }

    /// Read back a result line.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let v = json::parse(line)?;
        let count = |key: &str| v.get_num(key).map(|n| n as u64).ok_or(format!("no {key}"));
        let Some(Json::Obj(fields)) = v.get("metrics") else {
            return Err("no metrics".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m.get_num("value").ok_or(format!("{name}: no value"))?,
                    unit: m.get_str("unit").ok_or(format!("{name}: no unit"))?.into(),
                    samples: m.get_num("samples").map(|n| n as usize),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            correct: v.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// A run's outcome from its segments: correct when every segment
    /// is, request counts summed, and each metric the median of its
    /// segment values (sample counts summed).
    pub fn combine(segments: &[Outcome]) -> Outcome {
        let correct = !segments.is_empty() && segments.iter().all(|s| s.correct);
        let first = segments.first().map_or(&[][..], |s| &s.metrics[..]);
        let metrics = match correct {
            false => Vec::new(),
            true => first
                .iter()
                .map(|m| {
                    let same: Vec<&Metric> = segments
                        .iter()
                        .filter_map(|s| s.metrics.iter().find(|x| x.name == m.name))
                        .collect();
                    let mut values: Vec<f64> = same.iter().map(|x| x.value).collect();
                    Metric {
                        name: m.name.clone(),
                        value: median(&mut values),
                        unit: m.unit.clone(),
                        samples: m
                            .samples
                            .map(|_| same.iter().filter_map(|x| x.samples).sum()),
                    }
                })
                .collect(),
        };
        Outcome {
            correct,
            attempted: segments.iter().map(|s| s.attempted).sum(),
            failed: segments.iter().map(|s| s.failed).sum(),
            metrics,
        }
    }
}
