//! Service observability: lock-free latency histograms and the
//! `/metrics`-style text rendering.
//!
//! Everything here is plain atomics — recording a latency is two
//! `fetch_add`s, cheap enough to sit on every request path. The
//! [`render_metrics`] output follows the Prometheus exposition format
//! (`# TYPE` lines, `_bucket{le=...}` cumulative buckets) so standard
//! scrapers parse it, but the service does not pretend to be a full
//! Prometheus endpoint — it is a diagnostic text page served over the
//! same wire protocol as everything else.

use pdm_runtime::sharded::{CacheStats, ShardedPlanCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets: bucket `i` counts samples with
/// `latency_us < 2^i`, up to `2^(BUCKETS-2)` µs (≈ 8.4 s), with the last
/// bucket catching everything larger.
const BUCKETS: usize = 24;

/// A fixed-bucket log₂ latency histogram over microseconds.
///
/// Buckets are cumulative-friendly powers of two: sample `d` lands in
/// the first bucket whose upper bound `2^i` µs exceeds it. `record` is
/// two relaxed atomic adds; readers get counts, the sum (for averages),
/// and approximate quantiles from the bucket boundaries.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one sample.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    /// Upper bound (µs) of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`) — an over-estimate by at most 2×, which is what
    /// log₂ buckets buy. Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return upper_bound_us(i);
            }
        }
        upper_bound_us(BUCKETS - 1)
    }

    /// Snapshot of `(upper_bound_us, cumulative_count)` per bucket, for
    /// rendering.
    fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                acc += b.load(Ordering::Relaxed);
                (upper_bound_us(i), acc)
            })
            .collect()
    }
}

/// Upper bound of bucket `i` in µs: `2^i` for i < BUCKETS-1 (bucket 0
/// holds sub-microsecond samples), unbounded (`u64::MAX`) for the last.
fn upper_bound_us(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Per-operation request counters plus a latency histogram.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Requests answered (including errors).
    pub requests: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// End-to-end handling latency.
    pub latency: LatencyHistogram,
}

impl OpMetrics {
    /// Record one handled request.
    pub fn record(&self, latency: Duration, ok: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
    }
}

/// All counters a serving process exposes: per-operation request
/// metrics plus template-acquisition latency (the session's `plan`
/// path, cache hits and planning runs alike).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// `plan` requests (source → template facts).
    pub plan: OpMetrics,
    /// `instantiate` requests (template + values → instance facts).
    pub instantiate: OpMetrics,
    /// `run` requests (instantiate + execute).
    pub run: OpMetrics,
    /// `metrics` / `stats` / `shutdown` and unrecognized requests.
    pub control: OpMetrics,
    /// Latency of template acquisition inside the session (hits are
    /// sub-microsecond; leaders pay the planning run).
    pub template_acquire: LatencyHistogram,
    /// Connections accepted by the server.
    pub connections: AtomicU64,
    /// Connection-handler panics caught on the handler's own thread
    /// instead of tearing down the server.
    pub panics: AtomicU64,
    /// Connections shed at the connection cap (answered with an in-band
    /// `overloaded` error, then closed).
    pub shed: AtomicU64,
    /// Requests abandoned mid-pipeline because their `deadline_ms`
    /// budget expired.
    pub deadline_exceeded: AtomicU64,
    /// Inspected runs whose verdict certified the speculative parallel
    /// plan as-is.
    pub inspector_certified: AtomicU64,
    /// Inspected runs demoted to a staged (refined) schedule.
    pub inspector_refined: AtomicU64,
    /// Inspected runs rejected back to sequential order.
    pub inspector_rejected: AtomicU64,
    /// Inspected runs answered by a certified valuation *interval* in
    /// the verdict cache — no audit ever ran for that valuation.
    pub inspector_interval_hits: AtomicU64,
    /// Latency of *fresh* inspector audits (verdict-cache hits skip the
    /// walk and are not recorded here).
    pub inspector_audit: LatencyHistogram,
    /// Fatal acceptor errors (each one shuts the server down — this is
    /// effectively 0 or 1, kept as a counter for scrapers).
    pub accept_errors: AtomicU64,
    /// Connections being served right now (gauge; the connection cap
    /// compares against this).
    pub active_connections: AtomicU64,
}

impl ServiceMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::default()
    }

    /// Total requests over every operation.
    pub fn total_requests(&self) -> u64 {
        [&self.plan, &self.instantiate, &self.run, &self.control]
            .iter()
            .map(|op| op.requests.load(Ordering::Relaxed))
            .sum()
    }
}

/// Render the full metrics page: cache counters (aggregate and
/// per-shard), verdict-cache counters (point/interval tiers and LRU
/// evictions), per-operation request counts and latency histograms,
/// and the hardening counters.
pub fn render_metrics(
    metrics: &ServiceMetrics,
    cache: &ShardedPlanCache,
    verdicts: &pdm_runtime::sharded::VerdictCache,
) -> String {
    let mut out = String::new();
    let total = cache.stats();
    push_counter(&mut out, "pdm_cache_hits_total", "cache hits", total.hits);
    push_counter(
        &mut out,
        "pdm_cache_planned_total",
        "planning runs led",
        total.planned,
    );
    push_counter(
        &mut out,
        "pdm_cache_waited_total",
        "requests that waited on an in-flight plan",
        total.waited,
    );
    push_counter(
        &mut out,
        "pdm_cache_evictions_total",
        "LRU evictions",
        total.evictions,
    );
    push_gauge(
        &mut out,
        "pdm_cache_entries",
        "templates currently cached",
        total.entries,
    );
    out.push_str("# TYPE pdm_cache_shard_requests_total counter\n");
    for (i, s) in cache.shard_stats().iter().enumerate() {
        out.push_str(&format!(
            "pdm_cache_shard_requests_total{{shard=\"{i}\"}} {}\n",
            s.requests()
        ));
    }

    let v = verdicts.stats();
    push_counter(
        &mut out,
        "pdm_verdict_cache_hits_total",
        "verdict point-entry hits",
        v.hits,
    );
    push_counter(
        &mut out,
        "pdm_verdict_cache_interval_hits_total",
        "verdict probes answered by a certified interval",
        v.interval_hits,
    );
    push_counter(
        &mut out,
        "pdm_verdict_cache_misses_total",
        "verdict probes answered by neither tier",
        v.misses,
    );
    push_counter(
        &mut out,
        "pdm_verdict_cache_evictions_total",
        "verdict entries evicted (point LRU + interval cap)",
        v.evictions,
    );
    push_gauge(
        &mut out,
        "pdm_verdict_cache_entries",
        "point verdicts currently cached",
        v.entries,
    );
    push_gauge(
        &mut out,
        "pdm_verdict_cache_intervals",
        "certified valuation intervals currently cached",
        v.intervals,
    );

    for (name, op) in [
        ("plan", &metrics.plan),
        ("instantiate", &metrics.instantiate),
        ("run", &metrics.run),
        ("control", &metrics.control),
    ] {
        out.push_str(&format!(
            "pdm_requests_total{{op=\"{name}\"}} {}\n",
            op.requests.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "pdm_request_errors_total{{op=\"{name}\"}} {}\n",
            op.errors.load(Ordering::Relaxed)
        ));
        push_histogram(
            &mut out,
            &format!("pdm_request_latency_us_{name}"),
            &op.latency,
        );
    }
    push_histogram(
        &mut out,
        "pdm_template_acquire_us",
        &metrics.template_acquire,
    );
    push_counter(
        &mut out,
        "pdm_connections_total",
        "connections accepted",
        metrics.connections.load(Ordering::Relaxed),
    );
    push_counter(
        &mut out,
        "pdm_panics_total",
        "connection-handler panics caught on their own thread",
        metrics.panics.load(Ordering::Relaxed),
    );
    push_counter(
        &mut out,
        "pdm_shed_total",
        "connections shed at the connection cap",
        metrics.shed.load(Ordering::Relaxed),
    );
    push_counter(
        &mut out,
        "pdm_deadline_exceeded_total",
        "requests abandoned on an expired deadline budget",
        metrics.deadline_exceeded.load(Ordering::Relaxed),
    );
    push_counter(
        &mut out,
        "pdm_inspector_certified_total",
        "inspected runs whose speculative parallel plan was certified",
        metrics.inspector_certified.load(Ordering::Relaxed),
    );
    push_counter(
        &mut out,
        "pdm_inspector_refined_total",
        "inspected runs demoted to a staged schedule",
        metrics.inspector_refined.load(Ordering::Relaxed),
    );
    push_counter(
        &mut out,
        "pdm_inspector_rejected_total",
        "inspected runs rejected back to sequential order",
        metrics.inspector_rejected.load(Ordering::Relaxed),
    );
    push_counter(
        &mut out,
        "pdm_inspector_interval_hits_total",
        "inspected runs answered by a certified interval (audit skipped)",
        metrics.inspector_interval_hits.load(Ordering::Relaxed),
    );
    push_histogram(&mut out, "pdm_inspector_audit_us", &metrics.inspector_audit);
    push_counter(
        &mut out,
        "pdm_accept_errors_total",
        "fatal acceptor errors (shut the server down)",
        metrics.accept_errors.load(Ordering::Relaxed),
    );
    push_gauge(
        &mut out,
        "pdm_active_connections",
        "connections being served right now",
        metrics.active_connections.load(Ordering::Relaxed),
    );

    out
}

fn push_counter(out: &mut String, name: &str, help: &str, v: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
    ));
}

fn push_gauge(out: &mut String, name: &str, help: &str, v: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
    ));
}

fn push_histogram(out: &mut String, name: &str, h: &LatencyHistogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    for (le, cum) in h.cumulative() {
        let le = if le == u64::MAX {
            "+Inf".to_string()
        } else {
            le.to_string()
        };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!(
        "{name}_sum {}\n{name}_count {}\n",
        h.sum_us(),
        h.count()
    ));
}

/// Make [`CacheStats`] addressable for the JSON `stats` op.
pub fn cache_stats_fields(s: &CacheStats) -> Vec<(String, crate::json::Json)> {
    use crate::json::Json;
    vec![
        ("hits".into(), Json::Num(s.hits as f64)),
        ("planned".into(), Json::Num(s.planned as f64)),
        ("waited".into(), Json::Num(s.waited as f64)),
        ("evictions".into(), Json::Num(s.evictions as f64)),
        ("entries".into(), Json::Num(s.entries as f64)),
        ("requests".into(), Json::Num(s.requests() as f64)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 101_106);
        // Median of {1,2,3,100,1000,100000} sits in the bucket covering 3µs.
        let med = h.quantile_us(0.5);
        assert!((3..=8).contains(&med), "median bucket bound {med}");
        // p99 lands in the top occupied bucket (100ms < 2^17 = 131072µs).
        assert_eq!(h.quantile_us(0.99), 131_072);
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn renders_parseable_exposition_text() {
        let m = ServiceMetrics::new();
        m.plan.record(Duration::from_micros(250), true);
        m.run.record(Duration::from_micros(4000), false);
        let cache = ShardedPlanCache::new(2, 4);
        let verdicts = pdm_runtime::sharded::VerdictCache::new(2);
        let text = render_metrics(&m, &cache, &verdicts);
        assert!(text.contains("pdm_requests_total{op=\"plan\"} 1"));
        assert!(text.contains("pdm_request_errors_total{op=\"run\"} 1"));
        assert!(text.contains("pdm_cache_hits_total 0"));
        assert!(text.contains("le=\"+Inf\""));
        // Cumulative bucket counts end at the total count.
        assert!(text.contains("pdm_request_latency_us_plan_count 1"));
    }

    #[test]
    fn renders_hardening_counters() {
        let m = ServiceMetrics::new();
        m.panics.store(3, Ordering::Relaxed);
        m.shed.store(2, Ordering::Relaxed);
        m.deadline_exceeded.store(1, Ordering::Relaxed);
        m.active_connections.store(5, Ordering::Relaxed);
        m.inspector_certified.store(7, Ordering::Relaxed);
        m.inspector_refined.store(2, Ordering::Relaxed);
        m.inspector_rejected.store(1, Ordering::Relaxed);
        m.inspector_audit.record(Duration::from_micros(80));
        m.inspector_interval_hits.store(5, Ordering::Relaxed);
        let cache = ShardedPlanCache::new(1, 2);
        let verdicts = pdm_runtime::sharded::VerdictCache::with_capacity(1, 2);
        use pdm_runtime::Verdict;
        verdicts.insert_interval(9, &[(10, i64::MAX)], Verdict::Certified);
        verdicts.get_with_source(9, &[50]);
        verdicts.get_with_source(9, &[0]);
        verdicts.insert(9, vec![0], Verdict::Certified);
        verdicts.insert(9, vec![1], Verdict::Certified);
        verdicts.insert(9, vec![2], Verdict::Certified);
        let text = render_metrics(&m, &cache, &verdicts);
        assert!(text.contains("pdm_inspector_certified_total 7"));
        assert!(text.contains("pdm_inspector_refined_total 2"));
        assert!(text.contains("pdm_inspector_rejected_total 1"));
        assert!(text.contains("pdm_inspector_audit_us_count 1"));
        assert!(text.contains("pdm_inspector_interval_hits_total 5"));
        assert!(text.contains("pdm_verdict_cache_interval_hits_total 1"));
        assert!(text.contains("pdm_verdict_cache_misses_total 1"));
        assert!(text.contains("pdm_verdict_cache_evictions_total 1"));
        assert!(text.contains("pdm_verdict_cache_entries 2"));
        assert!(text.contains("pdm_verdict_cache_intervals 1"));
        assert!(text.contains("pdm_panics_total 3"));
        assert!(text.contains("pdm_shed_total 2"));
        assert!(text.contains("pdm_deadline_exceeded_total 1"));
        assert!(text.contains("pdm_accept_errors_total 0"));
        assert!(text.contains("pdm_active_connections 5"));
    }
}
