//! The traced pass: replay the untraced pass's request stream
//! in-process and time every layer a request crosses.
//!
//! Each request runs twice, on two fresh sessions that were warmed like
//! the server's: once through `wire::dispatch` (the server's in-process
//! work, which the client round trip minus this time leaves as server
//! transit), and once stage by stage, calling the public function of
//! each layer in the order `wire::dispatch`, `Session::plan` and
//! `Session::run_template_within` call them. The staged replay computes
//! its own `run` checksum, which must equal the wire response's.

use crate::load::{Config, Pass};
use crate::reference::memory_checksum;
use crate::workload::{Catalog, Stream, Workload};
use pdm_core::template::{plan_template, PlanTemplate};
use pdm_runtime::inspector::{self, Verdict};
use pdm_runtime::{CompiledPlan, Memory, RuntimeError};
use pdm_service::json::{self, Json};
use pdm_service::{wire, Session};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage names: each becomes a `<stage>_us` (p50) and a
/// `<stage>_busy_ms` (total) per-layer metric.
pub const TRANSIT: &str = "server.transit";
/// In-process `wire::dispatch` of the whole request.
pub const DISPATCH: &str = "wire.dispatch";
/// `json::parse` of the request frame.
pub const DECODE: &str = "wire.decode";
/// `parse_loop_symbolic` of the source.
pub const PARSE: &str = "loopir.parse";
/// Template-cache acquisition, minus any planning run inside it.
pub const ACQUIRE: &str = "sharded.acquire";
/// `plan_template` on a shape the cache lacked.
pub const PLAN: &str = "template.plan";
/// `instantiate_nest` + `instantiate`.
pub const INSTANTIATE: &str = "template.instantiate";
/// `Memory::for_nest`.
pub const ALLOC: &str = "memory.alloc";
/// `CompiledPlan::compile`.
pub const LOWER: &str = "compile.lower";
/// `exec::group_count` (what `instantiate` reports).
pub const GROUP_COUNT: &str = "schedule.group_count";
/// Verdict-cache probe.
pub const LOOKUP: &str = "verdict.lookup";
/// `inspector::audit` on a verdict-cache miss.
pub const AUDIT: &str = "inspector.audit";
/// `stability_box` plus the verdict-cache insert after an audit.
pub const CERTIFY: &str = "verdict.certify";
/// `init_deterministic`.
pub const SEED: &str = "memory.seed";
/// `run_parallel_scheduled` (uninspected or certified runs).
pub const EXECUTE: &str = "compile.execute";
/// `run_refined_compiled` (refined verdicts).
pub const REFINED: &str = "inspector.refined_execute";
/// `run_sequential` (rejected verdicts).
pub const SEQUENTIAL: &str = "exec.sequential";
/// `snapshot` + wrapping fold.
pub const CHECKSUM: &str = "memory.checksum";
/// `json::render` of the response.
pub const ENCODE: &str = "wire.encode";

/// Every stage, in request order.
pub const STAGES: [&str; 19] = [
    TRANSIT,
    DISPATCH,
    DECODE,
    PARSE,
    ACQUIRE,
    PLAN,
    INSTANTIATE,
    ALLOC,
    LOWER,
    GROUP_COUNT,
    LOOKUP,
    AUDIT,
    CERTIFY,
    SEED,
    EXECUTE,
    REFINED,
    SEQUENTIAL,
    CHECKSUM,
    ENCODE,
];

/// What the traced pass measured over the measured-window requests.
#[derive(Default)]
pub struct Ledger {
    /// Nanosecond samples per stage.
    pub samples: BTreeMap<&'static str, Vec<i64>>,
    /// Requests replayed inside the measured window.
    pub requests: u64,
    /// Cells allocated by `Memory::for_nest`.
    pub cells: u64,
    /// Allocations made.
    pub allocations: u64,
    /// Iterations executed by `run_parallel_scheduled`.
    pub executed_iterations: u64,
    /// Iterations of nests the inspector audited.
    pub audited_iterations: u64,
    /// Summed staged (traced) request time, ns.
    pub traced_ns: i64,
    /// Summed in-process dispatch (untraced) request time, ns.
    pub untraced_ns: i64,
    /// Replayed `run` checksums that differ from the wire response's.
    pub mismatches: u64,
}

impl Ledger {
    /// Total nanoseconds of one stage.
    pub fn busy_ns(&self, stage: &str) -> i64 {
        self.samples.get(stage).map_or(0, |s| s.iter().sum())
    }
}

/// Per-request stage timings.
#[derive(Default)]
struct Timer {
    marks: Vec<(&'static str, i64)>,
}

impl Timer {
    fn time<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.marks.push((stage, t0.elapsed().as_nanos() as i64));
        out
    }
}

/// What a staged replay produced besides its timings.
#[derive(Default)]
struct Facts {
    cells: Option<u64>,
    executed_iterations: u64,
    audited_iterations: u64,
    checksum: Option<i64>,
}

/// Plan every warm shape on `session`, as the server's set-up does.
fn warm(session: &Session, catalog: &Catalog) -> Result<(), String> {
    for s in &catalog.shapes {
        let nest = session
            .parse_symbolic(&s.source, &[s.param])
            .map_err(|e| e.to_string())?;
        session.plan(&nest).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Replay `pass`'s requests, connection streams interleaved round
/// robin, and build the ledger of the measured ones. The warm-up
/// requests are all replayed, so the caches match the server's; the
/// replay stops at the first round that starts `budget` after the first
/// measured request.
pub fn replay(
    workload: Workload,
    seed: u64,
    cfg: &Config,
    catalog: &Catalog,
    pass: &Pass,
    budget: Duration,
) -> Result<Ledger, String> {
    // A thread of its own, as the server's connection handlers have:
    // the allocator keeps an arena per thread, and a run's multi-MiB
    // arrays come and go there.
    std::thread::scope(|scope| {
        scope
            .spawn(|| replay_here(workload, seed, cfg, catalog, pass, budget))
            .join()
            .map_err(|_| "the traced replay panicked".to_string())?
    })
}

fn replay_here(
    workload: Workload,
    seed: u64,
    cfg: &Config,
    catalog: &Catalog,
    pass: &Pass,
    budget: Duration,
) -> Result<Ledger, String> {
    let dispatched = cfg.session();
    let staged = cfg.session();
    warm(&dispatched, catalog)?;
    warm(&staged, catalog)?;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .map_err(|e| format!("pool: {e:?}"))?;
    let mut streams: Vec<Stream> = (0..pass.records.len())
        .map(|c| Stream::new(workload, seed, c))
        .collect();
    let rounds = pass.records.iter().map(Vec::len).max().unwrap_or(0);
    let mut ledger = Ledger::default();
    let mut measured_from: Option<Instant> = None;
    for i in 0..rounds {
        if measured_from.is_some_and(|t| t.elapsed() > budget) {
            break;
        }
        for (c, stream) in streams.iter_mut().enumerate() {
            let Some(record) = pass.records[c].get(i) else {
                continue;
            };
            let req = stream.next().expect("streams are endless");
            if req != record.req {
                return Err(format!(
                    "connection {c} request {i}: the stream did not replay"
                ));
            }
            let frame = catalog.render(&req);
            let t0 = Instant::now();
            let response = wire::dispatch(&dispatched, &frame);
            let dispatch_ns = t0.elapsed().as_nanos() as i64;
            let mut timer = Timer::default();
            let t0 = Instant::now();
            let facts = staged_request(&staged, &pool, &frame, &response.body, &mut timer)
                .map_err(|e| format!("staged replay of {frame}: {e}"))?;
            let staged_ns = t0.elapsed().as_nanos() as i64;
            if let Some(sum) = facts.checksum {
                if Some(sum as f64) != record.checksum {
                    ledger.mismatches += 1;
                }
            }
            if !record.measured() {
                continue;
            }
            measured_from.get_or_insert_with(Instant::now);
            ledger.requests += 1;
            ledger.traced_ns += staged_ns;
            ledger.untraced_ns += dispatch_ns;
            ledger.cells += facts.cells.unwrap_or(0);
            ledger.allocations += u64::from(facts.cells.is_some());
            ledger.executed_iterations += facts.executed_iterations;
            ledger.audited_iterations += facts.audited_iterations;
            let marks = [(TRANSIT, record.ns - dispatch_ns), (DISPATCH, dispatch_ns)];
            for (stage, ns) in marks.into_iter().chain(timer.marks) {
                ledger.samples.entry(stage).or_default().push(ns);
            }
        }
    }
    Ok(ledger)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One request, stage by stage, on `session`'s caches.
fn staged_request(
    session: &Session,
    pool: &rayon::ThreadPool,
    frame: &str,
    response_body: &str,
    t: &mut Timer,
) -> Result<Facts, String> {
    let mut facts = Facts::default();
    let req = t.time(DECODE, || json::parse(frame))?;
    let op = req.get_str("op").ok_or("no op")?;
    let source = req.get_str("source").ok_or("no source")?;
    let params: Vec<&str> = match req.get("params") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|p| match p {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    let nest = t
        .time(PARSE, || {
            pdm_loopir::parse::parse_loop_symbolic(source, &params)
        })
        .map_err(err)?;
    let mut plan_ns = None;
    let template = t
        .time(ACQUIRE, || {
            session.cache().get_or_plan_with(&nest, || {
                let t0 = Instant::now();
                let planned = plan_template(&nest)
                    .map(Arc::new)
                    .map_err(RuntimeError::from);
                plan_ns = Some(t0.elapsed().as_nanos() as i64);
                planned
            })
        })
        .map_err(err)?;
    if let Some(ns) = plan_ns {
        // Self time: the planning run is its own stage.
        if let Some(acquire) = t.marks.last_mut() {
            acquire.1 -= ns;
        }
        t.marks.push((PLAN, ns));
    }
    if op != "plan" {
        let values: Vec<(&str, i64)> = match req.get("values") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Num(n) => Some((k.as_str(), *n as i64)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        // `run` seeds memory (1 when the request names no seed).
        let seed = (op == "run").then(|| req.get_num("seed").unwrap_or(1.0) as u64);
        instance_stages(session, pool, &template, &values, seed, t, &mut facts)?;
    }
    let response = json::parse(response_body)?;
    t.time(ENCODE, || json::render(&response));
    Ok(facts)
}

/// Instantiate; for a `run` (a memory `seed` given) also inspect, seed,
/// execute and checksum.
fn instance_stages(
    session: &Session,
    pool: &rayon::ThreadPool,
    template: &PlanTemplate,
    values: &[(&str, i64)],
    seed: Option<u64>,
    t: &mut Timer,
    facts: &mut Facts,
) -> Result<(), String> {
    let (nest, plan) = t
        .time(INSTANTIATE, || {
            Ok::<_, pdm_core::CoreError>((
                template.instantiate_nest(values)?,
                template.instantiate(values)?,
            ))
        })
        .map_err(err)?;
    let mut memory = t.time(ALLOC, || Memory::for_nest(&nest)).map_err(err)?;
    facts.cells = Some(memory.arrays().iter().map(|a| a.len() as u64).sum());
    let compiled = t
        .time(LOWER, || CompiledPlan::compile(&nest, &plan, &memory))
        .map_err(err)?;
    let Some(seed) = seed else {
        t.time(GROUP_COUNT, || pdm_runtime::exec::group_count(&plan))
            .map_err(err)?;
        return Ok(());
    };
    let mut audited = false;
    let verdict = if template.requires_inspection() {
        let valuation: Vec<i64> = template
            .param_names()
            .iter()
            .map(|name| values.iter().find(|(k, _)| k == name).map_or(0, |v| v.1))
            .collect();
        let hash = template.nest().structural_hash();
        match t.time(LOOKUP, || {
            session.verdicts().get_with_source(hash, &valuation)
        }) {
            Some((v, _)) => Some(v),
            None => {
                let v = t
                    .time(AUDIT, || inspector::audit(&nest, &plan))
                    .map_err(err)?;
                audited = true;
                t.time(CERTIFY, || match template.stability_box(values) {
                    Ok(Some(bounds)) => {
                        session.verdicts().insert_interval(hash, &bounds, v.clone())
                    }
                    _ => session.verdicts().insert(hash, valuation, v.clone()),
                });
                Some(v)
            }
        }
    } else {
        None
    };
    t.time(SEED, || memory.init_deterministic(seed));
    let schedule = session.schedule();
    let iterations = match &verdict {
        Some(Verdict::Refined { stages }) => t.time(REFINED, || {
            pool.install(|| inspector::run_refined_compiled(&compiled, &memory, stages, schedule))
        }),
        Some(Verdict::Rejected { .. }) => {
            t.time(SEQUENTIAL, || pdm_runtime::run_sequential(&nest, &memory))
        }
        None | Some(Verdict::Certified) => {
            let n = t.time(EXECUTE, || {
                pool.install(|| compiled.run_parallel_scheduled(&memory, schedule))
            });
            if let Ok(n) = n {
                facts.executed_iterations = n;
            }
            n
        }
    }
    .map_err(err)?;
    if audited {
        facts.audited_iterations = iterations;
    }
    facts.checksum = Some(t.time(CHECKSUM, || memory_checksum(&memory)));
    Ok(())
}
