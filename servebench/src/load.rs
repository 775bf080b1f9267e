//! The untraced pass: a live `PlanServer` on loopback, driven by one
//! closed-loop client per connection. Each client sends its next
//! request only after the previous response arrived, and times every
//! round trip with its own `Instant` samples.

use crate::reference::References;
use crate::workload::{Catalog, Op, Request, ShapeRef, Stream, Workload, CONNECTIONS};
use pdm_runtime::sharded::{CacheStats, VerdictCacheStats};
use pdm_service::json::{self, Json};
use pdm_service::wire::ShutdownFlag;
use pdm_service::{Faults, PlanServer, ServiceClient, Session};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Session and server shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Template-cache shards (also the verdict-cache shard count).
    pub shards: usize,
    /// Templates per shard.
    pub capacity: usize,
    /// Verdict point entries per shard.
    pub verdict_capacity: usize,
    /// Execution pool width: the machine width.
    pub threads: usize,
    /// Client connections: the workload's count, at most the machine
    /// width.
    pub connections: usize,
}

impl Config {
    /// The configuration `workload` runs under on this machine.
    pub fn for_workload(workload: Workload) -> Config {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (shards, capacity, verdict_capacity) = match workload {
            // 128 template slots: the 67 warm shapes fit, and the
            // stream of cold shapes keeps the LRU evicting.
            Workload::StormSmall => (8, 16, 16),
            // 2 x 16 verdict points: the hot valuations stay cached,
            // the fresh pool (hundreds of valuations) churns.
            Workload::InspectMixed => (2, 8, 16),
        };
        Config {
            shards,
            capacity,
            verdict_capacity,
            threads: nproc,
            connections: CONNECTIONS.min(nproc),
        }
    }

    /// A fresh session with this configuration and no fault probes.
    pub fn session(&self) -> Session {
        Session::builder()
            .cache_capacity(self.shards, self.capacity)
            .verdict_capacity(self.verdict_capacity)
            .threads(self.threads)
            .faults(Faults::disabled())
            .build()
    }
}

/// A serving process: session, server thread and connected clients.
pub struct Server {
    /// The session the server fronts.
    pub session: Arc<Session>,
    /// One connected client per connection.
    pub clients: Vec<ServiceClient>,
    flag: Arc<ShutdownFlag>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Construct the session, bind, connect the clients and serve, then
    /// plan every warm shape over the wire. Returns the server and the
    /// seconds all of that took (the `setup_s` sample).
    pub fn start(cfg: &Config, catalog: &Catalog) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let session = Arc::new(cfg.session());
        let server = PlanServer::bind("127.0.0.1:0", Arc::clone(&session), cfg.connections + 1)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        // Connect before serving: the connections wait in the listen
        // backlog, so the acceptor's first polls take them at once
        // instead of after a poll-interval sleep.
        let clients = (0..cfg.connections)
            .map(|_| ServiceClient::connect(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let flag = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.serve());
        let mut server = Server {
            session,
            clients,
            flag,
            handle,
        };
        if let Err(e) = server.plan_warm(catalog) {
            let _ = server.stop();
            return Err(e);
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    fn plan_warm(&mut self, catalog: &Catalog) -> Result<(), String> {
        for i in 0..catalog.shapes.len() {
            let resp = self.clients[0]
                .call(&catalog.plan_frame(i))
                .map_err(|e| format!("warm plan of shape {i}: {e}"))?;
            if resp.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("warm plan of shape {i}: {}", json::render(&resp)));
            }
        }
        Ok(())
    }

    /// Close the clients, stop the server and wait for its thread.
    pub fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.flag.set();
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("the server thread panicked".into()),
        }
    }
}

/// Session counters read through the public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Template cache.
    pub cache: CacheStats,
    /// Verdict cache.
    pub verdicts: VerdictCacheStats,
}

impl Counters {
    /// Current values.
    pub fn read(session: &Session) -> Counters {
        Counters {
            cache: session.cache_stats(),
            verdicts: session.verdicts().stats(),
        }
    }

    /// Counts accrued since `before` (occupancy gauges as of now).
    pub fn since(&self, before: &Counters) -> Counters {
        let (c, b) = (&self.cache, &before.cache);
        let (v, w) = (&self.verdicts, &before.verdicts);
        Counters {
            cache: CacheStats {
                hits: c.hits - b.hits,
                planned: c.planned - b.planned,
                waited: c.waited - b.waited,
                evictions: c.evictions - b.evictions,
                entries: c.entries,
            },
            verdicts: VerdictCacheStats {
                hits: v.hits - w.hits,
                interval_hits: v.interval_hits - w.interval_hits,
                misses: v.misses - w.misses,
                evictions: v.evictions - w.evictions,
                entries: v.entries,
                intervals: v.intervals,
            },
        }
    }
}

/// One answered (or failed) request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// The request sent.
    pub req: Request,
    /// Round trip, send to full response, in nanoseconds.
    pub ns: i64,
    /// Send time in seconds since the measured window opened (negative
    /// during warm-up).
    pub at: f64,
    /// Answered `ok: true`, with a correct checksum for `run`?
    pub ok: bool,
    /// `run` checksum from the response.
    pub checksum: Option<f64>,
    /// `run` verdict kind from the response, for inspected shapes.
    pub verdict: Option<&'static str>,
    /// Did a certified interval answer the verdict?
    pub interval_hit: bool,
    /// `observed_threads` of a `run` response.
    pub threads: u32,
    /// `observed_steals` of a `run` response.
    pub steals: u32,
}

impl Record {
    /// Sent inside the measured window (not during warm-up)?
    pub fn measured(&self) -> bool {
        self.at >= 0.0
    }
}

/// Everything the untraced pass observed.
pub struct Pass {
    /// Per connection, in send order (warm-up requests included).
    pub records: Vec<Vec<Record>>,
    /// Length of the measured window, in seconds.
    pub window_s: f64,
    /// Descriptions of failed requests (capped).
    pub errors: Vec<String>,
    /// `run` responses whose checksum differed from the reference.
    pub mismatches: u64,
}

impl Pass {
    /// Records inside the measured window.
    pub fn measured(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().flatten().filter(|r| r.measured())
    }
}

/// Errors kept per connection for the report.
const MAX_ERRORS: usize = 8;

struct ConnOutcome {
    records: Vec<Record>,
    errors: Vec<String>,
    mismatches: u64,
}

/// Drive every connection closed-loop for `warmup` untimed, then for
/// `window` measured, each on its own seeded stream.
pub fn drive(
    server: &mut Server,
    workload: Workload,
    seed: u64,
    catalog: &Catalog,
    refs: &References,
    warmup: Duration,
    window: Duration,
) -> Pass {
    let start = Instant::now();
    let measure_from = start + warmup;
    let stop_at = measure_from + window;
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = server
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let stream = Stream::new(workload, seed, conn);
                scope.spawn(move || {
                    client_loop(client, stream, catalog, refs, measure_from, stop_at)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        records: Vec::new(),
        window_s: window.as_secs_f64(),
        errors: Vec::new(),
        mismatches: 0,
    };
    for o in outcomes {
        pass.records.push(o.records);
        pass.errors.extend(o.errors);
        pass.mismatches += o.mismatches;
    }
    pass
}

fn client_loop(
    client: &mut ServiceClient,
    stream: Stream,
    catalog: &Catalog,
    refs: &References,
    measure_from: Instant,
    stop_at: Instant,
) -> ConnOutcome {
    let mut out = ConnOutcome {
        records: Vec::new(),
        errors: Vec::new(),
        mismatches: 0,
    };
    for req in stream {
        let now = Instant::now();
        if now >= stop_at {
            break;
        }
        let at = match now.checked_duration_since(measure_from) {
            Some(d) => d.as_secs_f64(),
            None => -(measure_from - now).as_secs_f64(),
        };
        let frame = catalog.render(&req);
        let t0 = Instant::now();
        let result = client.call(&frame);
        let mut record = Record {
            req,
            ns: t0.elapsed().as_nanos() as i64,
            at,
            ok: false,
            checksum: None,
            verdict: None,
            interval_hit: false,
            threads: 0,
            steals: 0,
        };
        let failure = match result {
            Ok(resp) => check(&mut record, &resp, refs),
            Err(e) => {
                let _ = client.reconnect();
                Err(Failure {
                    why: format!("transport: {e}"),
                    mismatch: false,
                })
            }
        };
        if let Err(Failure { why, mismatch }) = failure {
            out.mismatches += u64::from(mismatch);
            if out.errors.len() < MAX_ERRORS {
                out.errors
                    .push(format!("{} {}: {why}", req.op.name(), frame));
            }
        }
        out.records.push(record);
    }
    out
}

/// Why a request failed.
struct Failure {
    why: String,
    /// A `run` checksum that differs from the reference.
    mismatch: bool,
}

/// Fill `record` from `resp`, or say why the request failed.
fn check(record: &mut Record, resp: &Json, refs: &References) -> Result<(), Failure> {
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return Err(Failure {
            why: json::render(resp),
            mismatch: false,
        });
    }
    let req = record.req;
    if req.op == Op::Run {
        record.checksum = resp.get_num("checksum");
        record.verdict = match resp.get_str("verdict") {
            Some("certified") => Some("certified"),
            Some("refined") => Some("refined"),
            Some("rejected") => Some("rejected"),
            Some(_) => Some("unknown"),
            None => None,
        };
        record.interval_hit = resp.get("interval_hit") == Some(&Json::Bool(true));
        record.threads = resp.get_num("observed_threads").unwrap_or(0.0) as u32;
        record.steals = resp.get_num("observed_steals").unwrap_or(0.0) as u32;
        let expected = match req.shape {
            ShapeRef::Warm(shape) => refs.get(shape, req.value, req.seed),
            ShapeRef::Cold(_) => None,
        };
        if expected.is_none() || expected.map(|c| c as f64) != record.checksum {
            return Err(Failure {
                why: format!(
                    "checksum {:?} differs from the reference {expected:?}",
                    record.checksum
                ),
                mismatch: true,
            });
        }
    }
    record.ok = true;
    Ok(())
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
