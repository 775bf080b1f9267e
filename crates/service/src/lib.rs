//! # pdm-service — the plan-serving layer behind the [`Session`] API
//!
//! Planning a loop nest (dependence analysis, uniformization, wavefront
//! partitioning) costs far more than instantiating or running the
//! resulting template. This crate turns the pipeline into a long-running
//! *service*: a process plans each nest **shape** once, caches the
//! symbolic [`PlanTemplate`](pdm_core::template::PlanTemplate) in a
//! sharded single-flight cache, and serves instantiations and runs to
//! many clients at memory speed.
//!
//! Two entry points:
//!
//! * **In-process:** [`Session`] — the unified front end. One object,
//!   one error type ([`PdmError`]), `&self` everywhere, safe to share
//!   across threads.
//!
//!   ```
//!   use pdm_service::Session;
//!
//!   let session = Session::new();
//!   let shape = session
//!       .parse_symbolic("for i = 1..=N { A[i + 2] = A[i] + 1; }", &["N"])
//!       .unwrap();
//!   let outcome = session.run(&shape, &[("N", 50)], 1).unwrap();
//!   assert_eq!(outcome.iterations, 50);
//!   ```
//!
//! * **Over TCP:** [`PlanServer`] / [`ServiceClient`] — the same
//!   session fronted by a socket, with per-operation metrics and a
//!   Prometheus-style `/metrics` page.
//!
//! ## Wire protocol
//!
//! Transport: TCP. Every message — request or response — is one
//! **frame**: a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON (max [`wire::MAX_FRAME`] = 16 MiB). A client
//! sends one request frame and reads one response frame; responses come
//! back in request order on each connection. Malformed requests produce
//! `{"ok": false}` responses, never a dropped connection. Both ends
//! write a frame's header and payload in one write, and read through a
//! buffer kept for the connection, so a frame that arrives whole costs
//! one syscall to send and one to receive.
//!
//! The frame limit is enforced in **both** directions without tearing
//! the stream: [`ServiceClient::call`] refuses an oversized request
//! with a typed `protocol` error before any byte hits the socket (the
//! connection stays usable), and a handler whose response body would
//! exceed the limit has that body replaced by an in-band
//! `{"ok": false, "kind": "protocol"}` frame rather than a torn or
//! half-written frame.
//!
//! Requests are objects with an `"op"` field. A nest shape is named
//! either by `"source"` (DSL text, with `"params"` listing the names
//! left symbolic) or by `"shape_hash"` — the structural hash of a shape
//! this server already planned, as a `"0x"`-prefixed 16-digit hex
//! string (JSON numbers are doubles and cannot carry 64 bits).
//!
//! | op | request fields | response fields |
//! |----|----------------|-----------------|
//! | `plan` | `source` + `params`, or `shape_hash` | `shape_hash`, `depth`, `doall`, `partitions`, `params` |
//! | `instantiate` | shape + `values` (`{"N": 64}`) | plan fields + `groups` |
//! | `run` | shape + `values`, optional `seed` | plan fields + `iterations`, `checksum`, `observed_threads` (the most threads any pool region of this request ran on: 1 when it opened none or every region finished on the handler thread, which a region shorter than [`rayon::SPAWN_AFTER`] does), `observed_steals` (blocks helper threads took, summed over the request's regions), and — for inspected (parametric-subscript) shapes — `verdict` plus `interval_hit` (true when the verdict came from a certified stability interval instead of an audit) |
//! | `stats` | — | `cache` (counters), `shards` (per-shard), `requests_total`, `template_acquire_mean_us` |
//! | `metrics` | — | `text`: the Prometheus-style exposition page |
//! | `shutdown` | — | confirms, then the server drains and exits |
//!
//! Any request may additionally carry `"deadline_ms"` (non-negative
//! integer): a cooperative budget for that one request, honored by
//! **every** op — `plan` and `instantiate` check it around template
//! resolution and lowering exactly as `run` checks it around planning,
//! inspection, memory initialization, and each execution stage. The
//! server checks the budget **between** pipeline stages (never
//! preemptively — a stage already running completes), and abandons
//! remaining work with a `deadline_exceeded` failure once it has
//! passed.
//!
//! Integer fields (`values`, `seed`, `deadline_ms`) must be exact: an
//! integral JSON number of magnitude below 2⁵³ that fits the field
//! (`i64` values, `u64` seed and budget). Anything else is a
//! `protocol` error, never a rounded or saturated stand-in.
//!
//! Every response carries `"ok"` (bool) and `"op"` (echo); failures add
//! `"kind"` and `"error"` (message). The kinds:
//!
//! | kind | meaning | retry? |
//! |------|---------|--------|
//! | `parse`, `plan`, `runtime`, `protocol` | the request itself is at fault | no — fix the request |
//! | `unknown_shape` | hash never planned here, or evicted | no — resubmit the `source` |
//! | `overloaded` | connection shed at the server's cap of `workers − 1` live connections, or because the OS refused a thread | yes, after backoff |
//! | `deadline_exceeded` | the request's `deadline_ms` budget ran out | yes, with a larger budget |
//! | `planning_failed` | the planning run for this shape panicked; the flight is cleared | yes — the retry re-plans |
//! | `timeout`, `io` | transport-level failure (client-side kinds) | yes, usually on a fresh connection |
//!
//! Retry semantics: `plan`/`instantiate`/`stats`/`metrics` are
//! idempotent, and `run` is deterministic for a given `seed`, so
//! retrying any of them is always safe.
//! [`ServiceClient::call_retrying`] implements the recommended policy —
//! capped exponential backoff (25 ms doubling to 1 s), reconnecting on
//! transport errors, retrying the retryable kinds above and surfacing
//! everything else immediately.
//!
//! Example exchange (frame lengths omitted):
//!
//! ```text
//! → {"op":"plan","source":"for i = 1..=N { A[i+2] = A[i] + 1; }","params":["N"]}
//! ← {"ok":true,"op":"plan","shape_hash":"0x5b2d...","depth":1,...}
//! → {"op":"run","shape_hash":"0x5b2d...","values":{"N":100},"seed":7}
//! ← {"ok":true,"op":"run","iterations":100,"checksum":4950,...}
//! ```
//!
//! ## Concurrency model
//!
//! [`PlanServer::serve`] runs one `std::thread::scope` in which every
//! connection has a thread of its own: the thread that accepts a
//! connection serves it, and a fresh scoped thread takes over
//! accepting, so no thread start delays a connection's first request.
//! The handler reads frames through one [`std::io::BufReader`] over the
//! socket and writes each response straight to it: frames in,
//! responses out, until EOF, a socket error or shutdown, which it polls
//! at every idle read timeout. No connection waits behind another, and
//! an idle connection costs a blocked thread, not a spinning one. A
//! request's own parallel regions run on the vendored pool's work-first
//! `par_iter`, at the session's pool width. Template planning is
//! deduplicated by the session's
//! [`ShardedPlanCache`](pdm_runtime::ShardedPlanCache): when several
//! connections request an unplanned shape at once, exactly one plans
//! and the rest block on a condvar and share the leader's `Arc`.
//!
//! ## Hardening
//!
//! The serving path is built to degrade, not die:
//!
//! * **Panic isolation** — every connection handler and planning run
//!   is unwind-caught; a panic kills one request, increments
//!   `pdm_panics_total`, and poisons nothing. A panicked single-flight
//!   leader wakes its followers with `planning_failed` and clears the
//!   flight so the next request re-plans.
//! * **Backpressure** — [`PlanServer::bind`]'s `workers` counts the
//!   acceptor plus the handlers, so at most `workers − 1` connections
//!   are served at once. The next one is shed with one in-band
//!   `overloaded` frame (counted in `pdm_shed_total`) instead of
//!   queueing. A connection's slot is released before its socket
//!   closes, so a client that reconnects on EOF is never shed for the
//!   slot it just gave up.
//! * **Timeouts** — clients never hang: reads time out
//!   (`PDM_CLIENT_READ_TIMEOUT_MS`, default 10 000, overridable per
//!   client via [`ClientBuilder`]), and both sides abandon peers that
//!   stall mid-frame.
//! * **One executor** — every served run (certified, refined, rejected
//!   in original order, or uninspected) runs on the compiled walker,
//!   and a failed compiled run is a typed error frame. The sequential
//!   reference interpreter is the test oracle, not a serving path.
//! * **Fault injection** — the [`faults`] module plants probes on the
//!   serving path (leader panics, handler panics, torn frames, delayed
//!   reads, dropped sockets), armed via `PDM_FAULTS`
//!   (`"probe:probability[:limit],…"`, seeded by `PDM_PROPTEST_SEED`)
//!   or per-session through [`SessionBuilder::faults`]. Disarmed
//!   probes cost one relaxed atomic load.
//!
//! ## Inspection and the verdict cache
//!
//! Parametric-subscript shapes are audited per valuation and the
//! verdict cached in a bounded, sharded
//! [`VerdictCache`](pdm_runtime::sharded::VerdictCache) (LRU per
//! shard; capacity via [`SessionBuilder::verdict_capacity`]). When the
//! audited access geometry admits it, the session also derives a **stability
//! interval** — a box of valuations on which the verdict provably
//! holds — and caches it ahead of the point entries, so in-interval
//! valuations skip the audit entirely. The `/metrics` page exposes
//! `pdm_inspector_{certified,refined,rejected}_total`,
//! `pdm_inspector_interval_hits_total`, audit latency, and
//! `pdm_verdict_cache_{hits,interval_hits,misses,evictions}_total`
//! with the `pdm_verdict_cache_{entries,intervals}` gauges.
//!
//! This crate also owns the dependency-free [`json`] module (parser +
//! serializer) that frames the wire protocol.

pub mod error;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod server;
pub mod session;
pub mod wire;

pub use error::PdmError;
pub use faults::Faults;
pub use metrics::{LatencyHistogram, OpMetrics, ServiceMetrics};
pub use server::{ClientBuilder, PlanServer, ServiceClient};
pub use session::{Deadline, RunOutcome, Session, SessionBuilder};
