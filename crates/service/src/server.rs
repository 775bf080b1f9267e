//! [`PlanServer`] — a long-running plan-serving process, and
//! [`ServiceClient`] — the matching blocking client.
//!
//! The server owns a [`Session`] (so every connection shares one
//! sharded template cache and one metrics sink) and a bound
//! `TcpListener`. [`PlanServer::serve`] runs one `std::thread::scope`
//! in which every connection has a thread of its own, so no connection
//! ever waits behind another: the thread that accepts a connection
//! serves it, and a fresh scoped thread takes over accepting. At most
//! `workers − 1` connections are served at once; the next one is shed
//! with one in-band `overloaded` frame. A `shutdown` request (or
//! [`PlanServer::shutdown_handle`]) drains the scope cleanly: the
//! acceptor stops accepting and every handler notices the flag at its
//! next read timeout.

use crate::error::PdmError;
use crate::faults;
use crate::metrics::ServiceMetrics;
use crate::session::Session;
use crate::wire::{self, Frame, ShutdownFlag};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// How long a blocked read waits before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// One slot of the live-connection gauge, released on drop — on any
/// handler exit, panic included.
struct ActiveGuard<'a>(&'a ServiceMetrics);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An admitted connection: its slot under the cap and its socket.
/// Fields drop in declaration order, so the slot is free before the
/// socket closes: a client that sees EOF and reconnects at once is
/// never shed for the slot it just gave up.
struct Connection<'a> {
    _slot: ActiveGuard<'a>,
    stream: TcpStream,
}

/// A plan-serving endpoint: one shared [`Session`] behind a TCP
/// listener speaking the length-prefixed JSON protocol (crate docs).
pub struct PlanServer {
    listener: TcpListener,
    session: Arc<Session>,
    workers: usize,
    shutdown: Arc<ShutdownFlag>,
}

impl PlanServer {
    /// Bind to `addr` (use port 0 for an OS-assigned port) serving
    /// `session` on `workers` threads (at least 2): one accepts, the
    /// rest handle, so at most `workers − 1` connections are served at
    /// once. Connections past that cap are answered with an in-band
    /// `overloaded` error and closed instead of queueing.
    pub fn bind(
        addr: impl ToSocketAddrs,
        session: Arc<Session>,
        workers: usize,
    ) -> std::io::Result<PlanServer> {
        let listener = TcpListener::bind(addr)?;
        // Nonblocking so the acceptor can poll the shutdown flag.
        listener.set_nonblocking(true)?;
        Ok(PlanServer {
            listener,
            session,
            workers: workers.max(2),
            shutdown: Arc::new(ShutdownFlag::new()),
        })
    }

    /// The bound address (ask after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag another thread can set to stop [`PlanServer::serve`].
    pub fn shutdown_handle(&self) -> Arc<ShutdownFlag> {
        Arc::clone(&self.shutdown)
    }

    /// The session this server fronts.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Accept and serve until a `shutdown` request arrives or the
    /// [`PlanServer::shutdown_handle`] flag is set. The calling thread
    /// starts accepting; each admitted connection is served on the
    /// thread that accepted it while a fresh scoped thread takes over
    /// accepting, and the call returns once every handler has finished.
    ///
    /// A panicking handler increments `pdm_panics_total` and takes down
    /// only its connection — the acceptor and the other connections
    /// keep going. A fatal listener error sets the shutdown flag (so
    /// handlers drain) and is returned from here instead of being
    /// swallowed.
    pub fn serve(&self) -> std::io::Result<()> {
        let failure = OnceLock::new();
        std::thread::scope(|sc| self.accept_loop(sc, &failure));
        failure.into_inner().map_or(Ok(()), Err)
    }

    /// Poll-accept until the flag goes up, shedding connections past the
    /// cap. An admitted connection is served on this thread, which is
    /// already running, after a fresh thread has taken over accepting:
    /// a thread start never delays a connection's first request.
    fn accept_loop<'scope>(
        &'scope self,
        sc: &'scope Scope<'scope, '_>,
        failure: &'scope OnceLock<std::io::Error>,
    ) {
        let metrics = self.session.metrics();
        while !self.shutdown.is_set() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(conn) = self.admit(sc, failure, stream) {
                        return self.serve_connection(conn);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Listener-level failure: record it, stop everything
                // (handlers notice the flag at their next poll), and
                // let serve() surface it — never die silently.
                Err(e) => {
                    metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = failure.set(e);
                    self.shutdown.set();
                    return;
                }
            }
        }
    }

    /// Take a slot for `stream` and hand accepting to a fresh thread, or
    /// shed `stream` in band when the cap is reached or the OS refuses
    /// the thread.
    fn admit<'scope>(
        &'scope self,
        sc: &'scope Scope<'scope, '_>,
        failure: &'scope OnceLock<std::io::Error>,
        stream: TcpStream,
    ) -> Option<Connection<'scope>> {
        let metrics = self.session.metrics();
        // Backpressure gate: past the cap, answer with an in-band
        // `overloaded` error and close instead of queueing.
        if metrics.active_connections.load(Ordering::Relaxed) >= (self.workers - 1) as u64 {
            shed(metrics, stream);
            return None;
        }
        // Take the slot before the next acceptor starts, so a burst of
        // accepts cannot overshoot the cap.
        metrics.active_connections.fetch_add(1, Ordering::Relaxed);
        let slot = ActiveGuard(metrics);
        // `Builder::spawn_scoped` rather than `Scope::spawn`, which
        // panics when the OS refuses a thread — and a panicking acceptor
        // would wait forever on the open handlers.
        let successor =
            std::thread::Builder::new().spawn_scoped(sc, move || self.accept_loop(sc, failure));
        if successor.is_err() {
            drop(slot);
            shed(metrics, stream);
            return None;
        }
        Some(Connection {
            _slot: slot,
            stream,
        })
    }

    /// Serve one admitted connection, catching a handler panic.
    fn serve_connection(&self, conn: Connection<'_>) {
        let metrics = self.session.metrics();
        metrics.connections.fetch_add(1, Ordering::Relaxed);
        if catch_unwind(AssertUnwindSafe(|| self.handle_connection(conn))).is_err() {
            metrics.panics.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One connection: frames in, responses out, until EOF, shutdown,
    /// or a socket error. Frames are read through one buffer kept for
    /// the connection, so a request that arrived whole costs one read,
    /// and responses are written straight to the socket, one write each.
    fn handle_connection(&self, conn: Connection<'_>) {
        let metrics = self.session.metrics();
        let fault = self.session.faults();
        let mut stream = &conn.stream;
        let _ = stream.set_nodelay(true);
        // Timeouts turn blocked reads into Frame::Idle so the handler
        // can poll the shutdown flag.
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let mut reader = BufReader::new(stream);
        loop {
            match wire::read_frame(&mut reader) {
                Ok(Frame::Message(text)) => {
                    // Fault probes, in arrival order: a stalled read, a
                    // dropped socket, a handler panic — each models a
                    // distinct production failure at this exact point.
                    if fault.fire(faults::WIRE_DELAY) {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    if fault.fire(faults::NET_DROP) {
                        return;
                    }
                    fault.panic_if(faults::SERVER_HANDLER);
                    let t0 = Instant::now();
                    let resp = wire::dispatch(&self.session, &text);
                    let op = match resp.op_family {
                        "plan" => &metrics.plan,
                        "instantiate" => &metrics.instantiate,
                        "run" => &metrics.run,
                        _ => &metrics.control,
                    };
                    op.record(t0.elapsed(), resp.ok);
                    if fault.fire(faults::WIRE_TORN) {
                        let _ = write_torn_frame(&mut stream, &resp.body);
                        return;
                    }
                    if wire::write_frame(&mut stream, &resp.body).is_err() {
                        return;
                    }
                    if resp.shutdown {
                        self.shutdown.set();
                        return;
                    }
                }
                Ok(Frame::Idle) => {
                    if self.shutdown.is_set() {
                        return;
                    }
                }
                Ok(Frame::Eof) | Err(_) => return,
            }
        }
    }
}

/// Answer `stream` with one in-band `overloaded` error and close it.
fn shed(metrics: &ServiceMetrics, mut stream: TcpStream) {
    metrics.shed.fetch_add(1, Ordering::Relaxed);
    let _ = wire::write_frame(&mut stream, &wire::error_body("", &PdmError::Overloaded));
}

/// The `wire.torn` fault: a header promising the full payload followed
/// by only half of it, then the socket closes — what a crashed or
/// misbehaving server looks like to a client mid-response.
fn write_torn_frame(w: &mut impl std::io::Write, payload: &str) -> std::io::Result<()> {
    let mut frame = wire::encode_frame(payload)?;
    frame.truncate(4 + payload.len() / 2);
    w.write_all(&frame)?;
    w.flush()
}

/// Maximum backoff delay between reconnect attempts.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// Configuration for a [`ServiceClient`] connection.
///
/// ```no_run
/// use pdm_service::ServiceClient;
/// use std::time::Duration;
///
/// let client = ServiceClient::builder()
///     .read_timeout(Duration::from_millis(500))
///     .connect_timeout(Duration::from_millis(200))
///     .retries(5)
///     .connect("127.0.0.1:7077")
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    read_timeout: Duration,
    connect_timeout: Option<Duration>,
    retries: u32,
    backoff_base: Duration,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        ClientBuilder {
            read_timeout: Duration::from_millis(
                pdm_runtime::RuntimeConfig::global().client_read_timeout_ms,
            ),
            connect_timeout: None,
            retries: 3,
            backoff_base: Duration::from_millis(25),
        }
    }
}

impl ClientBuilder {
    /// How long one [`ServiceClient::call_raw`] waits for a response
    /// before giving up with a timeout error (default: the
    /// `PDM_CLIENT_READ_TIMEOUT_MS` knob, 10 s out of the box — a
    /// stalled server can no longer hang a client forever).
    pub fn read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t.max(Duration::from_millis(1));
        self
    }

    /// Bound the TCP connect itself (default: the OS default).
    pub fn connect_timeout(mut self, t: Duration) -> Self {
        self.connect_timeout = Some(t);
        self
    }

    /// Reconnect-and-retry attempts for
    /// [`ServiceClient::call_retrying`] (default 3, on top of the
    /// initial attempt).
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }

    /// Connect with this configuration.
    pub fn connect(self, addr: impl ToSocketAddrs) -> std::io::Result<ServiceClient> {
        let mut last = None;
        for candidate in addr.to_socket_addrs()? {
            let attempt = match self.connect_timeout {
                Some(t) => TcpStream::connect_timeout(&candidate, t),
                None => TcpStream::connect(candidate),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    // Short socket timeout + Idle retries in call_raw:
                    // the *effective* deadline is read_timeout, but the
                    // loop stays responsive for mid-frame progress.
                    stream.set_read_timeout(Some(POLL_INTERVAL.min(self.read_timeout)))?;
                    return Ok(ServiceClient {
                        stream: BufReader::new(stream),
                        addr: candidate,
                        config: self,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }
}

/// A blocking client for the wire protocol: send one request document,
/// receive one response document, in order, over a persistent
/// connection. Requests go out one write each; responses are read
/// through a buffer kept with the socket. Reads are bounded by the
/// builder's timeout, and [`ServiceClient::call_retrying`] reconnects
/// with capped exponential backoff on transient failures.
pub struct ServiceClient {
    stream: BufReader<TcpStream>,
    addr: std::net::SocketAddr,
    config: ClientBuilder,
}

impl ServiceClient {
    /// Connect to a serving endpoint with default timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServiceClient> {
        ClientBuilder::default().connect(addr)
    }

    /// Start configuring a client.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Drop the current connection, with any bytes still buffered from
    /// it, and dial the same endpoint again.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let fresh = self.config.clone().connect(self.addr)?;
        self.stream = fresh.stream;
        Ok(())
    }

    /// Send `request` (a JSON document) and block for the response
    /// text, at most the configured read timeout. Responses arrive
    /// strictly in request order. A timeout leaves the connection in an
    /// indeterminate state (a late response may still be in flight, or
    /// partly buffered already) — [`ServiceClient::reconnect`] before
    /// reusing it: the reconnect discards the old socket together with
    /// its read buffer, so no late byte can surface in a later response.
    pub fn call_raw(&mut self, request: &str) -> std::io::Result<String> {
        wire::write_frame(self.stream.get_mut(), request)?;
        let start = Instant::now();
        loop {
            match wire::read_frame(&mut self.stream)? {
                Frame::Message(text) => return Ok(text),
                Frame::Eof => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                // The socket timeout fired with no header byte yet:
                // retry until the configured deadline, then surface a
                // typed timeout instead of hanging forever.
                Frame::Idle => {
                    if start.elapsed() >= self.config.read_timeout {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!(
                                "no response within {:?} (server stalled or unreachable)",
                                self.config.read_timeout
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// [`ServiceClient::call_raw`] plus JSON parsing of the response.
    /// Read timeouts surface as [`PdmError::Timeout`]; a request too
    /// large to frame is refused with a typed [`PdmError::Protocol`]
    /// *before* anything touches the socket, so the connection stays
    /// usable.
    pub fn call(&mut self, request: &str) -> Result<crate::json::Json, crate::error::PdmError> {
        if request.len() > wire::MAX_FRAME {
            return Err(crate::error::PdmError::Protocol(format!(
                "request of {} bytes exceeds the {}-byte frame limit",
                request.len(),
                wire::MAX_FRAME
            )));
        }
        let text = self.call_raw(request).map_err(|e| {
            if e.kind() == std::io::ErrorKind::TimedOut {
                crate::error::PdmError::Timeout(e.to_string())
            } else {
                crate::error::PdmError::from(e)
            }
        })?;
        crate::json::parse(&text)
            .map_err(|e| crate::error::PdmError::Protocol(format!("bad response JSON: {e}")))
    }

    /// [`ServiceClient::call`] with capped exponential-backoff
    /// reconnect on transient failures (timeouts, dropped sockets,
    /// in-band `overloaded` / `planning_failed` sheds).
    ///
    /// **Only for idempotent requests** (`plan`, `instantiate`, `run`
    /// with a seed, `stats`, `metrics`): after a timeout the original
    /// request may still execute server-side, so a retried non-idempotent
    /// op could run twice.
    pub fn call_retrying(
        &mut self,
        request: &str,
    ) -> Result<crate::json::Json, crate::error::PdmError> {
        let mut delay = self.config.backoff_base;
        let mut last_err: Option<crate::error::PdmError> = None;
        let mut last_body: Option<crate::json::Json> = None;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2).min(MAX_BACKOFF);
                if let Err(e) = self.reconnect() {
                    last_err = Some(e.into());
                    last_body = None;
                    continue;
                }
            }
            match self.call(request) {
                Ok(body) => {
                    let retryable_in_band = body.get("ok") == Some(&crate::json::Json::Bool(false))
                        && matches!(
                            body.get_str("kind"),
                            Some("overloaded") | Some("planning_failed") | Some("timeout")
                        );
                    if !retryable_in_band {
                        return Ok(body);
                    }
                    last_body = Some(body);
                    last_err = None;
                }
                Err(e) if e.is_retryable() => {
                    last_err = Some(e);
                    last_body = None;
                }
                Err(e) => return Err(e),
            }
        }
        // Retries exhausted: hand back whatever the final attempt saw.
        match last_body {
            Some(body) => Ok(body),
            None => Err(last_err
                .unwrap_or_else(|| crate::error::PdmError::Io("no attempts were made".into()))),
        }
    }

    /// Ask the server for its metrics page (the `metrics` op).
    pub fn metrics_text(&mut self) -> Result<String, crate::error::PdmError> {
        let body = self.call(r#"{"op":"metrics"}"#)?;
        body.get_str("text")
            .map(str::to_string)
            .ok_or_else(|| crate::error::PdmError::Protocol("metrics response lacked text".into()))
    }

    /// Tell the server to shut down. The server confirms, then stops
    /// accepting and drains.
    pub fn shutdown(&mut self) -> Result<(), crate::error::PdmError> {
        self.call(r#"{"op":"shutdown"}"#).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_server(
        workers: usize,
    ) -> (
        std::net::SocketAddr,
        Arc<ShutdownFlag>,
        std::thread::JoinHandle<()>,
    ) {
        let session = Arc::new(Session::builder().cache_capacity(4, 16).threads(1).build());
        serve_session(session, workers)
    }

    fn serve_session(
        session: Arc<Session>,
        workers: usize,
    ) -> (
        std::net::SocketAddr,
        Arc<ShutdownFlag>,
        std::thread::JoinHandle<()>,
    ) {
        let server = PlanServer::bind("127.0.0.1:0", session, workers).unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_handle();
        let handle = std::thread::spawn(move || {
            server.serve().unwrap();
        });
        (addr, flag, handle)
    }

    /// Read one frame from `s`, failing if none arrives within `limit`.
    fn read_within(s: &mut TcpStream, limit: Duration) -> crate::json::Json {
        s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let deadline = Instant::now() + limit;
        loop {
            match wire::read_frame(s).unwrap() {
                Frame::Message(t) => return crate::json::parse(&t).unwrap(),
                Frame::Idle => assert!(Instant::now() < deadline, "no frame within {limit:?}"),
                Frame::Eof => panic!("connection closed without a frame"),
            }
        }
    }

    #[test]
    fn serves_plan_and_run_over_tcp() {
        let (addr, _flag, handle) = start_server(2);
        let mut client = ServiceClient::connect(addr).unwrap();

        let resp = client
            .call(
                r#"{"op":"plan","source":"for i = 1..=N { A[i + 3] = A[i] + 1; }","params":["N"]}"#,
            )
            .unwrap();
        assert_eq!(resp.get("ok"), Some(&crate::json::Json::Bool(true)));
        let hash = resp.get_str("shape_hash").unwrap().to_string();

        let resp = client
            .call(&format!(
                r#"{{"op":"run","shape_hash":"{hash}","values":{{"N":12}},"seed":3}}"#
            ))
            .unwrap();
        assert_eq!(resp.get_num("iterations"), Some(12.0));

        let text = client.metrics_text().unwrap();
        assert!(text.contains("pdm_connections_total 1"));
        assert!(text.contains("pdm_requests_total{op=\"plan\"} 1"));

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_flag_stops_an_idle_server() {
        let (addr, flag, handle) = start_server(2);
        // Prove it is alive, then stop it externally.
        let mut client = ServiceClient::connect(addr).unwrap();
        client.call(r#"{"op":"stats"}"#).unwrap();
        flag.set();
        handle.join().unwrap();
    }

    #[test]
    fn client_times_out_on_a_silent_server() {
        // A listener that accepts nothing: connects land in the backlog
        // and every read stalls. Before the timeout work this hung
        // forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = ServiceClient::builder()
            .read_timeout(Duration::from_millis(150))
            .connect_timeout(Duration::from_millis(500))
            .connect(addr)
            .unwrap();
        let t0 = Instant::now();
        let err = client.call(r#"{"op":"stats"}"#).unwrap_err();
        assert!(matches!(err, PdmError::Timeout(_)), "{err:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "timeout took {:?}",
            t0.elapsed()
        );
        drop(listener);
    }

    #[test]
    fn overloaded_connections_are_shed_in_band() {
        let session = Arc::new(Session::builder().cache_capacity(2, 8).threads(1).build());
        // Two workers: one accepts, one handles — a cap of one connection.
        let (addr, flag, handle) = serve_session(Arc::clone(&session), 2);

        // A occupies the only slot (the call proves it is being served)
        // and then stays idle.
        let mut a = ServiceClient::connect(addr).unwrap();
        a.call(r#"{"op":"stats"}"#).unwrap();

        // B is shed at accept with an in-band error before it sends
        // anything: within an accept poll, not whenever A leaves.
        let mut b = TcpStream::connect(addr).unwrap();
        let body = read_within(&mut b, Duration::from_secs(1));
        assert_eq!(body.get_str("kind"), Some("overloaded"));

        // Once A leaves, its slot is free again and B is served.
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(10);
        while session.metrics().active_connections.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < deadline, "A's slot was never released");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut b = ServiceClient::connect(addr).unwrap();
        let body = b.call_retrying(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(body.get("ok"), Some(&crate::json::Json::Bool(true)));
        let metrics = b.metrics_text().unwrap();
        assert!(metrics.contains("pdm_shed_total 1"), "{metrics}");
        flag.set();
        handle.join().unwrap();
    }

    #[test]
    fn reconnect_after_a_dropped_socket_is_served_at_the_cap() {
        // The only slot's handler drops its socket mid-request. Its slot
        // is free before the socket closes, so a client that reconnects
        // the moment it sees EOF is served, never shed.
        let session = Arc::new(
            Session::builder()
                .cache_capacity(2, 8)
                .threads(1)
                .faults(crate::faults::Faults::parse("net.drop:1:1", 0).unwrap())
                .build(),
        );
        let (addr, flag, handle) = serve_session(session, 2);
        let mut client = ServiceClient::connect(addr).unwrap();
        assert!(client.call(r#"{"op":"stats"}"#).is_err());
        client.reconnect().unwrap();
        let body = client.call(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(body.get("ok"), Some(&crate::json::Json::Bool(true)));
        let metrics = client.metrics_text().unwrap();
        assert!(metrics.contains("pdm_shed_total 0"), "{metrics}");
        flag.set();
        handle.join().unwrap();
    }

    #[test]
    fn the_torn_probe_still_tears_a_response() {
        // The response goes out as one frame buffer cut after half its
        // payload, then the socket closes: the client sees a header
        // promising more than ever arrives.
        let session = Arc::new(
            Session::builder()
                .cache_capacity(2, 8)
                .threads(1)
                .faults(crate::faults::Faults::parse("wire.torn:1:1", 0).unwrap())
                .build(),
        );
        let (addr, flag, handle) = serve_session(Arc::clone(&session), 2);
        let mut client = ServiceClient::connect(addr).unwrap();
        let err = client.call_raw(r#"{"op":"stats"}"#).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(session.faults().fired(crate::faults::WIRE_TORN), 1);
        // The torn connection's slot was freed before its socket
        // closed, so a fresh connection is served at once, not shed.
        let mut fresh = ServiceClient::connect(addr).unwrap();
        let body = fresh.call(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(body.get("ok"), Some(&crate::json::Json::Bool(true)));
        flag.set();
        handle.join().unwrap();
    }

    #[test]
    fn oversize_requests_are_refused_before_the_socket() {
        // A listener that never accepts: if the guard missed, the call
        // would block writing 16 MiB into a dead backlog.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = ServiceClient::builder()
            .read_timeout(Duration::from_millis(100))
            .connect(addr)
            .unwrap();
        let huge = format!(
            r#"{{"op":"plan","source":"{}"}}"#,
            "x".repeat(wire::MAX_FRAME)
        );
        let err = client.call(&huge).unwrap_err();
        assert!(matches!(err, PdmError::Protocol(_)), "{err:?}");
        assert_eq!(err.kind(), "protocol");
        // The connection is still usable for in-bounds requests (it
        // just times out here because nobody is serving).
        let err = client.call(r#"{"op":"stats"}"#).unwrap_err();
        assert!(matches!(err, PdmError::Timeout(_)), "{err:?}");
        drop(listener);
    }

    #[test]
    fn call_retrying_survives_a_dropped_socket() {
        // Arm net.drop for exactly one fire: the first request's socket
        // drops with no response; the retry reconnects and succeeds.
        let session = Arc::new(
            Session::builder()
                .cache_capacity(2, 8)
                .threads(1)
                .faults(crate::faults::Faults::parse("net.drop:1:1", 0).unwrap())
                .build(),
        );
        let server = PlanServer::bind("127.0.0.1:0", session, 3).unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_handle();
        let handle = std::thread::spawn(move || {
            server.serve().unwrap();
        });

        let mut client = ServiceClient::builder()
            .read_timeout(Duration::from_secs(5))
            .connect(addr)
            .unwrap();
        let body = client.call_retrying(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(body.get("ok"), Some(&crate::json::Json::Bool(true)));
        flag.set();
        handle.join().unwrap();
    }
}
