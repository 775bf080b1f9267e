//! Fault-hardening integration tests: a real [`PlanServer`] on a real
//! TCP socket, abused the way production abuses servers — malformed
//! frames, injected panics (via the `pdm_service::faults` probes), torn
//! responses, dropped sockets — and expected to keep serving through
//! all of it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use vardep_loops::service::wire::{self, Frame};
use vardep_loops::service::{faults, json};
use vardep_loops::{Faults, PlanServer, ServiceClient, Session};

/// The §4.1-style symbolic shape used throughout: one parameter N.
const SHAPE_SOURCE: &str = "for i1 = 0..N { for i2 = 0..N {
   A[5*i1 + i2, 7*i1 + 2*i2] = A[i1 + i2 + 4, i1 + 2*i2 + 6] + 1;
 } }";

fn plan_request() -> String {
    format!(
        r#"{{"op":"plan","source":{},"params":["N"]}}"#,
        json::render(&json::Json::Str(SHAPE_SOURCE.into()))
    )
}

fn run_request(deadline_ms: u64) -> String {
    format!(
        r#"{{"op":"run","source":{},"params":["N"],"values":{{"N":8}},"seed":1,"deadline_ms":{deadline_ms}}}"#,
        json::render(&json::Json::Str(SHAPE_SOURCE.into()))
    )
}

fn start_server(
    session: Arc<Session>,
    workers: usize,
) -> (
    std::net::SocketAddr,
    Arc<vardep_loops::service::wire::ShutdownFlag>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = PlanServer::bind("127.0.0.1:0", session, workers).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let flag = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.serve());
    (addr, flag, handle)
}

fn patient_client(addr: std::net::SocketAddr) -> ServiceClient {
    ServiceClient::builder()
        .read_timeout(Duration::from_secs(30))
        .connect(addr)
        .expect("connect")
}

/// Malformed wire input — oversize headers, zero-length frames, torn
/// frames, garbage JSON — must produce an in-band error or a clean
/// close, never a handler panic and never a wedged server.
#[test]
fn wire_edge_cases_never_kill_the_server() {
    let session = Arc::new(Session::builder().cache_capacity(4, 16).threads(1).build());
    let (addr, flag, handle) = start_server(Arc::clone(&session), 3);

    // Case 1: header claiming more than MAX_FRAME. The server must
    // refuse and close; a subsequent read sees EOF, not a hang.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        s.write_all(&((wire::MAX_FRAME as u32) + 1).to_be_bytes())
            .unwrap();
        expect_clean_close(&mut s);
    }

    // Case 2: zero-length frame — an empty JSON document. In-band
    // protocol error, connection stays usable.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        s.write_all(&0u32.to_be_bytes()).unwrap();
        let body = read_message(&mut s);
        assert_eq!(body.get_str("kind"), Some("protocol"), "{body:?}");
    }

    // Case 3: garbage JSON payload — in-band protocol error.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        wire::write_frame(&mut s, "{\"op\": \x01\x02 garbage").unwrap();
        let body = read_message(&mut s);
        assert_eq!(body.get_str("kind"), Some("protocol"), "{body:?}");
    }

    // Case 4: torn frame — header promises 100 bytes, 10 arrive, then
    // the client vanishes. The handler must notice the close and exit.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(b"0123456789").unwrap();
        drop(s);
    }

    // Case 5: a run whose size needs more memory than any address
    // space maps (10^17 cells, 8·10^17 bytes > 2^57), yet stays under
    // the `isize::MAX`-byte limit, so the allocator itself refuses it
    // whatever the host's overcommit mode. The stride keeps `N` an
    // exact wire integer (below 2^53). A typed in-band runtime error,
    // and the same connection keeps serving.
    let mut client = patient_client(addr);
    let body = client
        .call(r#"{"op":"run","source":"for i = 1..N { A[100 * i] = A[100 * i - 100] + 1; }","params":["N"],"values":{"N":1000000000000000}}"#)
        .unwrap();
    assert_eq!(body.get_str("kind"), Some("runtime"), "{body:?}");
    assert!(
        body.get_str("error")
            .is_some_and(|e| e.contains("cannot allocate")),
        "{body:?}"
    );

    // Through all of it: zero panics, and the connection plans and
    // runs normally.
    let body = client.call(&run_request(60_000)).unwrap();
    assert_eq!(body.get("ok"), Some(&json::Json::Bool(true)), "{body:?}");
    assert_eq!(body.get_num("iterations"), Some(64.0));
    let metrics = client.metrics_text().unwrap();
    assert!(metrics.contains("pdm_panics_total 0"), "{metrics}");

    flag.set();
    handle.join().unwrap().unwrap();
}

/// An injected single-flight leader panic: concurrent requests for the
/// same shape all come back typed (ok or `planning_failed`) within
/// their deadline — no deadlock — and a retry re-plans successfully
/// with the cache bucket invariant intact.
#[test]
fn leader_panic_over_the_wire_frees_followers_and_allows_retry() {
    let session = Arc::new(
        Session::builder()
            .cache_capacity(4, 16)
            .threads(1)
            .faults(Faults::parse("plan.leader:1:1", 0).unwrap())
            .build(),
    );
    let (addr, flag, handle) = start_server(Arc::clone(&session), 8);

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let outcomes: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut client = patient_client(addr);
                    barrier.wait();
                    let t0 = Instant::now();
                    let body = client
                        .call(&format!(
                            r#"{{"op":"plan","source":{},"params":["N"],"deadline_ms":30000}}"#,
                            json::render(&json::Json::Str(SHAPE_SOURCE.into()))
                        ))
                        .expect("a typed in-band answer, not a transport failure");
                    assert!(
                        t0.elapsed() < Duration::from_secs(30),
                        "follower blocked {:?} — flight deadlock",
                        t0.elapsed()
                    );
                    match body.get("ok") {
                        Some(&json::Json::Bool(true)) => "ok".to_string(),
                        _ => body.get_str("kind").unwrap_or("?").to_string(),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every response is typed; at least the panicked leader's client
    // saw the planning failure (unless it raced in after the clear).
    for outcome in &outcomes {
        assert!(
            outcome == "ok" || outcome == "planning_failed",
            "unexpected outcome {outcome:?} in {outcomes:?}"
        );
    }

    // The probe has fired exactly once; retrying re-plans successfully.
    assert_eq!(session.faults().fired(faults::PLAN_LEADER), 1);
    let mut client = patient_client(addr);
    let body = client.call_retrying(&plan_request()).unwrap();
    assert_eq!(body.get("ok"), Some(&json::Json::Bool(true)), "{body:?}");

    // CacheStats bucket invariant survives the torn flight.
    let stats = session.cache_stats();
    assert_eq!(
        stats.hits + stats.planned + stats.waited,
        stats.requests(),
        "{stats:?}"
    );

    flag.set();
    handle.join().unwrap().unwrap();
}

/// The acceptance storm: 100 injected handler panics plus a run of torn
/// response frames under concurrent client load. The server must keep
/// serving fresh connections throughout, and the panic counter must
/// land on the metrics page.
#[test]
fn server_survives_100_handler_panics_and_torn_frames_under_load() {
    let session = Arc::new(
        Session::builder()
            .cache_capacity(4, 16)
            .threads(1)
            // First 100 requests panic their handler; the next 50
            // responses are torn mid-frame. Deterministic, not flaky.
            .faults(Faults::parse("server.handler:1:100,wire.torn:1:50", 0).unwrap())
            .build(),
    );
    let (addr, flag, handle) = start_server(Arc::clone(&session), 6);

    const CLIENTS: usize = 4;
    const SUCCESSES_PER_CLIENT: usize = 50;
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = patient_client(addr);
                let mut successes = 0;
                let mut attempts = 0;
                while successes < SUCCESSES_PER_CLIENT {
                    attempts += 1;
                    assert!(
                        attempts < 1000,
                        "too many attempts for {successes} successes — server wedged?"
                    );
                    match client.call(&run_request(60_000)) {
                        Ok(body) if body.get("ok") == Some(&json::Json::Bool(true)) => {
                            assert_eq!(body.get_num("iterations"), Some(64.0));
                            successes += 1;
                        }
                        Ok(body) => panic!("unexpected in-band failure: {body:?}"),
                        // Panicked handler or torn frame: the
                        // connection is gone; dial a fresh one.
                        Err(_) => {
                            client = patient_client(addr);
                        }
                    }
                }
            });
        }
    });

    assert_eq!(session.faults().fired(faults::SERVER_HANDLER), 100);
    assert_eq!(session.faults().fired(faults::WIRE_TORN), 50);

    // A fresh connection still serves, and the failures are visible on
    // the metrics page.
    let mut client = patient_client(addr);
    let metrics = client.metrics_text().unwrap();
    assert!(metrics.contains("pdm_panics_total 100"), "{metrics}");
    assert!(metrics.contains("pdm_shed_total"), "{metrics}");
    assert!(metrics.contains("pdm_deadline_exceeded_total"), "{metrics}");

    flag.set();
    handle.join().unwrap().unwrap();
}

/// Read one response frame, tolerating idle polls.
fn read_message(s: &mut TcpStream) -> json::Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match wire::read_frame(s).expect("readable response") {
            Frame::Message(text) => return json::parse(&text).expect("response is JSON"),
            Frame::Idle => assert!(Instant::now() < deadline, "no response within 10s"),
            Frame::Eof => panic!("connection closed instead of answering"),
        }
    }
}

/// Expect the server to close the connection (EOF or reset) without
/// sending anything, within a bounded window.
fn expect_clean_close(s: &mut TcpStream) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match wire::read_frame(s) {
            Ok(Frame::Eof) | Err(_) => return,
            Ok(Frame::Idle) => assert!(Instant::now() < deadline, "no close within 10s"),
            Ok(Frame::Message(m)) => panic!("unexpected response {m:?}"),
        }
    }
}
