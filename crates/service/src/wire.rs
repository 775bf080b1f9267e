//! Wire protocol: length-prefixed JSON frames and the request
//! dispatcher.
//!
//! See the crate docs for the full message catalogue. This module owns
//! the two halves the server and clients share:
//!
//! * **Framing** — [`write_frame`] / [`read_frame`]: a 4-byte
//!   big-endian length followed by that many bytes of UTF-8 JSON, with
//!   frames capped at [`MAX_FRAME`] bytes. A frame is written with one
//!   `write_all` of header and payload together, so on a `TCP_NODELAY`
//!   socket it leaves as one syscall and one segment. The server and
//!   [`crate::ServiceClient`] read through a per-connection
//!   [`std::io::BufReader`], so a frame that arrived whole is read with
//!   one syscall, and a second frame already buffered with none. Reads
//!   distinguish clean EOF (peer closed between frames) from idleness
//!   (read timeout with no header byte yet) so server workers can poll
//!   a shutdown flag without dropping half-received frames; once a
//!   header byte has arrived, timeouts retry, and EOF is a torn frame.
//! * **Dispatch** — [`dispatch`]: one request JSON in, one response
//!   JSON out, every [`PdmError`] mapped to an `{"ok": false, ...}`
//!   response rather than a torn connection.

use crate::error::PdmError;
use crate::json::{self, Json};
use crate::session::{Deadline, Session};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Maximum frame payload (16 MiB) — far above any legitimate nest
/// source, small enough to bound a malicious header.
pub const MAX_FRAME: usize = 1 << 24;

/// One read attempt's outcome.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete payload.
    Message(String),
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// Read timeout fired before any header byte arrived — the
    /// connection is alive but idle (poll your shutdown flag and call
    /// again).
    Idle,
}

/// Write one frame: `u32` big-endian payload length, then the payload,
/// handed to `w` in one `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    w.write_all(&encode_frame(payload)?)?;
    w.flush()
}

/// One frame's bytes, header and payload in one buffer. Refuses a
/// payload over [`MAX_FRAME`].
pub(crate) fn encode_frame(payload: &str) -> std::io::Result<Vec<u8>> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Read one frame. Timeouts before the first header byte return
/// [`Frame::Idle`]; timeouts *mid-frame* keep retrying (the peer is
/// mid-send), so a returned `Message` is always complete. Reads as the
/// reader delivers: wrap a socket in a [`std::io::BufReader`] kept for
/// the connection's life, or each frame costs two reads or more.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Frame> {
    let mut header = [0u8; 4];
    match read_exact_retrying(r, &mut header, true)? {
        ReadOutcome::Done => {}
        ReadOutcome::Eof => return Ok(Frame::Eof),
        ReadOutcome::Idle => return Ok(Frame::Idle),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame header claims {len} bytes (max {MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    match read_exact_retrying(r, &mut payload, false)? {
        ReadOutcome::Done => {}
        // EOF or persistent idleness mid-frame is a torn frame.
        ReadOutcome::Eof | ReadOutcome::Idle => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
    }
    String::from_utf8(payload)
        .map(Frame::Message)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

enum ReadOutcome {
    Done,
    Eof,
    Idle,
}

/// How many *consecutive* zero-progress read timeouts a mid-frame read
/// tolerates before declaring the peer stalled. With the 50 ms socket
/// timeouts both sides use, this bounds a torn-frame-held-open peer
/// (client or server) to ~12 s instead of hanging the reader forever.
const MID_FRAME_STALL_LIMIT: u32 = 240;

/// `read_exact` that survives read timeouts: a timeout with zero bytes
/// read so far reports `Idle` when `idle_ok` (header position) — once
/// bytes have arrived, timeouts retry until the buffer fills or the
/// peer stalls past [`MID_FRAME_STALL_LIMIT`] consecutive timeouts.
fn read_exact_retrying(
    r: &mut impl Read,
    buf: &mut [u8],
    idle_ok: bool,
) -> std::io::Result<ReadOutcome> {
    let mut filled = 0usize;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-read",
                    ))
                };
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && idle_ok {
                    return Ok(ReadOutcome::Idle);
                }
                // Mid-frame stall: keep waiting for the rest — but not
                // forever, or a half-sent frame pins this reader.
                stalls += 1;
                if stalls >= MID_FRAME_STALL_LIMIT {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Done)
}

/// Format a structural hash the way the wire expects: `"0x"` + 16 hex
/// digits. (JSON numbers are `f64`, which cannot carry 64 bits.)
pub fn hash_to_hex(hash: u64) -> String {
    format!("{hash:#018x}")
}

/// Parse a wire shape hash (with or without the `0x` prefix).
pub fn hex_to_hash(text: &str) -> Option<u64> {
    let digits = text.trim().trim_start_matches("0x");
    u64::from_str_radix(digits, 16).ok()
}

/// A dispatched response: the rendered body plus what the server's
/// metrics layer needs.
pub struct Response {
    /// Rendered response JSON (always a complete `{...}` document).
    pub body: String,
    /// Did the request succeed?
    pub ok: bool,
    /// Which op-metrics family this request belongs to:
    /// `"plan" | "instantiate" | "run" | "control"`.
    pub op_family: &'static str,
    /// Did the request ask the server to shut down?
    pub shutdown: bool,
}

/// Handle one request against a session. Never panics on malformed
/// input: every failure renders as `{"ok": false, "kind": ..., "error":
/// ...}`.
pub fn dispatch(session: &Session, request_text: &str) -> Response {
    let (op, result) = match json::parse(request_text) {
        Ok(req) => {
            let op = req.get_str("op").unwrap_or("").to_string();
            let result =
                request_deadline(&req).and_then(|deadline| handle(session, &op, &req, deadline));
            (op, result)
        }
        Err(e) => (
            String::new(),
            Err(PdmError::Protocol(format!("bad request JSON: {e}"))),
        ),
    };
    if matches!(result, Err(PdmError::DeadlineExceeded)) {
        session
            .metrics()
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
    }
    let op_family = match op.as_str() {
        "plan" => "plan",
        "instantiate" => "instantiate",
        "run" => "run",
        _ => "control",
    };
    let shutdown = op == "shutdown";
    match result {
        Ok(mut fields) => {
            fields.insert(0, ("ok".into(), Json::Bool(true)));
            fields.insert(1, ("op".into(), Json::Str(op.clone())));
            let (body, ok) = cap_frame(&op, json::render(&Json::Obj(fields)));
            Response {
                body,
                ok,
                op_family,
                shutdown,
            }
        }
        Err(e) => Response {
            body: error_body(&op, &e),
            ok: false,
            op_family,
            // A shutdown request takes effect even if rendering extras
            // failed — but errors can only arise pre-dispatch here, so
            // keep it simple: only successful shutdowns stop the server.
            shutdown: false,
        },
    }
}

/// Send-side [`MAX_FRAME`] enforcement. A response body too large to
/// frame is replaced by an in-band typed `protocol` error — without
/// this, [`write_frame`] refuses the oversize body with an untyped
/// `io::Error` and the server tears the connection down, leaving the
/// client nothing to diagnose. Error bodies are always small, so the
/// replacement itself always fits.
fn cap_frame(op: &str, body: String) -> (String, bool) {
    if body.len() <= MAX_FRAME {
        return (body, true);
    }
    let e = PdmError::Protocol(format!(
        "response of {} bytes exceeds the {MAX_FRAME}-byte frame limit",
        body.len()
    ));
    (error_body(op, &e), false)
}

/// Render the `{"ok": false, ...}` body for `e` — shared by dispatch
/// and by server paths that answer before dispatching (the
/// max-connections shed writes an `overloaded` body straight onto the
/// fresh socket).
pub fn error_body(op: &str, e: &PdmError) -> String {
    json::render(&Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("op".into(), Json::Str(op.into())),
        ("kind".into(), Json::Str(e.kind().into())),
        ("error".into(), Json::Str(e.to_string())),
    ]))
}

type Fields = Vec<(String, Json)>;

/// The integer a JSON number stands for, when it is one exactly: an
/// integral value below 2⁵³ in magnitude (so no nearby integer parses
/// to the same `f64`) that fits `T`. Anything else is a `protocol`
/// error naming the field `what`, never a saturated or rounded value.
fn exact_int<T: TryFrom<i64>>(v: &Json, what: std::fmt::Arguments<'_>) -> Result<T, PdmError> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match v {
        Json::Num(n) if n.fract() == 0.0 && n.abs() < EXACT => T::try_from(*n as i64).ok(),
        _ => None,
    }
    .ok_or_else(|| PdmError::Protocol(format!("{what} must be an integer in range, got {v:?}")))
}

/// Parse the optional `deadline_ms` field into a cooperative budget
/// starting now (the budget covers dispatch, not network transit).
fn request_deadline(req: &Json) -> Result<Option<Deadline>, PdmError> {
    match req.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => exact_int(v, format_args!("deadline_ms")).map(|ms| Some(Deadline::in_ms(ms))),
    }
}

fn handle(
    session: &Session,
    op: &str,
    req: &Json,
    deadline: Option<Deadline>,
) -> Result<Fields, PdmError> {
    match op {
        "plan" => op_plan(session, req, deadline),
        "instantiate" => op_instantiate(session, req, deadline),
        "run" => op_run(session, req, deadline),
        "metrics" => Ok(vec![(
            "text".into(),
            Json::Str(crate::metrics::render_metrics(
                session.metrics(),
                session.cache(),
                session.verdicts(),
            )),
        )]),
        "stats" => Ok(op_stats(session)),
        "shutdown" => Ok(Vec::new()),
        "" => Err(PdmError::Protocol("missing \"op\" field".into())),
        other => Err(PdmError::Protocol(format!("unknown op {other:?}"))),
    }
}

/// Resolve the template a request refers to: by `source` (+ optional
/// `params` name list, parsed through the session's source memo), or by
/// `shape_hash` for shapes planned earlier.
fn resolve_template(
    session: &Session,
    req: &Json,
) -> Result<std::sync::Arc<pdm_core::template::PlanTemplate>, PdmError> {
    if let Some(source) = req.get_str("source") {
        let params = param_names(req)?;
        let refs: Vec<&str> = params.iter().map(|s| s.as_str()).collect();
        // A memo hit skips the parse but still acquires through the
        // template cache (single flight, recency, hit counts, equality).
        session.plan(&*session.parse_source(source, &refs)?)
    } else if let Some(hex) = req.get_str("shape_hash") {
        let hash = hex_to_hash(hex)
            .ok_or_else(|| PdmError::Protocol(format!("bad shape_hash {hex:?}")))?;
        session.plan_by_hash(hash)
    } else {
        Err(PdmError::Protocol(
            "request needs \"source\" or \"shape_hash\"".into(),
        ))
    }
}

fn param_names(req: &Json) -> Result<Vec<String>, PdmError> {
    match req.get("params") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|p| match p {
                Json::Str(s) => Ok(s.clone()),
                other => Err(PdmError::Protocol(format!(
                    "params entries must be strings, got {other:?}"
                ))),
            })
            .collect(),
        Some(other) => Err(PdmError::Protocol(format!(
            "params must be an array of names, got {other:?}"
        ))),
    }
}

/// `values`: `{"N": 64, ...}` → integer valuation.
fn param_values(req: &Json) -> Result<Vec<(String, i64)>, PdmError> {
    match req.get("values") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), exact_int(v, format_args!("value for {k:?}"))?)))
            .collect(),
        Some(other) => Err(PdmError::Protocol(format!(
            "values must be an object, got {other:?}"
        ))),
    }
}

fn template_fields(template: &pdm_core::template::PlanTemplate) -> Fields {
    vec![
        (
            "shape_hash".into(),
            Json::Str(hash_to_hex(template.nest().structural_hash())),
        ),
        ("depth".into(), Json::Num(template.depth() as f64)),
        ("doall".into(), Json::Num(template.doall_count() as f64)),
        (
            "partitions".into(),
            Json::Num(template.partition_count() as f64),
        ),
        (
            "params".into(),
            Json::Arr(
                template
                    .param_names()
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
    ]
}

fn op_plan(session: &Session, req: &Json, deadline: Option<Deadline>) -> Result<Fields, PdmError> {
    // Every op honors `deadline_ms`: checked on entry (the request may
    // have queued behind slow frames) and after each pipeline stage.
    Deadline::check(deadline)?;
    let template = resolve_template(session, req)?;
    Deadline::check(deadline)?;
    Ok(template_fields(&template))
}

fn op_instantiate(
    session: &Session,
    req: &Json,
    deadline: Option<Deadline>,
) -> Result<Fields, PdmError> {
    Deadline::check(deadline)?;
    let template = resolve_template(session, req)?;
    Deadline::check(deadline)?;
    let values = param_values(req)?;
    let refs: Vec<(&str, i64)> = values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let instance = session.instantiate_template(&template, &refs)?;
    Deadline::check(deadline)?;
    let groups = instance.compiled.group_count()?;
    let mut fields = template_fields(&template);
    fields.push(("groups".into(), Json::Num(groups as f64)));
    Ok(fields)
}

fn op_run(session: &Session, req: &Json, deadline: Option<Deadline>) -> Result<Fields, PdmError> {
    Deadline::check(deadline)?;
    let template = resolve_template(session, req)?;
    let values = param_values(req)?;
    let refs: Vec<(&str, i64)> = values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let seed = match req.get("seed") {
        None | Some(Json::Null) => 1u64,
        Some(v) => exact_int(v, format_args!("seed"))?,
    };
    // Gauge every pool region this request opens (audit, stages), not
    // whatever region this handler thread ran last.
    let (outcome, regions) =
        rayon::tally_regions(|| session.run_template_within(&template, &refs, seed, deadline));
    let outcome = outcome?;
    let mut fields = template_fields(&template);
    fields.push(("iterations".into(), Json::Num(outcome.iterations as f64)));
    fields.push(("checksum".into(), Json::Num(outcome.checksum as f64)));
    // Speculatively planned templates report which executor the
    // inspector's verdict picked ("certified" | "refined" | "rejected")
    // and whether a certified valuation interval answered the gate
    // without an audit; uninspected runs omit both fields.
    if let Some(verdict) = &outcome.verdict {
        fields.push(("verdict".into(), Json::Str(verdict.kind().into())));
        fields.push(("interval_hit".into(), Json::Bool(outcome.interval_hit)));
    }
    // Widest region and summed steals; a run that opened no region ran
    // on one thread and moved nothing.
    fields.push((
        "observed_threads".into(),
        Json::Num(regions.threads.max(1) as f64),
    ));
    fields.push(("observed_steals".into(), Json::Num(regions.steals as f64)));
    Ok(fields)
}

fn op_stats(session: &Session) -> Fields {
    let stats = session.cache_stats();
    let shards = session
        .cache()
        .shard_stats()
        .iter()
        .map(|s| Json::Obj(crate::metrics::cache_stats_fields(s)))
        .collect();
    vec![
        (
            "cache".into(),
            Json::Obj(crate::metrics::cache_stats_fields(&stats)),
        ),
        ("shards".into(), Json::Arr(shards)),
        (
            "requests_total".into(),
            Json::Num(session.metrics().total_requests() as f64),
        ),
        (
            "template_acquire_mean_us".into(),
            Json::Num(session.metrics().template_acquire.mean_us()),
        ),
    ]
}

/// Poll-friendly shutdown flag shared between a server and its workers.
#[derive(Debug, Default)]
pub struct ShutdownFlag(AtomicBool);

impl ShutdownFlag {
    /// A fresh, unset flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Request shutdown.
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has shutdown been requested?
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"stats"}"#).unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame::Message(r#"{"op":"stats"}"#.into())
        );
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Message("second".into()));
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Eof);
    }

    #[test]
    fn oversized_and_torn_frames_error() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut huge.as_slice()).is_err());

        let mut torn = Vec::new();
        write_frame(&mut torn, "hello").unwrap();
        torn.truncate(torn.len() - 2);
        assert!(read_frame(&mut torn.as_slice()).is_err());
    }

    /// A sink that accepts every byte and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [String::new(), "x".repeat(64 << 10)] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(w.bytes[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(&w.bytes[4..], payload.as_bytes());
        }
    }

    /// A reader that plays back a script, one step per `read` call: a
    /// chunk of bytes (split when the caller's buffer is shorter) or a
    /// `TimedOut` error; EOF once the script runs out.
    struct Script {
        steps: std::collections::VecDeque<Option<Vec<u8>>>,
        reads: usize,
    }

    /// `steps` played back through the buffered reader the server and
    /// the client keep per connection.
    fn scripted(steps: impl IntoIterator<Item = Option<Vec<u8>>>) -> std::io::BufReader<Script> {
        std::io::BufReader::new(Script {
            steps: steps.into_iter().collect(),
            reads: 0,
        })
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::TimedOut.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.steps.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn frame(payload: &str) -> Vec<u8> {
        encode_frame(payload).unwrap()
    }

    #[test]
    fn buffered_reads_keep_the_idle_and_stall_rules() {
        // One byte per read, with timeouts before the header, inside
        // the header and inside the payload: only the first is Idle.
        let bytes = frame("hello");
        let mut steps = vec![None];
        for (at, b) in bytes.iter().enumerate() {
            if at == 2 || at == 6 {
                steps.push(None);
            }
            steps.push(Some(vec![*b]));
        }
        let mut r = scripted(steps);
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Idle);
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Message("hello".into()));
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Eof);
    }

    #[test]
    fn frames_delivered_together_take_one_read() {
        let mut both = frame(r#"{"op":"stats"}"#);
        both.extend(frame("second"));
        let mut r = scripted([Some(both)]);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame::Message(r#"{"op":"stats"}"#.into())
        );
        assert_eq!(r.get_ref().reads, 1);
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Message("second".into()));
        assert_eq!(r.get_ref().reads, 1, "the second frame was buffered");
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Eof);
    }

    #[test]
    fn a_buffered_stream_ending_mid_payload_is_torn() {
        let mut torn = frame("hello, world");
        torn.truncate(7);
        for steps in [vec![Some(torn.clone())], vec![Some(torn[..4].to_vec())]] {
            let err = read_frame(&mut scripted(steps)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn hash_hex_round_trips() {
        for h in [0u64, 1, 0xdead_beef_1234_5678, u64::MAX] {
            assert_eq!(hex_to_hash(&hash_to_hex(h)), Some(h));
        }
        assert_eq!(hex_to_hash("nope"), None);
        assert_eq!(hex_to_hash("0xdeadbeef"), Some(0xdead_beef));
    }

    #[test]
    fn dispatch_answers_plan_and_errors_in_band() {
        let session = Session::builder().cache_capacity(2, 8).threads(1).build();
        let resp = dispatch(
            &session,
            r#"{"op":"plan","source":"for i = 1..=N { A[i] = A[i - 1] + 1; }","params":["N"]}"#,
        );
        assert!(resp.ok, "{}", resp.body);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_num("depth"), Some(1.0));
        let hash = body.get_str("shape_hash").unwrap().to_string();

        // Replay by hash, then run at a size.
        let resp = dispatch(
            &session,
            &format!(r#"{{"op":"run","shape_hash":"{hash}","values":{{"N":10}}}}"#),
        );
        assert!(resp.ok, "{}", resp.body);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_num("iterations"), Some(10.0));

        // Malformed request: in-band error, connection-safe.
        let resp = dispatch(&session, "{nope");
        assert!(!resp.ok);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_str("kind"), Some("protocol"));

        // Unknown hash: typed error.
        let resp = dispatch(
            &session,
            r#"{"op":"plan","shape_hash":"0x0000000000000001"}"#,
        );
        assert!(!resp.ok);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_str("kind"), Some("unknown_shape"));
    }

    #[test]
    fn instantiate_reports_the_oracles_group_count() {
        // Triangular doall prefix (i, j) crossed with the two parity
        // chains of k: the count comes from the lowered walker.
        let src = "for i = 0..=N { for j = 0..=i { for k = 0..=9 { A[i, j, k + 2] = A[i, j, k] + 1; } } }";
        let session = Session::builder().cache_capacity(2, 8).threads(1).build();
        let shape = session.parse_symbolic(src, &["N"]).unwrap();
        for n in [0i64, 1, 6] {
            let plan = session
                .plan(&shape)
                .unwrap()
                .instantiate(&[("N", n)])
                .unwrap();
            assert!(plan.partition_count() > 1, "the plan must be partitioned");
            // Materialized oracle: every doall prefix, level by level.
            let mut prefixes: Vec<Vec<i64>> = vec![Vec::new()];
            for level in 0..plan.doall_count() {
                let mut next = Vec::new();
                for p in &prefixes {
                    let (lo, hi) = plan.bounds().range(level, p).unwrap();
                    next.extend((lo..=hi).map(|v| [&p[..], &[v]].concat()));
                }
                prefixes = next;
            }
            let resp = dispatch(
                &session,
                &format!(
                    r#"{{"op":"instantiate","source":"{src}","params":["N"],"values":{{"N":{n}}}}}"#
                ),
            );
            assert!(resp.ok, "{}", resp.body);
            let body = crate::json::parse(&resp.body).unwrap();
            let oracle = prefixes.len() as i64 * plan.partition_count();
            assert_eq!(body.get_num("groups"), Some(oracle as f64), "N={n}");
        }
    }

    #[test]
    fn deadline_ms_is_honored_and_validated() {
        let session = Session::builder().cache_capacity(2, 8).threads(1).build();
        // Invalid budget: typed protocol error.
        let resp = dispatch(&session, r#"{"op":"run","deadline_ms":-5}"#);
        assert!(!resp.ok);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_str("kind"), Some("protocol"));

        // A generous budget completes normally.
        let resp = dispatch(
            &session,
            r#"{"op":"run","source":"for i = 1..=N { A[i] = A[i - 1] + 1; }","params":["N"],"values":{"N":10},"deadline_ms":60000}"#,
        );
        assert!(resp.ok, "{}", resp.body);

        // A zero budget expires before the run stage boundary.
        let resp = dispatch(
            &session,
            r#"{"op":"run","source":"for i = 1..=N { A[i] = A[i - 1] + 1; }","params":["N"],"values":{"N":10},"deadline_ms":0}"#,
        );
        assert!(!resp.ok, "{}", resp.body);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_str("kind"), Some("deadline_exceeded"));
        assert_eq!(
            session
                .metrics()
                .deadline_exceeded
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn out_of_range_integers_are_protocol_errors() {
        let session = Session::builder().cache_capacity(2, 8).threads(1).build();
        let run = |extra: &str| {
            let resp = dispatch(
                &session,
                &format!(
                    r#"{{"op":"run","source":"for i = 1..=N {{ A[i] = A[i - 1] + 1; }}","params":["N"],{extra}}}"#
                ),
            );
            (resp.ok, crate::json::parse(&resp.body).unwrap())
        };
        // Saturating casts used to serve these as other numbers: seed
        // 1e300 as u64::MAX, N = 1e300 as i64::MAX (then a runtime
        // overflow), N = 2⁵³ + 1 as the 2⁵³ it parses to.
        for extra in [
            r#""values":{"N":10},"seed":1e300"#,
            r#""values":{"N":10},"seed":18446744073709551615"#,
            r#""values":{"N":10},"seed":-1"#,
            r#""values":{"N":1e300}"#,
            r#""values":{"N":-1e300}"#,
            r#""values":{"N":9007199254740993}"#,
            r#""values":{"N":9007199254740992}"#,
            r#""values":{"N":10.5}"#,
            r#""values":{"N":10},"deadline_ms":1e300"#,
            r#""values":{"N":10},"deadline_ms":9007199254740992"#,
        ] {
            let (ok, body) = run(extra);
            assert!(!ok, "{extra}");
            assert_eq!(body.get_str("kind"), Some("protocol"), "{extra}");
            let error = body.get_str("error").unwrap();
            assert!(error.contains("must be"), "{extra}: {error}");
        }
        // The largest exact integers still pass through unchanged.
        let (ok, body) = run(r#""values":{"N":10},"seed":9007199254740991"#);
        assert!(ok, "{body:?}");
        assert_eq!(body.get_num("iterations"), Some(10.0));
        let (ok, body) = run(r#""values":{"N":10},"deadline_ms":9007199254740991"#);
        assert!(ok, "{body:?}");
    }

    #[test]
    fn oversize_response_bodies_degrade_to_a_typed_protocol_error() {
        let (body, ok) = cap_frame("run", "x".repeat(MAX_FRAME + 1));
        assert!(!ok);
        let parsed = crate::json::parse(&body).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get_str("kind"), Some("protocol"));
        assert_eq!(parsed.get_str("op"), Some("run"));
        assert!(body.len() <= MAX_FRAME, "the replacement must fit");
        // In-bounds bodies pass through untouched.
        let (body, ok) = cap_frame("run", "{}".into());
        assert!(ok);
        assert_eq!(body, "{}");
        // The io-level guard in write_frame still refuses oversize
        // payloads outright (defense in depth for non-dispatch
        // callers), and nothing reaches the wire when it fires.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &"y".repeat(MAX_FRAME + 1)).is_err());
        assert!(sink.is_empty());
    }

    #[test]
    fn every_op_honors_deadline_ms() {
        let session = Session::builder().cache_capacity(2, 8).threads(1).build();
        // Regression: plan and instantiate used to ignore the budget
        // entirely — only run checked it — and run checked it only after
        // resolving (planning) the template.
        for op in ["plan", "instantiate", "run"] {
            let resp = dispatch(
                &session,
                &format!(
                    r#"{{"op":"{op}","source":"for i = 1..=N {{ A[i] = A[i - 1] + 1; }}","params":["N"],"values":{{"N":10}},"deadline_ms":0}}"#
                ),
            );
            assert!(!resp.ok, "{op}: {}", resp.body);
            let body = crate::json::parse(&resp.body).unwrap();
            assert_eq!(body.get_str("kind"), Some("deadline_exceeded"), "{op}");
        }
        assert_eq!(
            session.metrics().deadline_exceeded.load(Ordering::Relaxed),
            3
        );
        // Every op failed on entry: the never-seen shape was not planned.
        assert_eq!(session.cache_stats().planned, 0);
    }

    #[test]
    fn run_reports_the_inspector_verdict() {
        let session = Session::builder().cache_capacity(2, 8).threads(1).build();
        let resp = dispatch(
            &session,
            r#"{"op":"run","source":"for i = 0..=19 { A[i + K] = A[i] + 1; }","params":["K"],"values":{"K":0}}"#,
        );
        assert!(resp.ok, "{}", resp.body);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_str("verdict"), Some("certified"));
        assert_eq!(body.get_num("iterations"), Some(20.0));
        // K = 0 sits inside the shift-overlap range, so no interval
        // certifies it — the audit ran and the flag is false.
        assert_eq!(body.get("interval_hit"), Some(&Json::Bool(false)));
        // A far shift certifies K ∈ [20, ∞); a second distinct
        // valuation inside that interval reports an interval hit.
        let resp = dispatch(
            &session,
            r#"{"op":"run","source":"for i = 0..=19 { A[i + K] = A[i] + 1; }","params":["K"],"values":{"K":40}}"#,
        );
        assert!(resp.ok, "{}", resp.body);
        let resp = dispatch(
            &session,
            r#"{"op":"run","source":"for i = 0..=19 { A[i + K] = A[i] + 1; }","params":["K"],"values":{"K":41}}"#,
        );
        assert!(resp.ok, "{}", resp.body);
        let body = crate::json::parse(&resp.body).unwrap();
        assert_eq!(body.get_str("verdict"), Some("certified"));
        assert_eq!(body.get("interval_hit"), Some(&Json::Bool(true)));
        // Parameter-free runs omit the fields.
        let resp = dispatch(
            &session,
            r#"{"op":"run","source":"for i = 0..=9 { A[i] = A[i] + 1; }"}"#,
        );
        assert!(resp.ok, "{}", resp.body);
        let body = crate::json::parse(&resp.body).unwrap();
        assert!(body.get_str("verdict").is_none());
        assert!(body.get("interval_hit").is_none());
    }

    #[test]
    fn observed_threads_cover_only_this_requests_regions() {
        let session = Session::builder().cache_capacity(2, 8).threads(2).build();
        let run = |source: &str, k: i64| {
            let resp = dispatch(
                &session,
                &format!(
                    r#"{{"op":"run","source":"{source}","params":["K"],"values":{{"K":{k}}}}}"#
                ),
            );
            assert!(resp.ok, "{}", resp.body);
            crate::json::parse(&resp.body).unwrap()
        };
        // At K = 0 every cell is read and written by one iteration only,
        // so the plan certifies; the fresh audit of its 8192 iterations
        // runs far longer than rayon::SPAWN_AFTER, so the request goes
        // 2 wide.
        let wide = "for i1 = 0..=255 { for i2 = 0..=31 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        let body = run(wide, 0);
        assert_eq!(body.get_str("verdict"), Some("certified"));
        assert_eq!(body.get_num("observed_threads"), Some(2.0));
        // The hull splits this loop into even/odd chains; K = 1 makes
        // each chain write what the other reads, so the fresh audit
        // rejects it. The second request is a cached verdict and a
        // sequential run: it opens no region at all and must not
        // report the previous request's width.
        let chain = "for i = 2..=21 { A[i + K] = A[i - 2] + 1; }";
        assert_eq!(run(chain, 1).get_str("verdict"), Some("rejected"));
        let again = run(chain, 1);
        assert_eq!(again.get_num("observed_threads"), Some(1.0));
        assert_eq!(again.get_num("observed_steals"), Some(0.0));
    }

    #[test]
    fn long_stages_go_wide_and_match_the_reference() {
        // Four rows of 16384 groups: at K = 1 each row is one refined
        // stage, at K = 0 the plan certifies as one region, and either
        // way a region runs far past rayon::SPAWN_AFTER, so helper
        // threads join and run tasks with worker state of their own
        // (or kept from an earlier stage). The second request of each
        // valuation is a cached verdict, so its observed width is the
        // execution's alone.
        let session = Session::builder().cache_capacity(2, 8).threads(2).build();
        let src = "for i1 = 0..=3 { for i2 = 0..=16383 { A[i1 + K, i2] = A[i1, i2] + 1; } }";
        for (k, kind) in [(1, "refined"), (0, "certified")] {
            let nest = pdm_loopir::parse::parse_loop_with(src, &[("K", k)]).unwrap();
            let mut reference = pdm_runtime::Memory::for_nest(&nest).unwrap();
            reference.init_deterministic(4);
            pdm_runtime::run_sequential(&nest, &reference).unwrap();
            let expect = reference
                .snapshot()
                .iter()
                .flatten()
                .fold(0i64, |acc, &v| acc.wrapping_add(v));
            for _ in 0..2 {
                let resp = dispatch(
                    &session,
                    &format!(
                        r#"{{"op":"run","source":"{src}","params":["K"],"values":{{"K":{k}}},"seed":4}}"#
                    ),
                );
                assert!(resp.ok, "{}", resp.body);
                let body = crate::json::parse(&resp.body).unwrap();
                assert_eq!(body.get_str("verdict"), Some(kind));
                assert_eq!(body.get_num("iterations"), Some(65536.0));
                assert_eq!(body.get_num("checksum"), Some(expect as f64), "K={k}");
                assert_eq!(body.get_num("observed_threads"), Some(2.0), "K={k}");
            }
        }
        assert_eq!(session.verdicts().stats().hits, 2);
    }

    #[test]
    fn memo_hit_of_an_evicted_template_plans_again() {
        // Two shards of one template each: find a second shape on the
        // first one's shard, so planning it evicts the first template
        // while the source memo (capacity 2) still holds both sources.
        let session = Session::builder().cache_capacity(2, 1).threads(1).build();
        let source = |d: u64| format!("for i = 1..=N {{ A[i + {d}] = A[i] + 1; }}");
        let shard = |d: u64| {
            pdm_loopir::parse::parse_loop_symbolic(&source(d), &["N"])
                .unwrap()
                .structural_hash()
                % 2
        };
        let other = (3..).find(|&d| shard(d) == shard(2)).unwrap();
        let plan = |d: u64| {
            let resp = dispatch(
                &session,
                &format!(r#"{{"op":"plan","source":"{}","params":["N"]}}"#, source(d)),
            );
            assert!(resp.ok, "{}", resp.body);
        };
        plan(2);
        plan(other);
        assert_eq!(session.cache_stats().evictions, 1);
        // A memo hit whose template is gone goes through the cache by
        // nest, not by hash: it plans again instead of failing with
        // unknown_shape.
        plan(2);
        assert_eq!(session.memoized_sources(), 2);
        assert_eq!(session.cache_stats().planned, 3);
        assert_eq!(session.cache_stats().hits, 0);
    }

    #[test]
    fn error_body_renders_overloaded() {
        let body = error_body("", &PdmError::Overloaded);
        let parsed = crate::json::parse(&body).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get_str("kind"), Some("overloaded"));
    }
}
