//! The fleetd wire protocol: versioned frames around flat JSON messages.
//!
//! One message codec serves both transports. Over a Unix socket each
//! message travels in a binary frame — magic, version byte, big-endian
//! `u32` payload length, UTF-8 JSON payload — so a reader never depends
//! on the payload being newline-free. Over stdio the *same* JSON
//! messages travel one per line (JSONL), which keeps the fallback
//! transport debuggable with a pipe and a pair of eyes.
//!
//! The decoder is hardened the way the checkpoint loader is: every
//! malformed input — bad magic, an unsupported version, an oversized or
//! truncated frame, invalid UTF-8, garbage JSON, an unknown message
//! type, a missing or mistyped field — is a typed [`ProtocolError`],
//! never a panic. `tests/protocol.rs` fuzzes this contract.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use vs_fleet::ControllerVariant;
use vs_types::json::{parse_object, ObjectWriter, Scalar};

/// First bytes of every socket frame.
pub const FRAME_MAGIC: [u8; 2] = *b"VF";
/// The protocol revision this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;
/// Upper bound on a frame payload; larger claims are rejected before any
/// allocation, so a corrupt length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a message could not be read or decoded. Decoding never panics;
/// every way an input can be wrong has a variant here.
#[derive(Debug)]
pub enum ProtocolError {
    /// The transport failed.
    Io(io::Error),
    /// A frame did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 2]),
    /// The peer speaks a protocol revision this build does not.
    UnsupportedVersion(u8),
    /// A frame claimed a payload larger than [`MAX_FRAME`].
    Oversized(usize),
    /// The stream ended inside a frame.
    Truncated,
    /// A payload was not valid UTF-8.
    BadUtf8,
    /// A payload was not a flat JSON object.
    Json(String),
    /// A message's `type` field named no known message.
    UnknownType(String),
    /// A message lacked a required field.
    MissingField(&'static str),
    /// A field was present but held the wrong kind of value.
    BadField(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::BadMagic(b) => write!(f, "bad frame magic {b:02x?}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (speaking {PROTOCOL_VERSION})"
                )
            }
            ProtocolError::Oversized(n) => {
                write!(f, "frame claims {n} bytes (cap {MAX_FRAME})")
            }
            ProtocolError::Truncated => write!(f, "stream ended inside a frame"),
            ProtocolError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
            ProtocolError::Json(msg) => write!(f, "malformed message: {msg}"),
            ProtocolError::UnknownType(t) => write!(f, "unknown message type {t:?}"),
            ProtocolError::MissingField(k) => write!(f, "message is missing field {k:?}"),
            ProtocolError::BadField(k) => write!(f, "message field {k:?} has the wrong type"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

/// Everything that describes one sweep job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Fleet seed — with `chips`, `variant`, and `quick` this pins the
    /// store fingerprint the job reads and writes.
    pub seed: u64,
    /// Number of chips to simulate.
    pub chips: u64,
    /// Which controller the fleet runs.
    pub variant: ControllerVariant,
    /// Use the reduced 2-core configuration (`FleetConfig::small`).
    pub quick: bool,
    /// Override the simulated run duration, in milliseconds (0 keeps the
    /// config default).
    pub run_ms: u64,
    /// Arm the safety-invariant sentinel for this job.
    pub sentinel: bool,
    /// Fault-injection directives in the [`vs_faults::FaultSpec`] grammar
    /// (e.g. `"due@500ms:d0,panic:chip3x2"`); empty injects nothing.
    /// Decoded leniently — a client that never sends the field gets an
    /// empty spec, so old clients keep working against new daemons.
    pub inject: String,
    /// Client-generated idempotency key; empty means none. Resubmitting a
    /// spec under a key the daemon has already admitted returns the
    /// *existing* job's id (with `deduped` set) instead of starting a
    /// duplicate sweep — the retry contract that makes at-least-once
    /// submission safe. Not part of the store fingerprint. Decoded
    /// leniently, like `inject`.
    pub key: String,
    /// Per-job wall-clock deadline in milliseconds; 0 means "use the
    /// daemon's configured default". The effective deadline is the
    /// *minimum* of this and the daemon's own, so a client can tighten
    /// but never loosen the budget. Decoded leniently.
    pub deadline_ms: u64,
}

/// A snapshot of the daemon, answered to `Stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonStats {
    /// Jobs currently executing on a worker.
    pub running: u64,
    /// Jobs admitted but not yet started.
    pub queued: u64,
    /// Jobs finished successfully since startup.
    pub completed: u64,
    /// Jobs cancelled since startup.
    pub cancelled: u64,
    /// Jobs that failed since startup.
    pub failed: u64,
    /// Submissions rejected by admission control since startup.
    pub rejected: u64,
    /// Chip records compacted into the persistent store.
    pub stored_chips: u64,
    /// Size of the worker pool.
    pub workers: u64,
    /// Admission-control queue depth cap.
    pub queue_cap: u64,
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a sweep job; answered `Submitted` or `Busy`.
    Submit(SweepSpec),
    /// Ask for a [`DaemonStats`] snapshot.
    Stats,
    /// Ask for a Prometheus-text metrics snapshot; answered `Metrics`.
    Metrics,
    /// Follow a job's event stream from the beginning: buffered events
    /// replay first, then live ones, ending with a terminal event.
    Watch {
        /// The job to follow.
        job: u64,
    },
    /// Cooperatively cancel a job.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Ask the daemon to drain and exit; answered `Bye`.
    Shutdown,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted.
    Submitted {
        /// Its id, for `Watch`/`Cancel`.
        job: u64,
        /// True when the submission's idempotency key matched a job the
        /// daemon already admitted: `job` is that existing job and no new
        /// sweep was started. Decoded leniently (absent means `false`).
        deduped: bool,
    },
    /// Admission control rejected (shed) the submission: the queue is at
    /// cap, or the store is parked on ENOSPC.
    Busy {
        /// Jobs currently executing.
        running: u64,
        /// Jobs waiting in the queue.
        queued: u64,
        /// The queue depth cap that was hit.
        cap: u64,
        /// `Retry-After`-style hint: how long the client should wait
        /// before retrying, derived deterministically from queue state.
        /// Decoded leniently (absent means 0: retry at will).
        retry_after_ms: u64,
        /// True when the shed was due to the store being parked (ENOSPC
        /// drain mode), not queue depth. Decoded leniently.
        parked: bool,
    },
    /// The stats snapshot.
    Stats(DaemonStats),
    /// The metrics snapshot, answered to `Metrics`.
    Metrics {
        /// The full Prometheus text exposition, newlines and all — the
        /// codec's string escaping keeps it one flat JSON field.
        text: String,
    },
    /// One chip finished (streamed while watching).
    Chip {
        /// The job it belongs to.
        job: u64,
        /// The chip id.
        chip: u64,
        /// Chips finished so far, including this one.
        completed: u64,
        /// Chips the job will simulate in total.
        total: u64,
        /// The chip's `job_finished` telemetry event, rendered as the
        /// same JSON the telemetry JSONL sink writes.
        event: String,
    },
    /// Terminal: the job completed.
    Done {
        /// The job.
        job: u64,
        /// Summaries in the final result.
        chips: u64,
        /// Chips restored from the store rather than simulated.
        resumed: u64,
        /// Mean Vdd reduction across the population.
        mean_vdd_reduction: f64,
        /// Sentinel violations recorded (0 unless armed).
        violations: u64,
    },
    /// Terminal: the job was cancelled; its durable progress is kept.
    Cancelled {
        /// The job.
        job: u64,
        /// Chips whose records were made durable before the stop.
        chips: u64,
    },
    /// Terminal: the job failed.
    Failed {
        /// The job.
        job: u64,
        /// Why.
        error: String,
    },
    /// A request could not be served (unknown job, invalid spec).
    Error {
        /// What went wrong.
        msg: String,
    },
    /// Answer to `Shutdown`: the daemon is draining.
    Bye,
}

// ---------------------------------------------------------------------------
// Messages are flat JSON objects (`vs_types::json`) whose first field is
// their `type`.
// ---------------------------------------------------------------------------

/// Starts a message of the given type.
fn message(msg_type: &str) -> ObjectWriter {
    ObjectWriter::new().str("type", msg_type)
}

/// A decoded message's fields, with typed, protocol-error accessors.
struct Fields(BTreeMap<String, Scalar>);

impl Fields {
    fn parse(text: &str) -> Result<Fields, ProtocolError> {
        parse_object(text)
            .map(Fields)
            .map_err(|e| ProtocolError::Json(e.0))
    }

    fn get<'a, T>(
        &'a self,
        key: &'static str,
        typed: impl FnOnce(&'a Scalar) -> Option<T>,
    ) -> Result<T, ProtocolError> {
        let value = self.0.get(key).ok_or(ProtocolError::MissingField(key))?;
        typed(value).ok_or(ProtocolError::BadField(key))
    }

    fn str(&self, key: &'static str) -> Result<&str, ProtocolError> {
        self.get(key, Scalar::as_str)
    }

    fn u64(&self, key: &'static str) -> Result<u64, ProtocolError> {
        self.get(key, Scalar::as_u64)
    }

    fn f64(&self, key: &'static str) -> Result<f64, ProtocolError> {
        self.get(key, Scalar::as_f64)
    }

    fn bool(&self, key: &'static str) -> Result<bool, ProtocolError> {
        self.get(key, Scalar::as_bool)
    }
}

/// Renders a request as its one-line JSON message.
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Submit(spec) => message("submit")
            .u64("seed", spec.seed)
            .u64("chips", spec.chips)
            .str("variant", spec.variant.label())
            .bool("quick", spec.quick)
            .u64("run_ms", spec.run_ms)
            .bool("sentinel", spec.sentinel)
            .str("inject", &spec.inject)
            .str("key", &spec.key)
            .u64("deadline_ms", spec.deadline_ms)
            .finish(),
        Request::Stats => message("stats").finish(),
        Request::Metrics => message("metrics").finish(),
        Request::Watch { job } => message("watch").u64("job", *job).finish(),
        Request::Cancel { job } => message("cancel").u64("job", *job).finish(),
        Request::Shutdown => message("shutdown").finish(),
    }
}

/// Decodes a request message. Never panics, whatever the input.
pub fn decode_request(text: &str) -> Result<Request, ProtocolError> {
    let fields = Fields::parse(text)?;
    match fields.str("type")? {
        "submit" => {
            let variant = ControllerVariant::parse(fields.str("variant")?)
                .ok_or(ProtocolError::BadField("variant"))?;
            Ok(Request::Submit(SweepSpec {
                seed: fields.u64("seed")?,
                chips: fields.u64("chips")?,
                variant,
                quick: fields.bool("quick")?,
                run_ms: fields.u64("run_ms")?,
                sentinel: fields.bool("sentinel")?,
                // Lenient: absent on old clients means "inject nothing".
                inject: fields.str("inject").map(str::to_string).unwrap_or_default(),
                // Lenient: absent means "no idempotency key".
                key: fields.str("key").map(str::to_string).unwrap_or_default(),
                // Lenient: absent means "daemon default deadline".
                deadline_ms: fields.u64("deadline_ms").unwrap_or(0),
            }))
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "watch" => Ok(Request::Watch {
            job: fields.u64("job")?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: fields.u64("job")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::UnknownType(other.to_string())),
    }
}

/// Renders a response as its one-line JSON message.
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Submitted { job, deduped } => message("submitted")
            .u64("job", *job)
            .bool("deduped", *deduped)
            .finish(),
        Response::Busy {
            running,
            queued,
            cap,
            retry_after_ms,
            parked,
        } => message("busy")
            .u64("running", *running)
            .u64("queued", *queued)
            .u64("cap", *cap)
            .u64("retry_after_ms", *retry_after_ms)
            .bool("parked", *parked)
            .finish(),
        Response::Stats(s) => message("stats")
            .u64("running", s.running)
            .u64("queued", s.queued)
            .u64("completed", s.completed)
            .u64("cancelled", s.cancelled)
            .u64("failed", s.failed)
            .u64("rejected", s.rejected)
            .u64("stored_chips", s.stored_chips)
            .u64("workers", s.workers)
            .u64("queue_cap", s.queue_cap)
            .finish(),
        Response::Metrics { text } => message("metrics").str("text", text).finish(),
        Response::Chip {
            job,
            chip,
            completed,
            total,
            event,
        } => message("chip")
            .u64("job", *job)
            .u64("chip", *chip)
            .u64("completed", *completed)
            .u64("total", *total)
            .str("event", event)
            .finish(),
        Response::Done {
            job,
            chips,
            resumed,
            mean_vdd_reduction,
            violations,
        } => message("done")
            .u64("job", *job)
            .u64("chips", *chips)
            .u64("resumed", *resumed)
            .f64("mean_vdd_reduction", *mean_vdd_reduction)
            .u64("violations", *violations)
            .finish(),
        Response::Cancelled { job, chips } => message("cancelled")
            .u64("job", *job)
            .u64("chips", *chips)
            .finish(),
        Response::Failed { job, error } => message("failed")
            .u64("job", *job)
            .str("error", error)
            .finish(),
        Response::Error { msg } => message("error").str("msg", msg).finish(),
        Response::Bye => message("bye").finish(),
    }
}

/// Decodes a response message. Never panics, whatever the input.
pub fn decode_response(text: &str) -> Result<Response, ProtocolError> {
    let fields = Fields::parse(text)?;
    match fields.str("type")? {
        "submitted" => Ok(Response::Submitted {
            job: fields.u64("job")?,
            // Lenient: an old daemon never dedupes.
            deduped: fields.bool("deduped").unwrap_or(false),
        }),
        "busy" => Ok(Response::Busy {
            running: fields.u64("running")?,
            queued: fields.u64("queued")?,
            cap: fields.u64("cap")?,
            // Lenient: an old daemon offers no hint and never parks.
            retry_after_ms: fields.u64("retry_after_ms").unwrap_or(0),
            parked: fields.bool("parked").unwrap_or(false),
        }),
        "stats" => Ok(Response::Stats(DaemonStats {
            running: fields.u64("running")?,
            queued: fields.u64("queued")?,
            completed: fields.u64("completed")?,
            cancelled: fields.u64("cancelled")?,
            failed: fields.u64("failed")?,
            rejected: fields.u64("rejected")?,
            stored_chips: fields.u64("stored_chips")?,
            workers: fields.u64("workers")?,
            queue_cap: fields.u64("queue_cap")?,
        })),
        "metrics" => Ok(Response::Metrics {
            text: fields.str("text")?.to_string(),
        }),
        "chip" => Ok(Response::Chip {
            job: fields.u64("job")?,
            chip: fields.u64("chip")?,
            completed: fields.u64("completed")?,
            total: fields.u64("total")?,
            event: fields.str("event")?.to_string(),
        }),
        "done" => Ok(Response::Done {
            job: fields.u64("job")?,
            chips: fields.u64("chips")?,
            resumed: fields.u64("resumed")?,
            mean_vdd_reduction: fields.f64("mean_vdd_reduction")?,
            violations: fields.u64("violations")?,
        }),
        "cancelled" => Ok(Response::Cancelled {
            job: fields.u64("job")?,
            chips: fields.u64("chips")?,
        }),
        "failed" => Ok(Response::Failed {
            job: fields.u64("job")?,
            error: fields.str("error")?.to_string(),
        }),
        "error" => Ok(Response::Error {
            msg: fields.str("msg")?.to_string(),
        }),
        "bye" => Ok(Response::Bye),
        other => Err(ProtocolError::UnknownType(other.to_string())),
    }
}

/// Writes one message as a socket frame: magic, version, length, payload.
pub fn write_frame(w: &mut impl Write, message: &str) -> io::Result<()> {
    debug_assert!(message.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(7 + message.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(PROTOCOL_VERSION);
    frame.extend_from_slice(&(message.len() as u32).to_be_bytes());
    frame.extend_from_slice(message.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one framed message. `Ok(None)` is a clean end-of-stream (EOF
/// exactly on a frame boundary); EOF anywhere inside a frame is
/// [`ProtocolError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, ProtocolError> {
    let mut header = [0u8; 7];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    if header[..2] != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic([header[0], header[1]]));
    }
    if header[2] != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion(header[2]));
    }
    let len = u32::from_be_bytes([header[3], header[4], header[5], header[6]]) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| ProtocolError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip_through_text() {
        let spec = SweepSpec {
            seed: u64::MAX - 3,
            chips: 64,
            variant: ControllerVariant::Software,
            quick: true,
            run_ms: 250,
            sentinel: true,
            inject: "due@500ms:d0,panic:chip3x2".into(),
            key: "client-77-submit-0".into(),
            deadline_ms: 1500,
        };
        let req = Request::Submit(spec);
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn submit_without_inject_decodes_to_empty_spec() {
        // An old client's submit message has no "inject", "key", or
        // "deadline_ms" field; the lenient decoder must treat those as
        // absent rather than reject the message.
        let text = "{\"type\":\"submit\",\"seed\":7,\"chips\":4,\"variant\":\"hw\",\
                    \"quick\":true,\"run_ms\":0,\"sentinel\":false}";
        match decode_request(text).unwrap() {
            Request::Submit(spec) => {
                assert_eq!(spec.inject, "");
                assert_eq!(spec.key, "");
                assert_eq!(spec.deadline_ms, 0);
            }
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn old_daemon_responses_decode_leniently() {
        // Pre-torture daemons answer without deduped / retry_after_ms /
        // parked; new clients must default them rather than error.
        let submitted = "{\"type\":\"submitted\",\"job\":3}";
        assert_eq!(
            decode_response(submitted).unwrap(),
            Response::Submitted {
                job: 3,
                deduped: false
            }
        );
        let busy = "{\"type\":\"busy\",\"running\":1,\"queued\":2,\"cap\":2}";
        assert_eq!(
            decode_response(busy).unwrap(),
            Response::Busy {
                running: 1,
                queued: 2,
                cap: 2,
                retry_after_ms: 0,
                parked: false,
            }
        );
        // And the new fields round-trip when present.
        let resp = Response::Busy {
            running: 4,
            queued: 2,
            cap: 2,
            retry_after_ms: 350,
            parked: true,
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::Submitted {
            job: 9,
            deduped: true,
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn metrics_messages_round_trip() {
        let req = Request::Metrics;
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let resp = Response::Metrics {
            text: "# TYPE voltspec_jobs_running gauge\nvoltspec_jobs_running 2\n".into(),
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn frames_round_trip_through_bytes() {
        let text = encode_response(&Response::Error {
            msg: "quote \" slash \\ newline \n done".into(),
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &text).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, text);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn hostile_numbers_are_typed_errors_not_panics() {
        // Every number a frame can carry goes through the same scalar
        // path; none of these may panic or silently wrap.
        let hostile = [
            // u64 overflow by one.
            "{\"type\":\"cancel\",\"job\":18446744073709551616}",
            // Negative where unsigned is expected.
            "{\"type\":\"cancel\",\"job\":-1}",
            // Float syntax in an integer field.
            "{\"type\":\"cancel\",\"job\":3.5}",
            // Exponent overflow (parses as f64 inf, not as u64).
            "{\"type\":\"cancel\",\"job\":1e309}",
            // JSON null funneled into an integer field.
            "{\"type\":\"cancel\",\"job\":null}",
            // Bare sign and dot salad the scalar scanner must reject.
            "{\"type\":\"cancel\",\"job\":--+..ee}",
            // Unpaired surrogate escape in a string field.
            "{\"type\":\"watch\",\"job\":1,\"cursor\":0,\"timeout_ms\":\"\\ud800\"}",
        ];
        for text in hostile {
            assert!(
                decode_request(text).is_err(),
                "hostile input must be a typed error: {text}"
            );
        }
    }

    #[test]
    fn oversized_claims_are_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(frame)),
            Err(ProtocolError::Oversized(_))
        ));
    }
}
