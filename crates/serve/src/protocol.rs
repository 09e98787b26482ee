//! The newline-delimited JSON protocol of `palo-serve`.
//!
//! One request per line in, one response per line out, correlated by
//! `id`. A request names a suite kernel and optionally a size, a lane,
//! a deadline, a trace-line budget, a fault plan and whether a simulated
//! time estimate is wanted:
//!
//! ```json
//! {"id":"r1","kernel":"matmul","size":256,"priority":"interactive",
//!  "deadline_ms":250,"estimate":true}
//! ```
//!
//! Every submitted request receives exactly one response — success,
//! degradation and rejection alike — so a client can account for each
//! line it wrote. A success reports the decision per nest (multi-stage
//! kernels like `3mm` produce several), the degradation-ladder rung each
//! nest landed on, the fidelity and shedding level the request was
//! served at, the queue pressure that drove them, and the run's
//! artifact-cache counter movement. A rejection is typed
//! ([`ErrorKind`]), never a dropped line.

use crate::shed::{Fidelity, ShedLevel};
use palo_codec::json::{push_json_f64, push_json_str, Json};
use palo_core::{CacheStats, FaultPlan, Priority, RunOverrides};
use std::time::Duration;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id echoed in the response.
    pub id: String,
    /// Suite kernel name (`matmul`, `3mm`, `tp`, …).
    pub kernel: String,
    /// Problem size; the suite's scaled default when absent.
    pub size: Option<usize>,
    /// Scheduling lane.
    pub priority: Priority,
    /// Wall-clock deadline, measured from admission.
    pub deadline: Option<Duration>,
    /// Trace-line budget override for the simulation stage.
    pub max_trace_lines: Option<u64>,
    /// Requested fidelity (`"estimate": false` asks for analytic only).
    pub fidelity: Fidelity,
    /// Per-request fault plan (chaos testing); bypasses the artifact
    /// cache while armed.
    pub faults: Option<FaultPlan>,
}

/// A request line that could not be parsed: the id when one was
/// recoverable, and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// The request's `id`, when the line was well-formed enough to have
    /// one (so the rejection can still be correlated).
    pub id: Option<String>,
    /// What was malformed.
    pub message: String,
}

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BadRequest {}

impl Request {
    /// Parses one request line. `fallback_id` names the response when
    /// the request carries no `id` of its own (the server passes a
    /// per-connection sequence number).
    ///
    /// Unknown fields are ignored (forward compatibility); known fields
    /// of the wrong type are errors.
    ///
    /// # Errors
    ///
    /// [`BadRequest`] on malformed JSON, a missing `kernel`, or a
    /// mistyped field.
    pub fn parse(line: &str, fallback_id: &str) -> Result<Request, BadRequest> {
        let v =
            Json::parse(line).map_err(|e| BadRequest { id: None, message: e.to_string() })?;
        let id = match v.get("id") {
            None => fallback_id.to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(_) => {
                return Err(BadRequest { id: None, message: "id must be a string".into() })
            }
        };
        let fail = |message: &str| BadRequest { id: Some(id.clone()), message: message.into() };

        let kernel = match v.get("kernel") {
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err(fail("kernel must be a string")),
            None => return Err(fail("missing kernel")),
        };
        let size = match v.get("size") {
            None | Some(Json::Null) => None,
            Some(s) => match s.as_u64() {
                Some(n) if n > 0 => Some(n as usize),
                _ => return Err(fail("size must be a positive integer")),
            },
        };
        let priority = match v.get("priority") {
            None => Priority::Batch,
            Some(Json::Str(s)) if s == "interactive" => Priority::Interactive,
            Some(Json::Str(s)) if s == "batch" => Priority::Batch,
            Some(_) => return Err(fail("priority must be \"interactive\" or \"batch\"")),
        };
        let deadline = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => match d.as_f64() {
                Some(ms) if ms >= 0.0 && ms.is_finite() => {
                    Some(Duration::from_secs_f64(ms / 1e3))
                }
                _ => return Err(fail("deadline_ms must be a non-negative number")),
            },
        };
        let max_trace_lines = match v.get("max_trace_lines") {
            None | Some(Json::Null) => None,
            Some(m) => match m.as_u64() {
                Some(n) => Some(n),
                None => return Err(fail("max_trace_lines must be a non-negative integer")),
            },
        };
        let fidelity = match v.get("estimate") {
            None => Fidelity::Full,
            Some(Json::Bool(true)) => Fidelity::Full,
            Some(Json::Bool(false)) => Fidelity::Analytic,
            Some(_) => return Err(fail("estimate must be a boolean")),
        };
        let faults = match v.get("faults") {
            None | Some(Json::Null) => None,
            Some(f @ Json::Obj(_)) => {
                let mut plan = FaultPlan::default();
                if let Some(n) = f.get("fail_first_lowerings") {
                    plan.fail_first_lowerings = n
                        .as_u64()
                        .ok_or_else(|| fail("fail_first_lowerings must be an integer"))?;
                }
                if let Some(b) = f.get("trace_overflow") {
                    plan.trace_overflow =
                        b.as_bool().ok_or_else(|| fail("trace_overflow must be a boolean"))?;
                }
                if let Some(b) = f.get("panic_in_optimizer") {
                    plan.panic_in_optimizer = b
                        .as_bool()
                        .ok_or_else(|| fail("panic_in_optimizer must be a boolean"))?;
                }
                Some(plan)
            }
            Some(_) => return Err(fail("faults must be an object")),
        };

        Ok(Request { id, kernel, size, priority, deadline, max_trace_lines, fidelity, faults })
    }

    /// The [`RunOverrides`] this request layers over the session config,
    /// given the deadline *remaining* at dequeue time and the fidelity
    /// the shedding ladder granted.
    pub fn overrides(&self, remaining: Option<Duration>, served: Fidelity) -> RunOverrides {
        RunOverrides {
            deadline: remaining,
            max_trace_lines: self.max_trace_lines,
            // A request that carries no faults explicitly *disarms* any
            // session-wide plan: chaos belongs to the request that asked
            // for it.
            faults: Some(self.faults.unwrap_or_default()),
            simulate: Some(served == Fidelity::Full),
        }
    }

    /// Serializes the request back to one protocol line (used by clients
    /// and the test harnesses).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"id\":");
        push_json_str(&mut out, &self.id);
        out.push_str(",\"kernel\":");
        push_json_str(&mut out, &self.kernel);
        if let Some(size) = self.size {
            out.push_str(&format!(",\"size\":{size}"));
        }
        out.push_str(&format!(",\"priority\":\"{}\"", self.priority));
        if let Some(d) = self.deadline {
            out.push_str(",\"deadline_ms\":");
            push_json_f64(&mut out, d.as_secs_f64() * 1e3);
        }
        if let Some(m) = self.max_trace_lines {
            out.push_str(&format!(",\"max_trace_lines\":{m}"));
        }
        out.push_str(&format!(",\"estimate\":{}", self.fidelity == Fidelity::Full));
        if let Some(f) = self.faults {
            out.push_str(&format!(
                ",\"faults\":{{\"fail_first_lowerings\":{},\"trace_overflow\":{},\
                 \"panic_in_optimizer\":{}}}",
                f.fail_first_lowerings, f.trace_overflow, f.panic_in_optimizer
            ));
        }
        out.push('}');
        out
    }
}

/// Why a request was rejected or failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request line was malformed (bad JSON, unknown kernel, bad
    /// field).
    BadRequest,
    /// The admission queue was full: the request was rejected at the
    /// door rather than buffered without bound.
    QueueFull,
    /// The server is draining: the request was not admitted (or was
    /// still queued when shutdown began).
    Shutdown,
    /// The deadline expired before the request reached a worker.
    DeadlineExpired,
    /// The pipeline failed outright (every ladder rung failed), even
    /// after the retry-with-degradation.
    Failed,
}

impl ErrorKind {
    /// Stable machine-readable name (the `error` field of the response).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::DeadlineExpired => "deadline_expired",
            ErrorKind::Failed => "failed",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Aggregated wall-clock of one pass across a run (the profile line a
/// warm daemon exposes instead of a `--profile` rerun).
#[derive(Debug, Clone, PartialEq)]
pub struct PassTotal {
    /// Pass name (`classify`, `optimize`, `lower`, …).
    pub pass: String,
    /// Total wall-clock milliseconds across the run's requests.
    pub ms: f64,
    /// Pass requests issued by the run.
    pub requests: u32,
    /// How many were served from the artifact cache.
    pub cached: u32,
}

/// The decision for one nest of the request's kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct NestResult {
    /// The nest's name.
    pub name: String,
    /// The degradation-ladder rung whose schedule was accepted.
    pub rung: String,
    /// The classifier's verdict (`Temporal`, `Spatial`, `ContiguousOnly`),
    /// when the optimizer ran.
    pub class: Option<String>,
    /// Tile size per loop variable (empty when the optimizer failed).
    pub tile: Vec<usize>,
    /// The winning candidate's model cost, when the optimizer ran.
    pub predicted_cost: Option<f64>,
    /// Cost-model terms of the winning candidate `[cl1, cl2, cl2_lines,
    /// corder, pref_efficiency]`, when the optimizer ran.
    pub breakdown: Option<[f64; 5]>,
    /// Simulated milliseconds; `None` when simulation was shed, failed,
    /// or not requested.
    pub estimate_ms: Option<f64>,
    /// Per-pass wall-clock totals of this run.
    pub passes: Vec<PassTotal>,
    /// Replay-engine telemetry of the simulation, when it ran:
    /// `[runs, run_lines, cycles_skipped, lines_skipped]` (the last two
    /// are always 0; see `ReplayStats` in `palo-cachesim`).
    pub replay: Option<[u64; 4]>,
    /// Failures recorded while descending the ladder (rendered).
    pub failures: Vec<String>,
}

/// A successfully served request (possibly degraded — check
/// [`OkResponse::fidelity`] and the per-nest rungs).
#[derive(Debug, Clone, PartialEq)]
pub struct OkResponse {
    /// The kernel served.
    pub kernel: String,
    /// One decision per nest of the kernel.
    pub nests: Vec<NestResult>,
    /// The fidelity the request was *served* at (≤ the requested one).
    pub fidelity: Fidelity,
    /// The shedding-ladder level in force when the request was dequeued.
    pub shed_level: ShedLevel,
    /// The queue-pressure reading that produced that level.
    pub pressure: f64,
    /// Whether the answer came from the degraded retry after a transient
    /// first-attempt failure.
    pub retried: bool,
    /// Artifact-cache counter movement of this run.
    pub cache: CacheStats,
    /// Wall-clock from admission to response.
    pub elapsed: Duration,
}

impl OkResponse {
    /// A canonical rendering of the decision alone — rungs, classes,
    /// tiles and model costs, with timing, caching and load artifacts
    /// excluded. Two runs of the same fault-free request must agree on
    /// this byte-for-byte regardless of worker count, cache state or
    /// load (the soak's determinism assertion).
    pub fn decision_signature(&self) -> String {
        let mut sig = String::new();
        for n in &self.nests {
            sig.push_str(&format!(
                "{}:{}:{}:{:?}:{:?};",
                n.name,
                n.rung,
                n.class.as_deref().unwrap_or("-"),
                n.tile,
                n.predicted_cost
            ));
        }
        sig
    }
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Served (possibly at reduced fidelity).
    Ok(OkResponse),
    /// Rejected or failed, with the reason typed.
    Err {
        /// The rejection/failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// One response line, correlated to its request by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id.
    pub id: String,
    /// Outcome.
    pub body: ResponseBody,
}

impl Response {
    /// A typed rejection/failure response.
    pub fn error(id: &str, kind: ErrorKind, message: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            body: ResponseBody::Err { kind, message: message.into() },
        }
    }

    /// Whether this is a success.
    pub fn is_ok(&self) -> bool {
        matches!(self.body, ResponseBody::Ok(_))
    }

    /// The success body, when there is one.
    pub fn ok(&self) -> Option<&OkResponse> {
        match &self.body {
            ResponseBody::Ok(ok) => Some(ok),
            ResponseBody::Err { .. } => None,
        }
    }

    /// The error kind, when this is a rejection/failure.
    pub fn error_kind(&self) -> Option<ErrorKind> {
        match &self.body {
            ResponseBody::Ok(_) => None,
            ResponseBody::Err { kind, .. } => Some(*kind),
        }
    }

    /// Serializes to one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"id\":");
        push_json_str(&mut out, &self.id);
        match &self.body {
            ResponseBody::Err { kind, message } => {
                out.push_str(",\"ok\":false,\"error\":");
                push_json_str(&mut out, kind.as_str());
                out.push_str(",\"message\":");
                push_json_str(&mut out, message);
            }
            ResponseBody::Ok(ok) => {
                out.push_str(",\"ok\":true,\"kernel\":");
                push_json_str(&mut out, &ok.kernel);
                out.push_str(&format!(
                    ",\"fidelity\":\"{}\",\"shed_level\":\"{}\",\"pressure\":",
                    ok.fidelity, ok.shed_level
                ));
                push_json_f64(&mut out, ok.pressure);
                out.push_str(&format!(",\"retried\":{},\"nests\":[", ok.retried));
                for (i, n) in ok.nests.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    push_json_str(&mut out, &n.name);
                    out.push_str(",\"rung\":");
                    push_json_str(&mut out, &n.rung);
                    if let Some(class) = &n.class {
                        out.push_str(",\"class\":");
                        push_json_str(&mut out, class);
                    }
                    out.push_str(",\"tile\":[");
                    for (j, t) in n.tile.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&t.to_string());
                    }
                    out.push(']');
                    if let Some(cost) = n.predicted_cost {
                        out.push_str(",\"predicted_cost\":");
                        push_json_f64(&mut out, cost);
                    }
                    if let Some(bd) = n.breakdown {
                        out.push_str(",\"breakdown\":[");
                        for (j, term) in bd.iter().enumerate() {
                            if j > 0 {
                                out.push(',');
                            }
                            push_json_f64(&mut out, *term);
                        }
                        out.push(']');
                    }
                    if let Some(ms) = n.estimate_ms {
                        out.push_str(",\"estimate_ms\":");
                        push_json_f64(&mut out, ms);
                    }
                    out.push_str(",\"passes\":[");
                    for (j, p) in n.passes.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str("{\"pass\":");
                        push_json_str(&mut out, &p.pass);
                        out.push_str(",\"ms\":");
                        push_json_f64(&mut out, p.ms);
                        out.push_str(&format!(
                            ",\"requests\":{},\"cached\":{}}}",
                            p.requests, p.cached
                        ));
                    }
                    out.push(']');
                    if let Some(r) = n.replay {
                        out.push_str(&format!(
                            ",\"replay\":[{},{},{},{}]",
                            r[0], r[1], r[2], r[3]
                        ));
                    }
                    out.push_str(",\"failures\":[");
                    for (j, f) in n.failures.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        push_json_str(&mut out, f);
                    }
                    out.push_str("]}");
                }
                let tier = |t: &palo_core::TierStats| {
                    format!(
                        "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"bytes_written\":{}}}",
                        t.hits, t.misses, t.evictions, t.bytes_written
                    )
                };
                out.push_str(&format!(
                    "],\"cache\":{{\"hits\":{},\"misses\":{},\"bypasses\":{},\
                     \"anomalies\":{},\"mem\":{},\"disk\":{}}},\"elapsed_ms\":",
                    ok.cache.hits,
                    ok.cache.misses,
                    ok.cache.bypasses,
                    ok.cache.anomalies,
                    tier(&ok.cache.mem),
                    tier(&ok.cache.disk)
                ));
                push_json_f64(&mut out, ok.elapsed.as_secs_f64() * 1e3);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request {
            id: "r-1".into(),
            kernel: "3mm".into(),
            size: Some(128),
            priority: Priority::Interactive,
            deadline: Some(Duration::from_millis(250)),
            max_trace_lines: Some(1_000_000),
            fidelity: Fidelity::Full,
            faults: Some(FaultPlan { fail_first_lowerings: 2, ..FaultPlan::default() }),
        };
        assert_eq!(Request::parse(&req.to_json(), "fallback"), Ok(req));
    }

    #[test]
    fn minimal_request_gets_defaults_and_fallback_id() {
        let req = Request::parse(r#"{"kernel":"matmul"}"#, "#7").unwrap();
        assert_eq!(req.id, "#7");
        assert_eq!(req.kernel, "matmul");
        assert_eq!(req.size, None);
        assert_eq!(req.priority, Priority::Batch);
        assert_eq!(req.deadline, None);
        assert_eq!(req.fidelity, Fidelity::Full);
        assert_eq!(req.faults, None);
    }

    #[test]
    fn bad_requests_are_typed_and_keep_the_id_when_recoverable() {
        // No id recoverable from broken JSON.
        assert_eq!(Request::parse("{oops", "#1").unwrap_err().id, None);
        // Id recoverable from a well-formed line with a bad field.
        let err = Request::parse(r#"{"id":"x","kernel":"tp","size":-3}"#, "#1").unwrap_err();
        assert_eq!(err.id.as_deref(), Some("x"));
        assert!(err.message.contains("size"));
        // Missing kernel.
        let err = Request::parse(r#"{"id":"y"}"#, "#1").unwrap_err();
        assert_eq!(err.id.as_deref(), Some("y"));
        assert!(err.message.contains("kernel"));
        // Unknown fields are ignored.
        assert!(Request::parse(r#"{"kernel":"tp","future_field":1}"#, "#1").is_ok());
    }

    #[test]
    fn overrides_carry_remaining_deadline_and_shed_fidelity() {
        let req = Request::parse(r#"{"kernel":"copy","deadline_ms":100}"#, "#1").unwrap();
        let o = req.overrides(Some(Duration::from_millis(40)), Fidelity::Analytic);
        assert_eq!(o.deadline, Some(Duration::from_millis(40)));
        assert_eq!(o.simulate, Some(false));
        // No explicit faults → the request *disarms* session-wide chaos.
        assert_eq!(o.faults, Some(FaultPlan::default()));
    }

    #[test]
    fn responses_serialize_to_parseable_lines() {
        let ok = Response {
            id: "r1".into(),
            body: ResponseBody::Ok(OkResponse {
                kernel: "matmul".into(),
                nests: vec![NestResult {
                    name: "matmul".into(),
                    rung: "proposed".into(),
                    class: Some("Temporal".into()),
                    tile: vec![64, 512, 16],
                    predicted_cost: Some(1.25e6),
                    breakdown: Some([1.0, 2.0, 3.0, 4.0, 0.5]),
                    estimate_ms: Some(3.5),
                    passes: vec![PassTotal {
                        pass: "optimize".into(),
                        ms: 1.25,
                        requests: 1,
                        cached: 0,
                    }],
                    replay: Some([4, 100, 0, 0]),
                    failures: vec![],
                }],
                fidelity: Fidelity::Full,
                shed_level: ShedLevel::Green,
                pressure: 0.25,
                retried: false,
                cache: CacheStats { hits: 5, misses: 1, ..CacheStats::default() },
                elapsed: Duration::from_millis(12),
            }),
        };
        let v = Json::parse(&ok.to_json()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("fidelity").and_then(Json::as_str), Some("full"));
        let nest = match v.get("nests") {
            Some(Json::Arr(items)) => &items[0],
            other => panic!("nests missing: {other:?}"),
        };
        assert_eq!(nest.get("rung").and_then(Json::as_str), Some("proposed"));
        assert_eq!(nest.get("estimate_ms").and_then(Json::as_f64), Some(3.5));
        let pass = match nest.get("passes") {
            Some(Json::Arr(items)) => &items[0],
            other => panic!("passes missing: {other:?}"),
        };
        assert_eq!(pass.get("pass").and_then(Json::as_str), Some("optimize"));
        assert_eq!(pass.get("requests").and_then(Json::as_u64), Some(1));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(5));
        assert_eq!(cache.get("anomalies").and_then(Json::as_u64), Some(0));
        let mem = cache.get("mem").expect("per-tier counters must serialize");
        assert_eq!(mem.get("evictions").and_then(Json::as_u64), Some(0));
        assert!(cache.get("disk").is_some());

        let err = Response::error("r2", ErrorKind::QueueFull, "queue at capacity (64)");
        let v = Json::parse(&err.to_json()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("queue_full"));
        assert_eq!(err.error_kind(), Some(ErrorKind::QueueFull));
    }

    #[test]
    fn decision_signature_ignores_load_artifacts() {
        let nest = NestResult {
            name: "tp".into(),
            rung: "proposed".into(),
            class: Some("Spatial".into()),
            tile: vec![64, 64],
            predicted_cost: Some(10.0),
            breakdown: None,
            estimate_ms: Some(1.0),
            passes: vec![],
            replay: None,
            failures: vec![],
        };
        let mk = |pressure: f64, level: ShedLevel, hits: u64| OkResponse {
            kernel: "tp".into(),
            nests: vec![nest.clone()],
            fidelity: Fidelity::Full,
            shed_level: level,
            pressure,
            retried: false,
            cache: CacheStats { hits, ..CacheStats::default() },
            elapsed: Duration::from_millis(7),
        };
        assert_eq!(
            mk(0.1, ShedLevel::Green, 0).decision_signature(),
            mk(0.9, ShedLevel::Red, 12).decision_signature()
        );
    }
}
