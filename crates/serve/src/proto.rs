//! The wire protocol: one JSON object per line in, one per line out.
//!
//! # Grammar
//!
//! Every request line is a JSON object with an `"op"` string and a
//! numeric `"id"` (client-chosen, echoed back verbatim; ids only need to
//! be unique among a connection's in-flight requests). Every response is
//! `{"id":…,"ok":true,"result":{…}}` or
//! `{"id":…,"ok":false,"error":{"code":…,"status":…,"message":…,"retryable":…}}`.
//!
//! Operations:
//!
//! | op              | payload                                                        |
//! |-----------------|----------------------------------------------------------------|
//! | `ping`          | —                                                              |
//! | `register_tech` | `base` (`"1p2um"`/`"0p5um"`), optional `name`/`vdd`/`vss`/`lmin`/`wmin` overrides; a new card past the farm's cap answers `registry_full` (507) |
//! | `register_calibration` | `table` (a calibration document as produced by `ape-calib`); a new table past the cap answers `registry_full` (507) |
//! | `design`        | `topology{mirror,buffer}`, `spec{gain,ugf_hz,area_max_m2,ibias,cl[,zout_ohm]}`, optional `technology`, `calibration`, `deadline_ms` |
//! | `estimate`      | `deck` (SPICE text), `output` (node name), optional `technology`, `calibration`, `deadline_ms`; a deck whose linearised system exceeds [`MAX_NETLIST_UNKNOWNS`](ape_core::netest::MAX_NETLIST_UNKNOWNS) unknowns answers `oversized` (413) without being queued |
//! | `cancel`        | `target` (the id of an in-flight request on this connection)   |
//! | `stats`         | —                                                              |
//! | `metrics`       | — (Prometheus text as a JSON string; also `GET /metrics`)      |
//! | `shutdown`      | — (requires the server to allow remote shutdown)               |

use crate::json::{self, obj, opt, s, Value};
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_core::{basic::MirrorTopology, netest::NetlistEstimate};
use ape_netlist::Technology;

/// Default cap on one request line, bytes. A line longer than this is
/// answered with [`ErrorCode::Oversized`] and discarded without parsing.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// Typed error vocabulary of the protocol, with HTTP-flavoured status
/// codes so load balancers and clients can triage without parsing
/// messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, missing/invalid fields, unknown op.
    BadRequest,
    /// The request line exceeded the size cap, or an `estimate` deck
    /// exceeded the estimator's cap on unknowns.
    Oversized,
    /// `technology` referenced an unregistered fingerprint.
    UnknownTechnology,
    /// `calibration` referenced an unregistered table fingerprint.
    UnknownCalibration,
    /// `calibration` referenced a table fitted for a different technology
    /// than the request runs on.
    CalibrationMismatch,
    /// A registration would add a new technology or calibration table past
    /// the farm's cap ([`ape_farm::MAX_REGISTERED`] of each kind). Earlier
    /// registrations stay usable; retrying cannot succeed.
    RegistryFull,
    /// Admission control rejected the request (connection budget or farm
    /// queue full). Retry after draining in-flight work.
    Overloaded,
    /// The per-request deadline expired before a result was published.
    DeadlineExceeded,
    /// The request was cancelled (explicit `cancel` op or disconnect).
    Cancelled,
    /// The estimator/synthesis rejected or could not satisfy the request.
    EstimatorError,
    /// The job died inside the farm (panic, lost worker).
    Internal,
    /// The server is shutting down.
    ShuttingDown,
}

impl ErrorCode {
    /// The protocol's stable string form.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownTechnology => "unknown_technology",
            ErrorCode::UnknownCalibration => "unknown_calibration",
            ErrorCode::CalibrationMismatch => "calibration_mismatch",
            ErrorCode::RegistryFull => "registry_full",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::EstimatorError => "estimator_error",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    /// HTTP-flavoured status (499 is nginx's client-closed-request).
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::Oversized => 413,
            ErrorCode::UnknownTechnology => 404,
            ErrorCode::UnknownCalibration => 404,
            ErrorCode::CalibrationMismatch => 409,
            ErrorCode::RegistryFull => 507,
            ErrorCode::Overloaded => 429,
            ErrorCode::DeadlineExceeded => 504,
            ErrorCode::Cancelled => 499,
            ErrorCode::EstimatorError => 422,
            ErrorCode::Internal => 500,
            ErrorCode::ShuttingDown => 503,
        }
    }

    /// Whether retrying the identical request later can succeed.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::DeadlineExceeded | ErrorCode::Cancelled
        )
    }
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// Register a tenant technology; answers its fingerprint.
    RegisterTech {
        /// The builtin card the tenant starts from.
        base: TechBase,
        /// Field overrides applied on top of the base card.
        overrides: TechOverrides,
    },
    /// Register a calibration table; answers its fingerprint.
    RegisterCalibration {
        /// The parsed calibration table.
        table: ape_calib::Calibration,
    },
    /// Size a two-stage op-amp.
    Design {
        /// Topology selections.
        topology: OpAmpTopology,
        /// Performance specification.
        spec: OpAmpSpec,
        /// Tenant technology fingerprint (`None` = server default).
        technology: Option<u64>,
        /// Registered calibration fingerprint (`None` = uncalibrated).
        calibration: Option<u64>,
        /// Per-request deadline, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Estimate an arbitrary SPICE netlist.
    Estimate {
        /// The SPICE deck text.
        deck: String,
        /// Output node name (as spelled in the deck).
        output: String,
        /// Tenant technology fingerprint (`None` = server default).
        technology: Option<u64>,
        /// Registered calibration fingerprint (`None` = uncalibrated).
        calibration: Option<u64>,
        /// Per-request deadline, milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Cancel an in-flight request on this connection.
    Cancel {
        /// The id of the request to cancel.
        target: u64,
    },
    /// Server + farm statistics.
    Stats,
    /// Prometheus metrics text.
    Metrics,
    /// Stop the server.
    Shutdown,
}

/// Builtin technology cards a tenant registration starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechBase {
    /// [`Technology::default_1p2um`] (5 V).
    OnePoint2um,
    /// [`Technology::default_0p5um`] (3.3 V).
    ZeroPoint5um,
}

/// Optional overrides applied to a [`TechBase`] card.
#[derive(Debug, Clone, Default)]
pub struct TechOverrides {
    /// New card name.
    pub name: Option<String>,
    /// Positive supply, volts.
    pub vdd: Option<f64>,
    /// Negative supply, volts.
    pub vss: Option<f64>,
    /// Minimum channel length, metres.
    pub lmin: Option<f64>,
    /// Minimum channel width, metres.
    pub wmin: Option<f64>,
}

impl TechOverrides {
    /// Materialises the tenant card.
    pub fn apply(&self, base: TechBase) -> Technology {
        let mut t = match base {
            TechBase::OnePoint2um => Technology::default_1p2um(),
            TechBase::ZeroPoint5um => Technology::default_0p5um(),
        };
        if let Some(name) = &self.name {
            t.name = name.clone();
        }
        if let Some(v) = self.vdd {
            t.vdd = v;
        }
        if let Some(v) = self.vss {
            t.vss = v;
        }
        if let Some(v) = self.lmin {
            t.lmin = v;
        }
        if let Some(v) = self.wmin {
            t.wmin = v;
        }
        t
    }
}

/// A protocol-level rejection: the error envelope for `id` (when the line
/// was parsed far enough to recover one).
#[derive(Debug, Clone)]
pub struct WireError {
    /// The typed code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

/// Parses one request line into `(id, request)`. On failure the `id` is
/// whatever could be recovered from the line (so the error response still
/// correlates), defaulting to 0.
pub fn parse_request(line: &str) -> Result<(u64, WireRequest), (u64, WireError)> {
    let doc = json::parse(line).map_err(|e| (0, WireError::new(ErrorCode::BadRequest, e)))?;
    let id = doc
        .get("id")
        .and_then(Value::as_f64)
        .filter(|v| v.is_finite() && *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| {
            (
                0,
                WireError::new(ErrorCode::BadRequest, "missing or non-integer `id`"),
            )
        })?;
    let op = doc.get("op").and_then(Value::as_str).ok_or_else(|| {
        (
            id,
            WireError::new(ErrorCode::BadRequest, "missing `op` string"),
        )
    })?;
    let req = match op {
        "ping" => WireRequest::Ping,
        "stats" => WireRequest::Stats,
        "metrics" => WireRequest::Metrics,
        "shutdown" => WireRequest::Shutdown,
        "cancel" => WireRequest::Cancel {
            target: field_u64(&doc, "target").map_err(|e| (id, e))?,
        },
        "register_tech" => {
            let base = match doc.get("base").and_then(Value::as_str) {
                Some("1p2um") | None => TechBase::OnePoint2um,
                Some("0p5um") => TechBase::ZeroPoint5um,
                Some(other) => {
                    return Err((
                        id,
                        WireError::new(
                            ErrorCode::BadRequest,
                            format!("unknown base technology `{other}` (want `1p2um` or `0p5um`)"),
                        ),
                    ))
                }
            };
            let overrides = TechOverrides {
                name: doc.get("name").and_then(Value::as_str).map(str::to_string),
                vdd: opt_finite(&doc, "vdd").map_err(|e| (id, e))?,
                vss: opt_finite(&doc, "vss").map_err(|e| (id, e))?,
                lmin: opt_finite(&doc, "lmin").map_err(|e| (id, e))?,
                wmin: opt_finite(&doc, "wmin").map_err(|e| (id, e))?,
            };
            WireRequest::RegisterTech { base, overrides }
        }
        "register_calibration" => {
            let table = doc.get("table").ok_or_else(|| {
                (
                    id,
                    WireError::new(ErrorCode::BadRequest, "missing `table` object"),
                )
            })?;
            let table = ape_calib::Calibration::from_json(table).map_err(|e| {
                (
                    id,
                    WireError::new(ErrorCode::BadRequest, format!("bad calibration table: {e}")),
                )
            })?;
            WireRequest::RegisterCalibration { table }
        }
        "design" => {
            let topology = parse_topology(doc.get("topology")).map_err(|e| (id, e))?;
            let spec = parse_spec(doc.get("spec")).map_err(|e| (id, e))?;
            WireRequest::Design {
                topology,
                spec,
                technology: parse_tech_ref(&doc).map_err(|e| (id, e))?,
                calibration: parse_fp_ref(&doc, "calibration").map_err(|e| (id, e))?,
                deadline_ms: parse_deadline(&doc).map_err(|e| (id, e))?,
            }
        }
        "estimate" => {
            let deck = doc
                .get("deck")
                .and_then(Value::as_str)
                .ok_or_else(|| {
                    (
                        id,
                        WireError::new(ErrorCode::BadRequest, "missing `deck` string"),
                    )
                })?
                .to_string();
            let output = doc
                .get("output")
                .and_then(Value::as_str)
                .ok_or_else(|| {
                    (
                        id,
                        WireError::new(ErrorCode::BadRequest, "missing `output` node name"),
                    )
                })?
                .to_string();
            WireRequest::Estimate {
                deck,
                output,
                technology: parse_tech_ref(&doc).map_err(|e| (id, e))?,
                calibration: parse_fp_ref(&doc, "calibration").map_err(|e| (id, e))?,
                deadline_ms: parse_deadline(&doc).map_err(|e| (id, e))?,
            }
        }
        other => {
            return Err((
                id,
                WireError::new(ErrorCode::BadRequest, format!("unknown op `{other}`")),
            ))
        }
    };
    Ok((id, req))
}

fn field_u64(doc: &Value, key: &str) -> Result<u64, WireError> {
    doc.get(key)
        .and_then(Value::as_f64)
        .filter(|v| v.is_finite() && *v >= 0.0 && v.fract() == 0.0)
        .map(|v| v as u64)
        .ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                format!("missing or non-integer `{key}`"),
            )
        })
}

fn opt_finite(doc: &Value, key: &str) -> Result<Option<f64>, WireError> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|v| v.is_finite())
            .map(Some)
            .ok_or_else(|| {
                WireError::new(ErrorCode::BadRequest, format!("`{key}` must be finite"))
            }),
    }
}

fn parse_deadline(doc: &Value) -> Result<Option<u64>, WireError> {
    match doc.get("deadline_ms") {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|v| v.is_finite() && *v >= 0.0 && v.fract() == 0.0)
            .map(|v| Some(v as u64))
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::BadRequest,
                    "`deadline_ms` must be a non-negative integer",
                )
            }),
    }
}

/// `technology` on the wire is the hex string `register_tech` returned
/// (`"0x…"`); decimal integers are accepted too.
fn parse_tech_ref(doc: &Value) -> Result<Option<u64>, WireError> {
    parse_fp_ref(doc, "technology")
}

/// A fingerprint reference field (`technology`, `calibration`): the hex
/// string the registration op returned (`"0x…"`), or a decimal integer.
fn parse_fp_ref(doc: &Value, key: &str) -> Result<Option<u64>, WireError> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(text)) => {
            let digits = text.strip_prefix("0x").unwrap_or(text);
            u64::from_str_radix(digits, 16).map(Some).map_err(|_| {
                WireError::new(
                    ErrorCode::BadRequest,
                    format!("`{key}` is not a fingerprint: `{text}`"),
                )
            })
        }
        Some(v) => v
            .as_f64()
            .filter(|v| v.is_finite() && *v >= 0.0 && v.fract() == 0.0)
            .map(|v| Some(v as u64))
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::BadRequest,
                    format!("`{key}` must be a fingerprint string or integer"),
                )
            }),
    }
}

fn parse_topology(v: Option<&Value>) -> Result<OpAmpTopology, WireError> {
    let v = v.ok_or_else(|| WireError::new(ErrorCode::BadRequest, "missing `topology`"))?;
    let mirror = match v.get("mirror").and_then(Value::as_str) {
        Some("simple") | None => MirrorTopology::Simple,
        Some("wilson") => MirrorTopology::Wilson,
        Some("cascode") => MirrorTopology::Cascode,
        Some(other) => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                format!("unknown mirror `{other}` (want simple|wilson|cascode)"),
            ))
        }
    };
    let buffer = v
        .get("buffer")
        .map(|b| {
            b.as_bool().ok_or_else(|| {
                WireError::new(ErrorCode::BadRequest, "`topology.buffer` must be a bool")
            })
        })
        .transpose()?
        .unwrap_or(false);
    Ok(OpAmpTopology::miller(mirror, buffer))
}

fn parse_spec(v: Option<&Value>) -> Result<OpAmpSpec, WireError> {
    let v = v.ok_or_else(|| WireError::new(ErrorCode::BadRequest, "missing `spec`"))?;
    let req = |key: &str| -> Result<f64, WireError> {
        v.get(key)
            .and_then(Value::as_f64)
            .filter(|x| x.is_finite())
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::BadRequest,
                    format!("`spec.{key}` must be a finite number"),
                )
            })
    };
    Ok(OpAmpSpec {
        gain: req("gain")?,
        ugf_hz: req("ugf_hz")?,
        area_max_m2: req("area_max_m2")?,
        ibias: req("ibias")?,
        zout_ohm: opt_finite(v, "zout_ohm")?,
        cl: req("cl")?,
    })
}

/// Renders the success envelope for `id`.
pub fn ok_response(id: u64, result: Value) -> String {
    obj([
        ("id", Value::Num(id as f64)),
        ("ok", Value::Bool(true)),
        ("result", result),
    ])
    .render()
}

/// Renders the error envelope for `id`.
pub fn err_response(id: u64, err: &WireError) -> String {
    obj([
        ("id", Value::Num(id as f64)),
        ("ok", Value::Bool(false)),
        (
            "error",
            obj([
                ("code", s(err.code.as_str())),
                ("status", Value::Num(f64::from(err.code.status()))),
                ("message", s(&err.message)),
                ("retryable", Value::Bool(err.code.retryable())),
            ]),
        ),
    ])
    .render()
}

/// Formats a technology fingerprint the way the protocol spells it.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// The `design` result payload. Every float renders in shortest-roundtrip
/// form, so a client parsing with a correctly-rounded `strtod` recovers
/// the estimator's exact bits.
pub fn design_result(amp: &OpAmp) -> Value {
    let p = &amp.perf;
    obj([
        ("itail", Value::Num(amp.itail)),
        ("i2", Value::Num(amp.i2)),
        ("ibuf", Value::Num(amp.ibuf)),
        ("cc", Value::Num(amp.cc)),
        ("rz", Value::Num(amp.rz)),
        (
            "perf",
            obj([
                ("dc_gain", opt(p.dc_gain)),
                ("ugf_hz", opt(p.ugf_hz)),
                ("bw_hz", opt(p.bw_hz)),
                ("power_w", Value::Num(p.power_w)),
                ("gate_area_m2", Value::Num(p.gate_area_m2)),
                ("zout_ohm", opt(p.zout_ohm)),
                ("cmrr_db", opt(p.cmrr_db)),
                ("slew_v_per_s", opt(p.slew_v_per_s)),
                ("ibias_a", opt(p.ibias_a)),
            ]),
        ),
    ])
}

/// The `estimate` result payload.
pub fn estimate_result(est: &NetlistEstimate) -> Value {
    let p = &est.perf;
    obj([
        ("phase_margin_deg", opt(est.phase_margin_deg)),
        (
            "poles",
            Value::Arr(
                est.poles
                    .iter()
                    .map(|c| obj([("re", Value::Num(c.re)), ("im", Value::Num(c.im))]))
                    .collect(),
            ),
        ),
        (
            "perf",
            obj([
                ("dc_gain", opt(p.dc_gain)),
                ("ugf_hz", opt(p.ugf_hz)),
                ("bw_hz", opt(p.bw_hz)),
                ("power_w", Value::Num(p.power_w)),
                ("gate_area_m2", Value::Num(p.gate_area_m2)),
                ("zout_ohm", opt(p.zout_ohm)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn parses_a_design_request() {
        let line = r#"{"op":"design","id":7,"topology":{"mirror":"wilson","buffer":true},
            "spec":{"gain":200,"ugf_hz":5e6,"area_max_m2":5e-9,"ibias":1e-5,"cl":1e-11},
            "deadline_ms":250}"#
            .replace('\n', " ");
        let (id, req) = parse_request(&line).unwrap();
        assert_eq!(id, 7);
        match req {
            WireRequest::Design {
                topology,
                spec,
                technology,
                calibration,
                deadline_ms,
            } => {
                assert_eq!(topology.current_source, MirrorTopology::Wilson);
                assert!(topology.buffer);
                assert_eq!(spec.gain, 200.0);
                assert_eq!(technology, None);
                assert_eq!(calibration, None);
                assert_eq!(deadline_ms, Some(250));
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn recovers_the_id_on_field_errors() {
        let (id, err) = parse_request(r#"{"op":"design","id":9}"#).unwrap_err();
        assert_eq!(id, 9);
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn tech_ref_round_trips_through_hex() {
        let fp = 0x0123_4567_89ab_cdefu64;
        let hex = fingerprint_hex(fp);
        let line =
            format!(r#"{{"op":"estimate","id":1,"deck":"x","output":"n1","technology":"{hex}"}}"#);
        let (_, req) = parse_request(&line).unwrap();
        match req {
            WireRequest::Estimate { technology, .. } => assert_eq!(technology, Some(fp)),
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn unknown_op_is_typed() {
        let (_, err) = parse_request(r#"{"op":"frobnicate","id":3}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn error_codes_have_stable_statuses() {
        assert_eq!(ErrorCode::Overloaded.status(), 429);
        assert_eq!(ErrorCode::Oversized.status(), 413);
        assert_eq!(ErrorCode::RegistryFull.status(), 507);
        assert!(!ErrorCode::RegistryFull.retryable());
        assert!(ErrorCode::Overloaded.retryable());
        assert!(!ErrorCode::BadRequest.retryable());
    }
}
