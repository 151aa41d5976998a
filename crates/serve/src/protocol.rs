//! Frame parsing and response rendering for the NDJSON wire protocol.

use riskroute_json::{parse_with_limits, Json, JsonError, ParseLimits};

/// A parsed request frame: the envelope fields the transport cares about
/// plus the full document for the [`crate::QueryHandler`] to interpret.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// The operation name (`ping`, `shutdown`, or a handler op).
    pub op: String,
    /// The whole request document.
    pub body: Json,
}

/// Why a frame was rejected before reaching the handler.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The frame exceeded the connection's byte cap.
    Oversized {
        /// Frame size in bytes.
        size: usize,
        /// The cap in force.
        limit: usize,
    },
    /// The frame was not a valid protocol document (bad JSON, over-deep
    /// nesting, non-object root, or a bad envelope field).
    Malformed(String),
    /// The document parsed but has no `op` field.
    MissingOp,
}

impl FrameError {
    /// The response `kind` string for this rejection.
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::Oversized { .. } => "oversized-frame",
            FrameError::Malformed(_) => "malformed-frame",
            FrameError::MissingOp => "bad-request",
        }
    }

    /// Human-readable detail for the response `error` field.
    pub fn message(&self) -> String {
        match self {
            FrameError::Oversized { size, limit } => {
                format!("frame of {size} bytes exceeds cap of {limit}")
            }
            FrameError::Malformed(msg) => msg.clone(),
            FrameError::MissingOp => "request has no 'op' field".to_string(),
        }
    }
}

/// The outcome of one handled request, rendered to a response line by
/// [`render_reply`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The query completed; `output` is the full report text.
    Ok {
        /// Report text (byte-identical to the one-shot CLI output).
        output: String,
    },
    /// The query's budget ran out at a stage boundary.
    Partial {
        /// The typed partial report (byte-identical to the one-shot CLI's
        /// budget-exhausted output).
        output: String,
        /// Which limit stopped the run (`StopReason` display string).
        stopped: String,
    },
    /// The query failed.
    Err {
        /// Stable kebab-case failure kind.
        kind: String,
        /// The exit code the equivalent CLI invocation would return.
        exit_code: i64,
        /// The rendered error chain.
        message: String,
    },
}

/// Parse one frame line into a [`Request`] under the wire limits.
///
/// # Errors
/// [`FrameError::Oversized`] when the line exceeds `limits.max_bytes`,
/// [`FrameError::Malformed`] for anything the parser or envelope rejects,
/// [`FrameError::MissingOp`] for an object without `op`.
pub fn parse_request(line: &str, limits: ParseLimits) -> Result<Request, FrameError> {
    let body = parse_with_limits(line, limits).map_err(|e| match e {
        JsonError::TooLarge { size, limit } => FrameError::Oversized { size, limit },
        other => FrameError::Malformed(other.to_string()),
    })?;
    if body.as_obj().is_err() {
        return Err(FrameError::Malformed(
            "request must be a JSON object".to_string(),
        ));
    }
    let op = match body.field("op") {
        Ok(v) => v
            .as_str()
            .map_err(|_| FrameError::Malformed("'op' must be a string".to_string()))?
            .to_string(),
        Err(_) => return Err(FrameError::MissingOp),
    };
    let id =
        match body.as_obj().ok().and_then(|m| m.get("id")) {
            None => None,
            Some(v) => Some(v.as_usize().map_err(|_| {
                FrameError::Malformed("'id' must be a non-negative integer".to_string())
            })? as u64),
        };
    Ok(Request { id, op, body })
}

fn with_id(mut pairs: Vec<(&'static str, Json)>, id: Option<u64>) -> String {
    if let Some(id) = id {
        pairs.push(("id", Json::Num(id as f64)));
    }
    Json::obj(pairs).to_string_compact()
}

/// Render a handled reply as one compact response line (no newline).
pub fn render_reply(id: Option<u64>, reply: &Reply) -> String {
    match reply {
        Reply::Ok { output } => with_id(
            vec![
                ("status", Json::Str("ok".to_string())),
                ("output", Json::Str(output.clone())),
            ],
            id,
        ),
        Reply::Partial { output, stopped } => with_id(
            vec![
                ("status", Json::Str("partial".to_string())),
                ("stopped", Json::Str(stopped.clone())),
                ("output", Json::Str(output.clone())),
            ],
            id,
        ),
        Reply::Err {
            kind,
            exit_code,
            message,
        } => with_id(
            vec![
                ("status", Json::Str("error".to_string())),
                ("kind", Json::Str(kind.clone())),
                ("exit_code", Json::Num(*exit_code as f64)),
                ("error", Json::Str(message.clone())),
            ],
            id,
        ),
    }
}

/// Render an admission refusal with a retry hint.
pub fn render_overloaded(id: Option<u64>, retry_after_ms: u64) -> String {
    with_id(
        vec![
            ("status", Json::Str("overloaded".to_string())),
            ("retry_after_ms", Json::Num(retry_after_ms as f64)),
        ],
        id,
    )
}

/// Render the shutdown acknowledgement.
pub fn render_draining(id: Option<u64>) -> String {
    with_id(vec![("status", Json::Str("draining".to_string()))], id)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn limits() -> ParseLimits {
        ParseLimits::strict(1 << 16)
    }

    #[test]
    fn parses_envelope_fields() {
        let req = parse_request(r#"{"id":7,"op":"route","src":"0"}"#, limits()).unwrap();
        assert_eq!(req.id, Some(7));
        assert_eq!(req.op, "route");
        assert_eq!(req.body.field("src").unwrap().as_str().unwrap(), "0");
        let req = parse_request(r#"{"op":"ping"}"#, limits()).unwrap();
        assert_eq!(req.id, None);
    }

    #[test]
    fn rejects_bad_envelopes_with_typed_kinds() {
        let cases: &[(&str, &str)] = &[
            ("{not json", "malformed-frame"),
            ("[1,2,3]", "malformed-frame"),
            (r#"{"id":"x","op":"ping"}"#, "malformed-frame"),
            (r#"{"op":3}"#, "malformed-frame"),
            (r#"{"id":1}"#, "bad-request"),
        ];
        for (line, kind) in cases {
            let err = parse_request(line, limits()).unwrap_err();
            assert_eq!(err.kind(), *kind, "{line}");
        }
        let big = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(1 << 16));
        assert_eq!(
            parse_request(&big, limits()).unwrap_err().kind(),
            "oversized-frame"
        );
    }

    #[test]
    fn response_lines_are_single_line_compact_json() {
        let reply = Reply::Partial {
            output: "line one\nline two".to_string(),
            stopped: "wall-clock deadline exceeded".to_string(),
        };
        let line = render_reply(Some(3), &reply);
        assert!(!line.contains('\n'), "{line}");
        let doc = riskroute_json::parse(&line).unwrap();
        assert_eq!(doc.field("status").unwrap().as_str().unwrap(), "partial");
        assert_eq!(doc.field("id").unwrap().as_usize().unwrap(), 3);
        assert_eq!(
            doc.field("output").unwrap().as_str().unwrap(),
            "line one\nline two"
        );
        let over = render_overloaded(None, 250);
        let doc = riskroute_json::parse(&over).unwrap();
        assert_eq!(
            doc.field("retry_after_ms").unwrap().as_usize().unwrap(),
            250
        );
    }
}
