//! Chrome trace-event JSON export.
//!
//! Writes the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>. JSON is emitted by
//! hand — the crate carries no serialization dependency.
//!
//! Spans become `ph:"X"` complete events; instants become `ph:"i"`.
//! Timestamps and durations are microseconds (floats, so nanosecond
//! resolution survives).
//!
//! Multi-process traces: [`to_chrome_json_lanes`] renders several
//! [`Trace`]s into one document, one `pid` lane per trace, each named by
//! a `process_name` metadata event. [`parse_chrome_json`] reads such
//! documents (including single-lane dumps from [`to_chrome_json`]) back
//! into per-process event lists so `obs-report` can stitch client and
//! provider dumps into one causal trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

use crate::collector::{ArgValue, EventKind, Trace, TraceEvent};
use crate::json::{self, JsonValue};

fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no NaN/Infinity; null keeps viewers happy.
        out.push_str("null");
    }
}

fn write_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) => write_json_f64(out, *x),
        ArgValue::Str(s) => json::write_str(out, s),
    }
}

fn write_event(out: &mut String, e: &TraceEvent, pid: u32) {
    out.push_str("{\"name\":");
    json::write_str(out, &e.name);
    out.push_str(",\"cat\":");
    json::write_str(out, &e.category);
    let ts_us = e.wall_ns as f64 / 1_000.0;
    match e.kind {
        EventKind::Span { dur_ns } => {
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{ts_us},\"dur\":{}",
                dur_ns as f64 / 1_000.0
            );
        }
        EventKind::Instant => {
            let _ = write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts_us}");
        }
    }
    let _ = write!(out, ",\"pid\":{pid},\"tid\":{}", e.thread);
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(out, k);
            out.push(':');
            write_arg_value(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

fn write_process_meta(out: &mut String, pid: u32, name: &str) {
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
    let _ = write!(out, "{pid}");
    out.push_str(",\"tid\":0,\"args\":{\"name\":");
    json::write_str(out, name);
    out.push_str("}}");
}

/// Renders `trace` as a Chrome trace-event JSON document.
#[must_use]
pub fn to_chrome_json(trace: &Trace) -> String {
    to_chrome_json_lanes(std::slice::from_ref(trace))
}

/// Renders several traces into one document, one `pid` lane per trace.
/// Each lane carries a `process_name` metadata event named after the
/// trace's [`Trace::process`].
#[must_use]
pub fn to_chrome_json_lanes(traces: &[Trace]) -> String {
    let total: usize = traces.iter().map(|t| t.events.len()).sum();
    let mut out = String::with_capacity(256 + total * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (i, trace) in traces.iter().enumerate() {
        let pid = u32::try_from(i).unwrap_or(u32::MAX).saturating_add(1);
        if !first {
            out.push(',');
        }
        first = false;
        let name = if trace.process.is_empty() {
            "vcad"
        } else {
            &trace.process
        };
        write_process_meta(&mut out, pid, name);
        for e in &trace.events {
            out.push(',');
            write_event(&mut out, e, pid);
        }
    }
    out.push(']');
    let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
    let _ = write!(
        out,
        ",\"otherData\":{{\"dropped_events\":{dropped},\"exporter\":\"vcad-obs\"}}}}"
    );
    out
}

/// One process lane parsed back out of a Chrome trace document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProcessLane {
    /// The `pid` the events were filed under.
    pub pid: u32,
    /// The lane's `process_name` metadata, or `pid:N` when absent.
    pub name: String,
    /// Span and instant events, sorted by start time.
    pub events: Vec<TraceEvent>,
}

fn parse_args(obj: &JsonValue) -> Vec<(std::borrow::Cow<'static, str>, ArgValue)> {
    let mut args = Vec::new();
    if let Some(map) = obj.get("args").and_then(JsonValue::as_object) {
        for (k, v) in map {
            let arg = match v {
                JsonValue::Number(_) => match v.as_u64() {
                    Some(n) => ArgValue::U64(n),
                    None => ArgValue::F64(v.as_f64().unwrap_or(f64::NAN)),
                },
                JsonValue::String(s) => ArgValue::Str(s.clone()),
                JsonValue::Bool(b) => ArgValue::U64(u64::from(*b)),
                _ => continue,
            };
            args.push((std::borrow::Cow::Owned(k.clone()), arg));
        }
    }
    args
}

/// An event's `pid` or `tid`: 0 when absent, an error when it is not a
/// `u32` (narrowing would file two processes' events under one lane).
fn lane_id(ev: &JsonValue, key: &str) -> Result<u32, String> {
    ev.get(key).map_or(Ok(0), |v| {
        v.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("event {key} {} is not a u32", json::render(v)))
    })
}

/// Parses a Chrome trace-event document produced by this exporter back
/// into per-process lanes. Unknown phase types are skipped; `process_name`
/// metadata names the lanes.
///
/// # Errors
///
/// Returns a message when the document is not valid JSON, lacks a
/// `traceEvents` array, or has an event whose `pid` or `tid` is not a
/// `u32`.
pub fn parse_chrome_json(input: &str) -> Result<Vec<ProcessLane>, String> {
    let doc = json::parse(input).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "document has no traceEvents array".to_string())?;
    let mut lanes: BTreeMap<u32, ProcessLane> = BTreeMap::new();
    for ev in events {
        let pid = lane_id(ev, "pid")?;
        let thread = lane_id(ev, "tid")?;
        let lane = lanes.entry(pid).or_insert_with(|| ProcessLane {
            pid,
            name: format!("pid:{pid}"),
            events: Vec::new(),
        });
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if ph == "M" {
            if name == "process_name" {
                if let Some(n) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(JsonValue::as_str)
                {
                    lane.name = n.to_string();
                }
            }
            continue;
        }
        let kind = match ph {
            "X" => EventKind::Span {
                dur_ns: (ev.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0) * 1_000.0)
                    .round()
                    .max(0.0) as u64,
            },
            "i" | "I" => EventKind::Instant,
            _ => continue,
        };
        let ts_us = ev.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let args = parse_args(ev);
        lane.events.push(TraceEvent {
            name: std::borrow::Cow::Owned(name.to_string()),
            category: std::borrow::Cow::Owned(
                ev.get("cat")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
            ),
            kind,
            wall_ns: (ts_us * 1_000.0).round().max(0.0) as u64,
            thread,
            args,
        });
    }
    let mut out: Vec<ProcessLane> = lanes.into_values().collect();
    for lane in &mut out {
        lane.events.sort_by_key(|e| e.wall_ns);
    }
    Ok(out)
}

/// Writes `trace` as Chrome trace JSON to `path`.
pub fn write_chrome_trace(trace: &Trace, path: &std::path::Path) -> io::Result<()> {
    std::fs::write(path, to_chrome_json(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// strings, valid escapes. Enough to catch exporter bugs without a
    /// JSON parser dependency.
    fn assert_structurally_valid_json(s: &str) {
        let mut depth: Vec<char> = Vec::new();
        let mut chars = s.chars().peekable();
        let mut in_string = false;
        while let Some(c) = chars.next() {
            if in_string {
                match c {
                    '\\' => {
                        let next = chars.next().expect("escape at end of input");
                        assert!(
                            matches!(next, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                            "bad escape \\{next}"
                        );
                        if next == 'u' {
                            for _ in 0..4 {
                                let h = chars.next().expect("short \\u escape");
                                assert!(h.is_ascii_hexdigit(), "bad hex digit {h}");
                            }
                        }
                    }
                    '"' => in_string = false,
                    c => assert!((c as u32) >= 0x20, "raw control char in string"),
                }
            } else {
                match c {
                    '"' => in_string = true,
                    '{' => depth.push('}'),
                    '[' => depth.push(']'),
                    '}' | ']' => assert_eq!(depth.pop(), Some(c), "mismatched {c}"),
                    _ => {}
                }
            }
        }
        assert!(!in_string, "unterminated string");
        assert!(depth.is_empty(), "unbalanced nesting");
    }

    #[test]
    fn exports_spans_and_instants() {
        let c = Collector::enabled();
        {
            let mut s = c.span("rmi", "call:power_toggle");
            s.arg("bytes", 42u64);
            s.arg("note", "quote \" and \\ backslash\nnewline");
        }
        c.event("scheduler", "token");
        let json = to_chrome_json(&c.trace());
        assert_structurally_valid_json(&json);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("call:power_toggle"));
        assert!(json.contains("\"bytes\":42"));
        assert!(json.contains("\\\"") && json.contains("\\\\") && json.contains("\\n"));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let c = Collector::enabled();
        let json = to_chrome_json(&c.trace());
        assert_structurally_valid_json(&json);
        // Even an empty trace names its process lane.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn lanes_round_trip_through_the_parser() {
        let a = Collector::enabled().with_process_name("client");
        {
            let mut s = a.traced_span("rmi", "client:AREA");
            s.arg("note", "caffè \"quoted\"");
        }
        let b = Collector::enabled().with_process_name("provider1");
        {
            let _s = b.traced_span("rmi", "dispatch:AREA");
        }
        b.event("ip", "charge:AREA");
        let json = to_chrome_json_lanes(&[a.trace(), b.trace()]);
        assert_structurally_valid_json(&json);
        let lanes = parse_chrome_json(&json).unwrap();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].name, "client");
        assert_eq!(lanes[1].name, "provider1");
        assert_eq!(lanes[0].events.len(), 1);
        assert_eq!(lanes[1].events.len(), 2);
        let client = &lanes[0].events[0];
        assert_eq!(client.name, "client:AREA");
        assert!(matches!(client.kind, EventKind::Span { .. }));
        assert!(client
            .args
            .iter()
            .any(|(k, v)| k == "note" && *v == ArgValue::Str("caffè \"quoted\"".into())));
        assert!(client
            .args
            .iter()
            .any(|(k, v)| k == "span" && matches!(v, ArgValue::U64(_))));
        assert!(matches!(lanes[1].events[1].kind, EventKind::Instant));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_chrome_json("not json").is_err());
        assert!(parse_chrome_json("{\"other\":1}").is_err());
    }

    #[test]
    fn parser_rejects_ids_that_are_not_u32() {
        let doc = |pid: &str, tid: &str| {
            format!(
                "{{\"traceEvents\":[{{\"name\":\"s\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\
                 \"pid\":{pid},\"tid\":{tid}}}]}}"
            )
        };
        assert_eq!(parse_chrome_json(&doc("7", "3")).unwrap()[0].pid, 7);
        // 2^32 + 1 narrowed with `as u32` would land on lane 1.
        for (pid, tid) in [
            ("4294967297", "1"),
            ("1", "4294967296"),
            ("-1", "1"),
            ("1.5", "1"),
        ] {
            assert!(
                parse_chrome_json(&doc(pid, tid)).is_err(),
                "pid {pid}, tid {tid}"
            );
        }
    }

    #[test]
    fn control_chars_are_escaped() {
        let c = Collector::enabled();
        c.event("t", "weird\u{1}name\ttab");
        let json = to_chrome_json(&c.trace());
        assert_structurally_valid_json(&json);
        assert!(json.contains("\\u0001"));
        assert!(json.contains("\\t"));
    }
}
