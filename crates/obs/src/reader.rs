//! Snapshot reader for JSONL traces written by [`crate::trace`].
//!
//! Used by the traced tests to assert that a trace round-trips:
//! every line must parse and carry the fields the schema promises.

use std::path::Path;

use crate::json::{self, Json};
use crate::vfs;

/// One parsed trace line (meta, span, or event).
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// `"meta"`, `"span"`, or `"event"`.
    pub kind: String,
    /// Span/event name, or the run name for meta lines.
    pub name: String,
    /// Event level (`"info"`/`"warn"`); empty for spans and meta.
    pub level: String,
    /// Span id (0 for events and meta, which have none).
    pub id: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Writer thread's trace-local id.
    pub thread: u64,
    /// Microseconds since trace start.
    pub t_us: u64,
    /// Span wall time; `None` for events and meta.
    pub dur_us: Option<u64>,
    /// Attached fields (an empty object when absent).
    pub fields: Json,
}

impl TraceRecord {
    /// Look up a field value by key.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.get(key)
    }
}

/// Parse one JSONL trace line into a [`TraceRecord`].
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let j = json::parse(line)?;
    let kind = j
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"type\"".to_string())?
        .to_string();
    let name_key = if kind == "meta" { "run" } else { "name" };
    let name = j
        .get(name_key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing {name_key:?}"))?
        .to_string();
    let t_us = j
        .get("t_us")
        .and_then(Json::as_i64)
        .ok_or_else(|| "missing \"t_us\"".to_string())? as u64;
    if kind == "span" && j.get("dur_us").and_then(Json::as_i64).is_none() {
        return Err("span line missing \"dur_us\"".to_string());
    }
    Ok(TraceRecord {
        kind,
        name,
        level: j.get("level").and_then(Json::as_str).unwrap_or_default().to_string(),
        id: j.get("id").and_then(Json::as_i64).unwrap_or(0) as u64,
        parent: j.get("parent").and_then(Json::as_i64).map(|p| p as u64),
        thread: j.get("thread").and_then(Json::as_i64).unwrap_or(0) as u64,
        t_us,
        dur_us: j.get("dur_us").and_then(Json::as_i64).map(|d| d as u64),
        fields: j.get("fields").cloned().unwrap_or(Json::Obj(Vec::new())),
    })
}

/// Read a whole trace file; fails on the first malformed line, reporting
/// its 1-based line number.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceRecord>, String> {
    let path = path.as_ref();
    let text = vfs::read_to_string(&*vfs::global(), path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse_line(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// A tolerant read of a possibly live (still-being-written) trace file.
#[derive(Clone, Debug, Default)]
pub struct LossyTrace {
    /// Every line that parsed cleanly, in file order.
    pub records: Vec<TraceRecord>,
    /// Lines that failed to parse (torn tails, interleaved writers) — skipped
    /// and counted instead of aborting the read.
    pub skipped: usize,
}

/// Read a trace file that may end mid-line or contain foreign lines (a live
/// writer's torn tail, an interleaved process). Unparseable lines are
/// skipped and counted, never fatal; only a missing/unreadable file errors.
/// Use [`read_trace`] when the file is known complete and must be strict.
pub fn read_trace_lossy(path: impl AsRef<Path>) -> Result<LossyTrace, String> {
    let path = path.as_ref();
    let text = vfs::read_to_string(&*vfs::global(), path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = LossyTrace::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(rec) => out.records.push(rec),
            Err(_) => out.skipped += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("tpgnn-obs-reader-{}-{name}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn parses_span_event_and_meta_lines() {
        let meta = parse_line(r#"{"type":"meta","run":"demo","t_us":0,"unix_ms":5}"#).unwrap();
        assert_eq!(meta.kind, "meta");
        assert_eq!(meta.name, "demo");

        let span = parse_line(
            r#"{"type":"span","name":"train.epoch","id":3,"parent":1,"thread":0,"t_us":10,"dur_us":7,"fields":{"loss":0.5}}"#,
        )
        .unwrap();
        assert_eq!(span.kind, "span");
        assert_eq!(span.id, 3);
        assert_eq!(span.parent, Some(1));
        assert_eq!(span.dur_us, Some(7));
        assert_eq!(span.field("loss").and_then(Json::as_f64), Some(0.5));

        let ev = parse_line(
            r#"{"type":"event","name":"guard.rollback","level":"warn","parent":null,"thread":1,"t_us":20,"fields":{}}"#,
        )
        .unwrap();
        assert_eq!(ev.kind, "event");
        assert_eq!(ev.level, "warn");
        assert_eq!(ev.parent, None);
        assert_eq!(ev.dur_us, None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"name":"x"}"#).is_err());
        assert!(parse_line(r#"{"type":"span","name":"x","t_us":1}"#).is_err());
    }

    #[test]
    fn lossy_read_skips_torn_tail() {
        let good = r#"{"type":"meta","run":"demo","t_us":0,"unix_ms":5}"#;
        let p = write_tmp("torn", &format!("{good}\n{good}\n{{\"type\":\"ev"));
        let t = read_trace_lossy(&p).unwrap();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.skipped, 1);
        // The strict reader must still refuse the same file.
        assert!(read_trace(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn lossy_read_of_empty_file() {
        let p = write_tmp("empty", "");
        let t = read_trace_lossy(&p).unwrap();
        assert!(t.records.is_empty());
        assert_eq!(t.skipped, 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn lossy_read_skips_interleaved_writer_lines() {
        let good = r#"{"type":"event","name":"x","level":"info","t_us":3,"fields":{}}"#;
        let foreign = "2026-08-08T00:00:00 some-other-logger INFO hello";
        let p = write_tmp("mixed", &format!("{good}\n{foreign}\n{good}\nnot json either\n"));
        let t = read_trace_lossy(&p).unwrap();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.skipped, 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn lossy_read_missing_file_errors() {
        assert!(read_trace_lossy("/nonexistent/tpgnn-no-such-trace.jsonl").is_err());
    }
}
