//! Trace exporter: Chrome trace-event format.

use crate::json::JsonWriter;
use crate::{Event, EventKind, TraceLog};

/// Chrome trace-event JSON (the `{"traceEvents": [...]}` object form),
/// loadable in `chrome://tracing` and Perfetto.
///
/// Spans become `B`/`E` duration events and instants become `i` events; the
/// [`crate::Phase`] tag is the event category (`cat`), timestamps are
/// microseconds with fractional nanosecond precision, and each ring-buffer
/// lane becomes a named thread. One event per line.
pub fn to_chrome_trace(log: &TraceLog) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("traceEvents").begin_array();

    // Metadata: name the process and each thread lane.
    metadata(&mut w, "process_name", 0, "quipper");
    let mut tids: Vec<u32> = log.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        metadata(&mut w, "thread_name", tid, &format!("lane-{tid}"));
    }

    for e in &log.events {
        event(&mut w, e);
    }
    w.newline().end_array().end_object().newline();
    w.finish()
}

fn metadata(w: &mut JsonWriter, record: &str, tid: u32, name: &str) {
    w.newline().begin_object();
    w.key("name").string(record);
    w.key("ph").string("M");
    w.key("pid").int(1);
    w.key("tid").int(tid);
    w.key("args").begin_object().key("name").string(name);
    w.end_object().end_object();
}

fn event(w: &mut JsonWriter, e: &Event) {
    let ph = match e.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    };
    w.newline().begin_object();
    w.key("name").string(&e.name);
    w.key("cat").string(e.phase.tag());
    w.key("ph").string(ph);
    w.key("pid").int(1);
    w.key("tid").int(e.tid);
    w.key("ts").float(e.t_ns as f64 / 1_000.0, Some(3));
    if e.kind == EventKind::Instant {
        // Thread-scoped instant marker.
        w.key("s").string("t");
    }
    if let Some(detail) = &e.detail {
        w.key("args").begin_object().key("detail").string(detail);
        w.end_object();
    }
    w.end_object();
}
