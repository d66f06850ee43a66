//! Metrics exposition: render a [`MetricsSnapshot`] as JSON Lines or as a
//! Prometheus-style text format.
//!
//! Both encoders are deterministic: each walks the snapshot's three maps
//! once, so series come out in `BTreeMap` order of `(name, labels)` with a
//! family's unlabeled series first. The JSON Lines go through the crate's
//! [`JsonWriter`] and read back through its parser. The formats carry the
//! full registry: counters, max-gauges (as Prometheus gauges), and
//! power-of-two-bucket histograms with p50/p90/p99/p999 quantile estimates,
//! including labeled series (`name{tenant="a",state="completed"}`).

use crate::json::{escape_into, JsonWriter};
use crate::metrics::{HistogramSnapshot, LabelSet, MetricsSnapshot};
use std::fmt::Write as _;

/// Sanitize a dotted metric name into the Prometheus identifier charset
/// (`[a-zA-Z_][a-zA-Z0-9_]*`): dots and any other illegal characters
/// become underscores.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Opens one series' line: `{"kind":…,"name":…` and, for a labeled series,
/// `"labels":{…}`. The caller adds the values and closes the object.
fn begin_series(w: &mut JsonWriter, kind: &str, name: &str, labels: &LabelSet) {
    w.begin_object().key("kind").string(kind);
    w.key("name").string(name);
    if !labels.is_empty() {
        w.key("labels").begin_object();
        for (k, v) in labels {
            w.key(k).string(v);
        }
        w.end_object();
    }
}

/// Encode a snapshot as JSON Lines: one object per series, with `kind` of
/// `counter` / `max` / `histogram`. Histogram objects carry `count`, `sum`,
/// `mean`, quantile estimates, and the raw `[upper_bound, count]` bucket
/// pairs.
pub fn to_metrics_json_lines(snap: &MetricsSnapshot) -> String {
    let mut w = JsonWriter::new();
    for ((name, labels), v) in &snap.counters {
        begin_series(&mut w, "counter", name, labels);
        w.key("value").int(*v).end_object().newline();
    }
    for (name, v) in &snap.maxes {
        begin_series(&mut w, "max", name, &LabelSet::new());
        w.key("value").int(*v).end_object().newline();
    }
    for ((name, labels), h) in &snap.histograms {
        begin_series(&mut w, "histogram", name, labels);
        w.key("count").int(h.count);
        w.key("sum").int(h.sum);
        w.key("mean").float(h.mean(), Some(3));
        w.key("p50").int(h.p50());
        w.key("p90").int(h.p90());
        w.key("p99").int(h.p99());
        w.key("p999").int(h.p999());
        w.key("buckets").begin_array();
        for (le, n) in &h.buckets {
            w.begin_array().int(*le).int(*n).end_array();
        }
        w.end_array().end_object().newline();
    }
    w.finish()
}

/// Render a label set (plus an optional extra pair, e.g. `le` or
/// `quantile`) as a Prometheus label block: `{k="v",le="1024"}`. Empty
/// input renders as the empty string.
fn prom_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&sanitize_metric_name(k));
        out.push_str("=\"");
        escape_into(&mut out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

fn prom_histogram(out: &mut String, name: &str, labels: &LabelSet, h: &HistogramSnapshot) {
    // Cumulative `le` buckets, Prometheus histogram convention.
    let mut cum = 0u64;
    for (le, n) in &h.buckets {
        cum += n;
        let lbl = prom_labels(labels, Some(("le", &le.to_string())));
        let _ = writeln!(out, "{name}_bucket{lbl} {cum}");
    }
    let inf = prom_labels(labels, Some(("le", "+Inf")));
    let _ = writeln!(out, "{name}_bucket{inf} {}", h.count);
    let plain = prom_labels(labels, None);
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum);
    let _ = writeln!(out, "{name}_count{plain} {}", h.count);
    for (q, v) in [
        ("0.5", h.p50()),
        ("0.9", h.p90()),
        ("0.99", h.p99()),
        ("0.999", h.p999()),
    ] {
        let lbl = prom_labels(labels, Some(("quantile", q)));
        let _ = writeln!(out, "{name}{lbl} {v}");
    }
}

/// Sanitizes `name` and, when it differs from the previous series' family,
/// opens the new family with its `# TYPE` line (a family's series are
/// adjacent in the snapshot's key order).
fn family(out: &mut String, last: &mut String, name: &str, kind: &str) -> String {
    let name = sanitize_metric_name(name);
    if name != *last {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        last.clone_from(&name);
    }
    name
}

/// Encode a snapshot as Prometheus-style exposition text. Counters and
/// max-gauges become `counter` / `gauge` families; histograms emit the
/// standard cumulative `_bucket{le=...}` / `_sum` / `_count` series plus
/// summary-style `{quantile="..."}` estimate samples. Dotted names are
/// sanitized (`serve.slo.miss` → `serve_slo_miss`).
pub fn to_prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for ((name, labels), v) in &snap.counters {
        let name = family(&mut out, &mut last, name, "counter");
        let _ = writeln!(out, "{name}{} {v}", prom_labels(labels, None));
    }
    for (name, v) in &snap.maxes {
        let name = family(&mut out, &mut last, name, "gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for ((name, labels), h) in &snap.histograms {
        let name = family(&mut out, &mut last, name, "histogram");
        prom_histogram(&mut out, &name, labels, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{names, Metrics};

    #[test]
    fn every_canonical_name_appears_in_both_formats() {
        // The metric-name lint: register every `names::*` constant, encode,
        // and require each (sanitized) name in both outputs. Guards against
        // adding an instrument the exposition plane silently drops.
        let m = Metrics::new();
        for name in names::ALL {
            m.add(name, 1);
        }
        let snap = m.snapshot();
        let json = to_metrics_json_lines(&snap);
        let prom = to_prometheus_text(&snap);
        for name in names::ALL {
            assert!(
                json.contains(&format!("\"name\":\"{name}\"")),
                "{name} missing from JSON Lines exposition"
            );
            let sanitized = sanitize_metric_name(name);
            assert!(
                prom.contains(&format!("\n{sanitized} 1\n"))
                    || prom.starts_with(&format!("{sanitized} 1\n")),
                "{sanitized} missing from Prometheus exposition"
            );
        }
    }

    #[test]
    fn sanitize_rewrites_illegal_characters() {
        assert_eq!(sanitize_metric_name("serve.slo.miss"), "serve_slo_miss");
        assert_eq!(sanitize_metric_name("a-b c1"), "a_b_c1");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
    }
}
