//! Exact-byte goldens for the crate's renderings.
//!
//! The Chrome trace exporter over a hand-built log with fixed timestamps:
//! metadata records, one event per line, `ts` in microseconds with three
//! decimals, escaped names and details. Both metrics expositions over a
//! hand-filled registry, compared as sorted lines: which series exist and
//! how each is written is pinned, the order between series is not.

use quipper_trace::{
    names, to_chrome_trace, to_metrics_json_lines, to_prometheus_text, Event, EventKind, Metrics,
    Phase, TraceLog,
};

fn event(seq: u64, t_ns: u64, tid: u32, kind: EventKind, phase: Phase, name: &str) -> Event {
    Event {
        seq,
        t_ns,
        tid,
        depth: 0,
        kind,
        phase,
        name: name.to_string().into(),
        detail: None,
    }
}

#[test]
fn chrome_trace_matches_golden_bytes() {
    let mut log = TraceLog {
        events: vec![
            event(0, 0, 0, EventKind::Begin, Phase::Generate, "build \"ghz\""),
            event(1, 1_500, 0, EventKind::Begin, Phase::Compile, "flatten"),
            event(2, 2_000_001, 3, EventKind::Instant, Phase::Execute, "route"),
            event(3, 2_345_678, 0, EventKind::End, Phase::Compile, "flatten"),
            event(
                4,
                9_000_000_000,
                0,
                EventKind::End,
                Phase::Generate,
                "build \"ghz\"",
            ),
        ],
        dropped: 0,
    };
    log.events[2].detail = Some("statevec: \"why\"\n\\tab\t\u{1}".into());

    assert_eq!(
        to_chrome_trace(&log),
        concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"quipper\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"lane-0\"}},\n",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"lane-3\"}},\n",
            "{\"name\":\"build \\\"ghz\\\"\",\"cat\":\"Generate\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0.000},\n",
            "{\"name\":\"flatten\",\"cat\":\"Compile\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.500},\n",
            "{\"name\":\"route\",\"cat\":\"Execute\",\"ph\":\"i\",\"pid\":1,\"tid\":3,\"ts\":2000.001,\"s\":\"t\",",
            "\"args\":{\"detail\":\"statevec: \\\"why\\\"\\n\\\\tab\\t\\u0001\"}},\n",
            "{\"name\":\"flatten\",\"cat\":\"Compile\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2345.678},\n",
            "{\"name\":\"build \\\"ghz\\\"\",\"cat\":\"Generate\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":9000000.000}\n",
            "]}\n",
        )
    );

    // An empty log is still a loadable document.
    assert_eq!(
        to_chrome_trace(&TraceLog::default()),
        "{\"traceEvents\":[\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"quipper\"}}\n]}\n"
    );
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

#[test]
fn metrics_expositions_match_golden_lines() {
    let m = Metrics::new();
    m.add(names::SERVE_ADMIT, 3);
    m.add_labeled(names::SLO_MISS, &[("tenant", "al\"ice")], 2);
    m.record_max(names::SERVE_QUEUE_DEPTH, 5);
    for v in [0, 3, 900] {
        m.observe(names::SHOT_LATENCY_US, v);
    }
    let labels = [("tenant", "al\"ice"), ("state", "completed")];
    m.observe_labeled(names::SERVE_JOB_LATENCY_US, &labels, 70);
    let snap = m.snapshot();

    let json = r#"
{"kind":"counter","name":"serve.admit","value":3}
{"kind":"counter","name":"serve.slo.miss","labels":{"tenant":"al\"ice"},"value":2}
{"kind":"histogram","name":"exec.shot_latency_us","count":3,"sum":903,"mean":301.000,"p50":4,"p90":1024,"p99":1024,"p999":1024,"buckets":[[0,1],[4,1],[1024,1]]}
{"kind":"histogram","name":"serve.job_latency_us","labels":{"state":"completed","tenant":"al\"ice"},"count":1,"sum":70,"mean":70.000,"p50":128,"p90":128,"p99":128,"p999":128,"buckets":[[128,1]]}
{"kind":"max","name":"serve.queue_depth","value":5}"#;
    assert_eq!(
        sorted_lines(&to_metrics_json_lines(&snap)),
        sorted_lines(json.trim_start())
    );

    let prometheus = r#"
# TYPE exec_shot_latency_us histogram
# TYPE serve_admit counter
# TYPE serve_job_latency_us histogram
# TYPE serve_queue_depth gauge
# TYPE serve_slo_miss counter
exec_shot_latency_us_bucket{le="+Inf"} 3
exec_shot_latency_us_bucket{le="0"} 1
exec_shot_latency_us_bucket{le="1024"} 3
exec_shot_latency_us_bucket{le="4"} 2
exec_shot_latency_us_count 3
exec_shot_latency_us_sum 903
exec_shot_latency_us{quantile="0.5"} 4
exec_shot_latency_us{quantile="0.9"} 1024
exec_shot_latency_us{quantile="0.99"} 1024
exec_shot_latency_us{quantile="0.999"} 1024
serve_admit 3
serve_job_latency_us_bucket{state="completed",tenant="al\"ice",le="+Inf"} 1
serve_job_latency_us_bucket{state="completed",tenant="al\"ice",le="128"} 1
serve_job_latency_us_count{state="completed",tenant="al\"ice"} 1
serve_job_latency_us_sum{state="completed",tenant="al\"ice"} 70
serve_job_latency_us{state="completed",tenant="al\"ice",quantile="0.5"} 128
serve_job_latency_us{state="completed",tenant="al\"ice",quantile="0.9"} 128
serve_job_latency_us{state="completed",tenant="al\"ice",quantile="0.99"} 128
serve_job_latency_us{state="completed",tenant="al\"ice",quantile="0.999"} 128
serve_queue_depth 5
serve_slo_miss{tenant="al\"ice"} 2"#;
    assert_eq!(
        sorted_lines(&to_prometheus_text(&snap)),
        sorted_lines(prometheus.trim_start())
    );
}
