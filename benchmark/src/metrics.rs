//! The metric tables: the single source of `BENCHMARK.json` (a test fails if
//! the file and these tables disagree) and of every name the runs print.

use crate::workloads;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. A bound holds for every workload, so the
/// noisiest one sets it: the timing bounds sit at the contract's cap of 25 %
/// because the CPU-bound workloads spread up to 15 % between ten seeds on the
/// reference box (see `BASELINE.json` and the calibration in `README.md`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p90_ms", "ms", "lower", 0.25),
    e2e("slo_met_share", "share", "higher", 0.02),
    e2e("gates_out", "count", "lower", 0.05),
];

/// Measured by the end-to-end pass and printed by `all` and `repeat`, but
/// outside `BENCHMARK.json`: `failed_share` is 0 on a correct system, which the
/// driver's contract rules out for a metric (it travels as `failed` and
/// `attempted`), and `peak_rss_mib` cannot hold a bound (see `README.md`).
pub const DIAGNOSTIC: &[Metric] = &[
    layer("peak_rss_mib", "MiB", "lower"),
    layer("failed_share", "share", "lower"),
];

/// Single layers, from the traced pass; diagnostic, so unbounded. A metric
/// reads 0 on a workload whose ops never enter that layer.
pub const PER_LAYER: &[Metric] = &[
    layer("serve.decode_us", "us", "lower"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.submit_rtt_us", "us", "lower"),
    layer("serve.queue_wait_us", "us", "lower"),
    layer("serve.queue_wait_p99_us", "us", "lower"),
    layer("serve.polls_per_op", "count", "lower"),
    layer("serve.poll_gap_us", "us", "lower"),
    layer("serve.result_encode_us", "us", "lower"),
    layer("serve.response_bytes", "B", "lower"),
    layer("serve.overhead_us", "us", "lower"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.coalesced", "count", "higher"),
    layer("serve.pool_speedup", "ratio", "higher"),
    layer("serve.heavy_latency_p50_ms", "ms", "lower"),
    layer("serve.gen_late_p99_us", "us", "lower"),
    layer("qasm.compile_us", "us", "lower"),
    layer("qasm.bytes_per_s", "B/s", "higher"),
    layer("qasm.gates_lowered", "count", "lower"),
    layer("circuit.validate_us", "us", "lower"),
    layer("circuit.fingerprint_us", "us", "lower"),
    layer("circuit.flatten_us", "us", "lower"),
    layer("circuit.flat_gates", "count", "lower"),
    layer("circuit.count_us", "us", "lower"),
    layer("circuit.resources_us", "us", "lower"),
    layer("circuit.export_us", "us", "lower"),
    layer("lint.lint_us", "us", "lower"),
    layer("lint.diagnostics", "count", "lower"),
    layer("opt.optimize_us", "us", "lower"),
    layer("opt.gates_in", "count", "lower"),
    layer("opt.gates_out", "count", "lower"),
    layer("opt.t_out", "count", "lower"),
    layer("opt.rewrites", "count", "higher"),
    layer("opt.removed_share", "share", "higher"),
    layer("opt.facts.removed", "count", "higher"),
    layer("opt.cancel.removed", "count", "higher"),
    layer("opt.merge.removed", "count", "higher"),
    layer("opt.phasepoly.removed", "count", "higher"),
    layer("opt.clifford_push.removed", "count", "higher"),
    layer("exec.plan_compile_us", "us", "lower"),
    layer("exec.plan_self_us", "us", "lower"),
    layer("exec.cache_hit_share", "share", "higher"),
    layer("exec.shot_us", "us", "lower"),
    layer("exec.run_overhead_us", "us", "lower"),
    layer("exec.workers_speedup", "ratio", "higher"),
    layer("sim.fuse_us", "us", "lower"),
    layer("sim.fused_away", "count", "higher"),
    layer("sim.windows_per_shot", "count", "lower"),
    layer("sim.sv.shot_ms", "ms", "lower"),
    layer("sim.sv.bytes_per_s", "B/s", "higher"),
    layer("sim.sv.roofline_share", "share", "higher"),
    layer("sim.stab.shot_us", "us", "lower"),
    layer("sim.classical.shot_us", "us", "lower"),
    layer("host.stream_gbps", "GB/s", "higher"),
    layer("core.build_us", "us", "lower"),
    layer("algorithms.tf_full_ms", "ms", "lower"),
    layer("algorithms.tf_oracle_ms", "ms", "lower"),
    layer("algorithms.bwt_ms", "ms", "lower"),
    layer("algorithms.hex_ms", "ms", "lower"),
    layer("arith.pow17_ms", "ms", "lower"),
    layer("arith.sin_ms", "ms", "lower"),
    layer("core.ir_gates_per_s", "1/s", "higher"),
    layer("core.subroutines", "count", "lower"),
    layer("core.decompose_us", "us", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.tracer_on_share", "share", "lower"),
    layer("trace.coverage", "share", "higher"),
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The values of one run, keyed by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values of `table` in table order; a metric that was never set or
    /// is not finite reads 0. A value in no table at all is a bug.
    pub fn in_table(&self, table: &[Metric]) -> Vec<(&'static str, &'static str, f64)> {
        for (name, _) in &self.0 {
            let known = [END_TO_END, PER_LAYER, DIAGNOSTIC]
                .iter()
                .any(|t| t.iter().any(|m| m.name == *name));
            assert!(known, "{name} is in no metric table");
        }
        table
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    self.get(m.name).filter(|v| v.is_finite()).unwrap_or(0.0),
                )
            })
            .collect()
    }
}
