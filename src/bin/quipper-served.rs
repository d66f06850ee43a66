//! `quipper-served`: the multi-tenant circuit-execution server.
//!
//! Speaks newline-delimited JSON over TCP (see `quipper_serve::protocol`
//! for the op table). One process = one shared engine behind admission
//! control; clients submit catalog circuits by name:
//!
//! ```text
//! quipper-served --addr 127.0.0.1:7878
//! # elsewhere:
//! printf '{"op":"submit","circuit":"ghz5","shots":100}\n' | nc 127.0.0.1 7878
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use quipper_exec::Engine;
use quipper_serve::catalog::Catalog;
use quipper_serve::{Server, Service, ServiceConfig};

const USAGE: &str = "\
quipper-served: multi-tenant quantum circuit execution over NDJSON/TCP

USAGE: quipper-served [OPTIONS]

OPTIONS:
  --addr ADDR          bind address (default 127.0.0.1:0; port 0 = ephemeral)
  --workers N          service worker threads (default: cores, capped at 8)
  --queue-capacity N   admission queue bound (default 256)
  --slo-us MICROS      end-to-end latency SLO threshold, one for every
                       tenant; checks and burns land in the per-tenant
                       serve.slo.* counters (default: none)
  --trace              enable quipper-trace metrics, printed on exit
  --metrics-dump       implies --trace; on exit, dump the full metrics
                       registry as JSON Lines and Prometheus text
  -h, --help           this text";

struct Options {
    addr: String,
    workers: Option<usize>,
    queue_capacity: usize,
    slo_us: Option<u64>,
    trace: bool,
    metrics_dump: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        workers: None,
        queue_capacity: 256,
        slo_us: None,
        trace: false,
        metrics_dump: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--workers" => {
                opts.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--queue-capacity" => {
                opts.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?
            }
            "--slo-us" => {
                opts.slo_us = Some(
                    value("--slo-us")?
                        .parse()
                        .map_err(|e| format!("--slo-us: {e}"))?,
                )
            }
            "--trace" => opts.trace = true,
            "--metrics-dump" => opts.metrics_dump = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if opts.trace || opts.metrics_dump {
        quipper_trace::tracer().set_enabled(true);
    }

    let engine = Engine::new();

    let mut service_config = ServiceConfig {
        queue_capacity: opts.queue_capacity,
        slo: opts.slo_us.map(std::time::Duration::from_micros),
        ..ServiceConfig::default()
    };
    if let Some(workers) = opts.workers {
        service_config.workers = workers;
    }
    let service = Arc::new(Service::start(engine, service_config));
    let server = match Server::start(&opts.addr, Arc::clone(&service), Arc::new(Catalog::new())) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };

    // The integration harness scrapes this line for the ephemeral port.
    println!("listening on {}", server.local_addr());
    server.join();
    service.shutdown();

    println!("{}", service.stats());
    if opts.trace {
        print!("{}", quipper_trace::tracer().metrics().snapshot());
    }
    if opts.metrics_dump {
        let snapshot = quipper_trace::tracer().metrics().snapshot();
        println!("--- metrics (json lines) ---");
        print!("{}", quipper_trace::to_metrics_json_lines(&snapshot));
        println!("--- metrics (prometheus) ---");
        print!("{}", quipper_trace::to_prometheus_text(&snapshot));
    }
    ExitCode::SUCCESS
}
