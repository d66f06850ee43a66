//! The machine and the process: the in-process server under test, the host
//! metadata recorded beside every result, peak memory, and a bandwidth probe.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use quipper_exec::Engine;
use quipper_serve::catalog::Catalog;
use quipper_serve::{QuotaPolicy, Server, Service, ServiceConfig};

/// The server under test: an in-process `quipper_serve::Server` on an
/// ephemeral loopback port, configured by defaults plus the three settings
/// the benchmark is allowed to touch.
pub struct Harness {
    pub service: Arc<Service>,
    pub server: Server,
    /// The service's worker threads.
    pub workers: usize,
}

/// The service configuration every run uses: the defaults, `workers` when
/// given, and an unlimited quota, because the default bucket refills 100 jobs
/// a second and would turn every loop into a measurement of the bucket.
pub fn service_config(workers: Option<usize>) -> ServiceConfig {
    let defaults = ServiceConfig::default();
    ServiceConfig {
        workers: workers.unwrap_or(defaults.workers),
        quota: QuotaPolicy::unlimited(),
        ..defaults
    }
}

impl Harness {
    pub fn start(workers: Option<usize>) -> Harness {
        let config = service_config(workers);
        let workers = config.workers;
        let service = Arc::new(Service::start(Engine::new(), config));
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&service),
            Arc::new(Catalog::new()),
        )
        .expect("bind an ephemeral loopback port");
        Harness {
            service,
            server,
            workers,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the listener and the workers, and waits for their threads.
    pub fn stop(self) {
        drop(self.server);
        self.service.shutdown();
    }
}

/// Cores this process may use.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|line| line.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The machine metadata recorded beside every result.
pub struct Machine {
    pub cpu_model: String,
    /// Processors online, as `nproc` would print.
    pub nproc: usize,
    pub available_parallelism: usize,
}

pub fn machine() -> Machine {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    Machine {
        cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        nproc: cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count()
            .max(1),
        available_parallelism: parallelism(),
    }
}

/// `VmHWM` of this process in MiB: the most memory it has held at once.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Working set of the bandwidth probe: one 20-qubit state vector.
pub const STREAM_BYTES: usize = 16 << 20;

/// Sustained read-and-write bandwidth in GB/s of a scale kernel
/// (`a[i] = s * a[i]`) over a `STREAM_BYTES` array of `f64`, best of several
/// passes: what one pass of a state-vector gate over 20 qubits can reach at
/// most on one core. Bytes counted are one read and one write per element.
pub fn stream_gbps() -> f64 {
    let mut data = vec![1.0f64; STREAM_BYTES / 8];
    let mut best = f64::MAX;
    for pass in 0..12 {
        let scale = 1.0 + 1e-9 * pass as f64;
        let start = Instant::now();
        for x in data.iter_mut() {
            *x *= scale;
        }
        std::hint::black_box(&mut data);
        best = best.min(start.elapsed().as_secs_f64());
    }
    2.0 * STREAM_BYTES as f64 / best / 1e9
}
