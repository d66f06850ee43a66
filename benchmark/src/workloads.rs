//! The five workloads: their frozen constants, why each exists, and the
//! seeded inputs of the four that go through the socket.
//!
//! Every size, count and rate here is a constant, sized on the seed commit on
//! the two-core reference box. A run lasts `--seconds`; a faster system does
//! more ops in that time, it is not given a different workload.

use std::time::Duration;

use crate::client::{marginals_of, submit_line};
use crate::programs::{self, Expect, Program};
use crate::refsim;
use crate::rng::{Rng, Zipf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sv20Shots,
    ServeSmall,
    CompileCold,
    OpenMix,
    GenerateCount,
}

pub const ALL: [Workload; 5] = [
    Workload::Sv20Shots,
    Workload::ServeSmall,
    Workload::CompileCold,
    Workload::OpenMix,
    Workload::GenerateCount,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sv20Shots => "sv20_shots",
            Workload::ServeSmall => "serve_small",
            Workload::CompileCold => "compile_cold",
            Workload::OpenMix => "open_mix",
            Workload::GenerateCount => "generate_count",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-line rationale, repeated in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sv20Shots => "closed loop, 1 connection, distinct 20-qubit QFT adders x 8 shots: the 16 MiB state vector and the per-shot re-simulation are the op; parse, optimizer and serving are noise",
            Workload::ServeSmall => "closed loop, 2 connections, 3-8 qubit programs drawn Zipf(1) from 64 x 64 shots: simulation is microseconds, so wire, admission, queue, plan-cache hits and encoding are the op",
            Workload::CompileCold => "closed loop, 1 connection, every op a never-seen 40-120 KiB program (ripple adders, GHZ syndrome rounds): the plan cache always misses, so parse, optimizer, lint and flatten are the op",
            Workload::OpenMix => "open loop, 2 connections: small programs on a fixed schedule beside a 16-qubit adder every 250 ms, timed from the due time: only an arrival schedule builds a queue between tenants",
            Workload::GenerateCount => "in process, 1 thread, no server: the paper's circuit families built, validated and counted hierarchically: the generation path, which no request-path change may move",
        }
    }

    /// The latency limit behind `slo_met_share`: about five times the seed's
    /// median op latency on the reference box, frozen.
    pub fn latency_limit(self) -> Duration {
        Duration::from_millis(match self {
            Workload::Sv20Shots => 7_000,
            Workload::ServeSmall => 440,
            Workload::CompileCold => 1_000,
            Workload::OpenMix => 440,
            Workload::GenerateCount => 2_000,
        })
    }
}

pub const SV_QUBITS: usize = 20;
pub const SV_PROGRAMS: usize = 8;
pub const SV_SHOTS: u64 = 8;

pub const SMALL_PROGRAMS: usize = 64;
pub const SMALL_SHOTS: u64 = 64;
pub const SMALL_CONNECTIONS: usize = 2;
/// Ops per connection between two looks at the clock.
pub const SMALL_ROUND: usize = 8;

/// Programs in a block: nine adders and seven GHZ programs, the same sizes
/// and widths in every block and on every seed, in a seeded order. An odd
/// split keeps the median op inside one family.
pub const COLD_BLOCK: usize = 16;
pub const COLD_BLOCK_ADDERS: usize = 9;
/// Programs generated per run; a run that uses them all ends early.
pub const COLD_POOL: usize = 16 * COLD_BLOCK;
pub const COLD_MIN_BYTES: usize = 40 << 10;
pub const COLD_MAX_BYTES: usize = 120 << 10;
pub const COLD_MIN_WIDTH: usize = 64;
pub const COLD_MAX_WIDTH: usize = 256;
pub const COLD_ADDER_SHOTS: u64 = 1;
pub const COLD_GHZ_SHOTS: u64 = 2;

/// The small tenant's schedule: one op every `MIX_SMALL_PERIOD`, about half
/// of what one connection carried in `serve_small` on the seed.
pub const MIX_SMALL_PERIOD: Duration = Duration::from_millis(180);
pub const MIX_HEAVY_PERIOD: Duration = Duration::from_millis(250);
pub const MIX_HEAVY_QUBITS: usize = 16;
pub const MIX_HEAVY_PROGRAMS: usize = 4;
pub const MIX_HEAVY_SHOTS: u64 = 16;

/// One op as the client sends it.
#[derive(Clone)]
pub struct OpSpec {
    /// Index into [`Inputs::programs`].
    pub program: usize,
    pub shots: u64,
    /// The request line, newline included.
    pub line: String,
}

/// A program with what the client needs to check its answers.
pub struct Known {
    pub program: Program,
    /// The reference simulator's outcome probabilities and per-qubit
    /// marginals, for programs whose answer is a distribution.
    pub reference: Option<(Vec<f64>, Vec<f64>)>,
}

impl Known {
    fn new(program: Program) -> Known {
        let reference = (program.expect == Expect::Distribution).then(|| {
            let distribution = refsim::distribution(program.qubits, &program.reference);
            let marginals = marginals_of(&distribution);
            (distribution, marginals)
        });
        Known { program, reference }
    }
}

/// The op sequence of one connection or tenant.
pub enum Stream {
    /// These lines in order, again from the start when `cycle`.
    Fixed {
        ops: Vec<OpSpec>,
        next: usize,
        cycle: bool,
    },
    /// Zipf(1) draws over programs `0..templates.len()`, a fresh shot seed per
    /// op spliced into the program's request-line template.
    Zipf {
        zipf: Zipf,
        rng: Rng,
        templates: Vec<String>,
        shots: u64,
    },
}

impl Stream {
    pub fn next_op(&mut self) -> Option<OpSpec> {
        match self {
            Stream::Fixed { ops, next, cycle } => {
                if *next == ops.len() && *cycle {
                    *next = 0;
                }
                let op = ops.get(*next)?;
                *next += 1;
                Some(op.clone())
            }
            Stream::Zipf {
                zipf,
                rng,
                templates,
                shots,
            } => {
                let program = zipf.draw(rng);
                let seed = rng.next_u64() >> 12;
                Some(OpSpec {
                    program,
                    shots: *shots,
                    line: format!("{}{seed}}}\n", templates[program]),
                })
            }
        }
    }
}

/// Everything a socket workload sends, made from the seed alone.
pub struct Inputs {
    pub programs: Vec<Known>,
    /// One stream per connection (closed loop) or tenant (open loop).
    pub streams: Vec<Stream>,
    /// Closed loop: ops per round. A run is whole rounds, so that its mix of
    /// ops does not depend on how many it gets through.
    pub round: usize,
    /// One op per program family, run once before measuring.
    pub warmups: Vec<OpSpec>,
    /// The programs whose optimized gate counts add up to `gates_out`.
    pub gates_set: Vec<usize>,
}

/// A request line for `program` up to the shot seed: `template + seed + "}\n"`.
fn template(program: &Program, tenant: &str, shots: u64) -> String {
    let line = submit_line(&program.source, tenant, shots, 0);
    line.strip_suffix("0}\n").expect("seed is last").to_string()
}

/// One op per program of `programs[from..]`, each with its own shot seed.
fn fixed(
    programs: &[Known],
    from: usize,
    tenant: &str,
    shots: impl Fn(&Program) -> u64,
    rng: &mut Rng,
) -> Vec<OpSpec> {
    (from..programs.len())
        .map(|i| {
            let program = &programs[i].program;
            let shots = shots(program);
            OpSpec {
                program: i,
                shots,
                line: submit_line(&program.source, tenant, shots, rng.next_u64() >> 12),
            }
        })
        .collect()
}

/// The small tenant's stream `stream` for `seed`: Zipf(1) over `programs`,
/// which are the 64 small programs first.
fn small_stream(programs: &[Known], seed: u64, stream: u64) -> Stream {
    Stream::Zipf {
        zipf: Zipf::new(SMALL_PROGRAMS),
        rng: Rng::new(seed, 100 + stream),
        templates: programs[..SMALL_PROGRAMS]
            .iter()
            .map(|known| template(&known.program, "small", SMALL_SHOTS))
            .collect(),
        shots: SMALL_SHOTS,
    }
}

/// The first program of each family, at one shot.
fn warmups(programs: &[Known], tenant: &str) -> Vec<OpSpec> {
    let mut seen: Vec<&str> = Vec::new();
    let mut ops = Vec::new();
    for (i, known) in programs.iter().enumerate() {
        if !seen.contains(&known.program.family) {
            seen.push(known.program.family);
            ops.push(OpSpec {
                program: i,
                shots: 1,
                line: submit_line(&known.program.source, tenant, 1, 1),
            });
        }
    }
    ops
}

/// The 64 small programs. Rank decides the family and the size, so the cost
/// of a Zipf rank does not depend on the seed; the seed decides the angles,
/// the entangling order and the payload.
pub fn small_programs(rng: &mut Rng) -> Vec<Known> {
    (0..SMALL_PROGRAMS)
        .map(|rank| {
            let step = rank / 4;
            Known::new(match rank % 4 {
                0 => programs::ghz(4 + step % 5, rng),
                1 => programs::product(4 + step % 5, rng),
                2 => programs::grover3(step % 8, 1 + step / 8),
                _ => programs::teleport(rng),
            })
        })
        .collect()
}

/// Point `k` of `count` evenly spaced points inside `[lo, hi]`.
fn grid(lo: usize, hi: usize, k: usize, count: usize) -> usize {
    lo + (hi - lo) * (2 * k + 1) / (2 * count)
}

/// The cold pool, block by block. Within a block, program `k` of a family of
/// `count` gets size point `k` and width point `(3k + block) mod count`: every
/// block covers both ranges evenly, the pairing of size and width rotates from
/// block to block, and neither depends on the seed. The seed decides the order
/// within a block, the operands and the error positions.
pub fn cold_programs(count: usize, rng: &mut Rng) -> Vec<Known> {
    let mut programs = Vec::with_capacity(count);
    while programs.len() < count {
        let block = programs.len() / COLD_BLOCK;
        let mut slots: Vec<usize> = (0..COLD_BLOCK).collect();
        rng.shuffle(&mut slots);
        for slot in slots.into_iter().take(count - programs.len()) {
            let (adder, k, family) = if slot < COLD_BLOCK_ADDERS {
                (true, slot, COLD_BLOCK_ADDERS)
            } else {
                (
                    false,
                    slot - COLD_BLOCK_ADDERS,
                    COLD_BLOCK - COLD_BLOCK_ADDERS,
                )
            };
            let bytes = grid(COLD_MIN_BYTES, COLD_MAX_BYTES, k, family);
            let w = grid(
                COLD_MIN_WIDTH,
                COLD_MAX_WIDTH,
                (3 * k + block) % family,
                family,
            );
            programs.push(Known::new(if adder {
                let per_addition = 2 * w * (15 + 3 * w.to_string().len());
                programs::ripple_adder(w, (bytes / per_addition).max(1), rng)
            } else {
                programs::ghz_syndrome(w, (bytes / ((w - 1) * 92)).max(1), rng)
            }));
        }
    }
    programs
}

fn cold_shots(program: &Program) -> u64 {
    match program.family {
        "ripple_adder" => COLD_ADDER_SHOTS,
        _ => COLD_GHZ_SHOTS,
    }
}

/// The inputs of a socket workload for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, workload as u64);
    let cycling = |ops| Stream::Fixed {
        ops,
        next: 0,
        cycle: true,
    };
    match workload {
        Workload::Sv20Shots => {
            let programs: Vec<Known> = (0..SV_PROGRAMS)
                .map(|_| Known::new(programs::qft_adder(SV_QUBITS, &mut rng)))
                .collect();
            Inputs {
                round: 1,
                warmups: warmups(&programs, "sv"),
                gates_set: (0..programs.len()).collect(),
                streams: vec![cycling(fixed(&programs, 0, "sv", |_| SV_SHOTS, &mut rng))],
                programs,
            }
        }
        Workload::ServeSmall => {
            let programs = small_programs(&mut rng);
            Inputs {
                round: SMALL_ROUND,
                warmups: warmups(&programs, "small"),
                gates_set: (0..programs.len()).collect(),
                streams: (0..SMALL_CONNECTIONS as u64)
                    .map(|connection| small_stream(&programs, seed, connection))
                    .collect(),
                programs,
            }
        }
        Workload::CompileCold => {
            let mut programs = cold_programs(COLD_POOL, &mut rng);
            let ops = fixed(&programs, 0, "cold", cold_shots, &mut rng);
            // Warm-ups must not spend pool programs: one more of each family.
            programs.push(Known::new(programs::ripple_adder(
                COLD_MIN_WIDTH,
                4,
                &mut rng,
            )));
            programs.push(Known::new(programs::ghz_syndrome(
                COLD_MIN_WIDTH,
                4,
                &mut rng,
            )));
            Inputs {
                round: COLD_BLOCK,
                warmups: fixed(&programs, COLD_POOL, "cold", |_| 1, &mut rng),
                gates_set: (0..COLD_BLOCK).collect(),
                streams: vec![Stream::Fixed {
                    ops,
                    next: 0,
                    cycle: false,
                }],
                programs,
            }
        }
        Workload::OpenMix => {
            let mut programs = small_programs(&mut rng);
            for _ in 0..MIX_HEAVY_PROGRAMS {
                programs.push(Known::new(programs::qft_adder(MIX_HEAVY_QUBITS, &mut rng)));
            }
            let heavy = fixed(
                &programs,
                SMALL_PROGRAMS,
                "heavy",
                |_| MIX_HEAVY_SHOTS,
                &mut rng,
            );
            Inputs {
                round: 1,
                warmups: warmups(&programs, "small"),
                gates_set: (0..programs.len()).collect(),
                streams: vec![small_stream(&programs, seed, 0), cycling(heavy)],
                programs,
            }
        }
        Workload::GenerateCount => panic!("generate_count sends nothing"),
    }
}
