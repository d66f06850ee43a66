//! The compile path's cost budget, counted rather than timed: heap
//! allocations per flat gate of `Plan::compile_with(.., OptLevel::Default)`
//! on two fixed OpenQASM programs shaped like the `compile_cold` traffic —
//! a ripple adder whose `maj`/`uma` gate definitions become boxes, and a
//! GHZ state checked by rounds of parity syndromes. Beside it, the run
//! path's: heap allocations of one `Engine::run_resolved` of a compiled
//! plan on each route.
//!
//! A counting global allocator counts only on the thread that sets its
//! flag, and the one `#[test]` runs its cases one after another, so no
//! other test's allocations land in a count. Counts do not depend on the
//! host, so a breach means the compile path does more work per gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use quipper_exec::{Engine, Job, Plan, PlanSource};
use quipper_opt::OptLevel;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A `width`-bit ripple adder (Cuccaro's MAJ/UMA ladder) run `additions`
/// times on fixed operands, then measured.
fn ripple_adder(width: usize, additions: usize) -> String {
    let mut q = String::from(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
         gate maj a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n\
         gate uma a,b,c { ccx a,b,c; cx c,a; cx a,b; }\n",
    );
    for (name, size) in [("ci", 1), ("a", width), ("b", width), ("co", 1)] {
        writeln!(
            q,
            "qreg {name}[{size}];\ncreg m{name}[{size}];\nreset {name};"
        )
        .unwrap();
    }
    for k in 0..width {
        if k % 3 != 1 {
            writeln!(q, "x a[{k}];").unwrap();
        }
        if k % 5 < 2 {
            writeln!(q, "x b[{k}];").unwrap();
        }
    }
    let carry_in = |i: usize| match i {
        0 => "ci[0]".to_string(),
        i => format!("a[{}]", i - 1),
    };
    for _ in 0..additions {
        for i in 0..width {
            writeln!(q, "maj {},b[{i}],a[{i}];", carry_in(i)).unwrap();
        }
        writeln!(q, "cx a[{}],co[0];", width - 1).unwrap();
        for i in (0..width).rev() {
            writeln!(q, "uma {},b[{i}],a[{i}];", carry_in(i)).unwrap();
        }
    }
    for name in ["ci", "a", "b", "co"] {
        writeln!(q, "measure {name} -> m{name};").unwrap();
    }
    q
}

/// GHZ on `width` data qubits, then `rounds` rounds of one bit flip and a
/// parity check of every neighbouring pair into an ancilla that is reset
/// just before and measured just after use.
fn ghz_syndrome(width: usize, rounds: usize) -> String {
    let checks = rounds * (width - 1);
    let mut q = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    writeln!(q, "qreg dat[{width}];\ncreg mdat[{width}];").unwrap();
    writeln!(q, "qreg anc[{checks}];\ncreg manc[{checks}];\nreset dat;").unwrap();
    writeln!(q, "h dat[0];").unwrap();
    for i in 1..width {
        writeln!(q, "cx dat[{}],dat[{i}];", i - 1).unwrap();
    }
    let mut k = 0;
    for round in 0..rounds {
        writeln!(q, "x dat[{}];", (7 * round + 3) % width).unwrap();
        for i in 0..width - 1 {
            writeln!(q, "reset anc[{k}];").unwrap();
            writeln!(q, "cx dat[{i}],anc[{k}];\ncx dat[{}],anc[{k}];", i + 1).unwrap();
            writeln!(q, "measure anc[{k}] -> manc[{k}];").unwrap();
            k += 1;
        }
    }
    writeln!(q, "measure dat -> mdat;").unwrap();
    q
}

/// A program no cheaper route than the state vector runs.
const T_PROGRAM: &str =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg m[3];\nreset q;\n\
    h q[0];\nt q[0];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> m;\n";

/// `f`'s result and the heap allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, ALLOCATIONS.load(Ordering::Relaxed))
}

/// Heap allocations per flat gate of one default-level plan compile.
fn allocations_per_flat_gate(source: &str) -> f64 {
    let bc = quipper_qasm::compile(source).expect("the program compiles");
    let (plan, allocations) = counted(|| Plan::compile_with(&bc, OptLevel::Default));
    let plan = plan.expect("the plan compiles");
    allocations as f64 / plan.profile.num_gates as f64
}

/// The route of `source`'s default-level plan, and the heap allocations of
/// one untraced `Engine::run_resolved` of it: 16 shots, seed 7.
fn run_allocations(source: &str) -> (&'static str, u64) {
    let bc = quipper_qasm::compile(source).expect("the program compiles");
    let plan = Plan::compile_with(&bc, OptLevel::Default).expect("the plan compiles");
    let (engine, job) = (Engine::new(), Job::new(&bc).shots(16).seed(7));
    let (result, allocations) = counted(|| engine.run_resolved(&job, &plan, PlanSource::Compiled));
    result.expect("the plan runs");
    (plan.route.name(), allocations)
}

#[test]
fn plan_compile_allocations_per_flat_gate_stay_within_budget() {
    // (program, budget): the counts this compile path makes, 14.33 and
    // 5.45, rounded up to a tenth. Before the optimizer skipped the passes
    // it can prove are no-ops it made 28.20 and 25.48 (EXPERIMENTS.md A20).
    let cases = [
        ("64-bit ripple adder x16", ripple_adder(64, 16), 14.4),
        ("64-qubit GHZ, 8 syndrome rounds", ghz_syndrome(64, 8), 5.5),
    ];
    let mut breaches = Vec::new();
    for (name, source, budget) in &cases {
        let per_gate = allocations_per_flat_gate(source);
        println!("{name}: {per_gate:.2} allocations per flat gate (budget {budget})");
        if per_gate > *budget {
            breaches.push(format!("{name}: {per_gate:.2} > {budget}"));
        }
    }
    // (program, route, budget): one run's allocations on this run path,
    // exactly, so that one more box or copy per job or per shot fails.
    let runs = [
        (ripple_adder(16, 2), "classical", 27),
        (ghz_syndrome(16, 2), "stabilizer", 211),
    ];
    for (source, route, budget) in runs.into_iter().chain([(T_PROGRAM.into(), "statevec", 31)]) {
        let (ran_on, allocations) = run_allocations(&source);
        println!("{route} run: {allocations} allocations (budget {budget})");
        assert_eq!(ran_on, route, "the program takes its route");
        if allocations > budget {
            breaches.push(format!("{route} run: {allocations} > {budget}"));
        }
    }
    assert!(
        breaches.is_empty(),
        "the compile or run path allocates more than its budget: {breaches:?}"
    );
}
