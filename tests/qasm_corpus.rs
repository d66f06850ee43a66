//! Corpus-driven acceptance tests for OpenQASM ingestion.
//!
//! Every fixture in `tests/qasm_corpus/` declares its own expectation in
//! its first line:
//!
//! ```text
//! // expect: ok                 — compiles, zero diagnostics
//! // expect: ok,QP004           — compiles; distinct codes exactly {QP004}
//! // expect: QP103              — rejected; distinct codes exactly {QP103}
//! // expect: QP001,QP003        — rejected; distinct codes exactly that set
//! ```
//!
//! Exact-set matching keeps the `QP###` codes honest as a stable API:
//! a change that shifts which code fires — or adds cascade noise — fails
//! here, not in a client's error handler. Beyond the code sets, every
//! fixture's rendered diagnostics (line:col, severity, code and message,
//! in order) must equal `tests/qasm_corpus/diagnostics.golden`, so a moved
//! span or a reworded message fails too. Accepted fixtures additionally
//! go through IR validation and the full `Plan` pipeline, proving the
//! corpus exercises circuits the execution stack genuinely accepts.
//!
//! To re-bless the diagnostics golden after an *intentional* change:
//!
//! ```text
//! QASM_BLESS=1 cargo test --test qasm_corpus
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/qasm_corpus")
}

struct Expectation {
    accept: bool,
    codes: BTreeSet<String>,
}

fn parse_expectation(path: &Path, text: &str) -> Expectation {
    let first = text.lines().next().unwrap_or_default();
    let spec = first
        .strip_prefix("// expect:")
        .unwrap_or_else(|| panic!("{}: first line must be `// expect: ...`", path.display()))
        .trim();
    let mut accept = false;
    let mut codes = BTreeSet::new();
    for part in spec.split(',').map(str::trim) {
        if part == "ok" {
            accept = true;
        } else {
            assert!(
                part.starts_with("QP") && part.len() == 5,
                "{}: bad expectation token {part:?}",
                path.display()
            );
            codes.insert(part.to_string());
        }
    }
    Expectation { accept, codes }
}

/// The corpus fixtures, in file-name order.
fn fixtures() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn corpus_fixtures_match_their_declared_codes() {
    let paths = fixtures();
    assert!(
        paths.len() >= 20,
        "corpus shrank to {} fixtures",
        paths.len()
    );
    let mut failures = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let want = parse_expectation(path, &text);
        let (bc, diags) = quipper_qasm::compile_full(&text);
        let got: BTreeSet<String> = diags.iter().map(|d| d.code.as_str().to_string()).collect();
        if bc.is_some() != want.accept {
            failures.push(format!(
                "{}: expected {}, got {} with codes {:?}\n{}",
                path.display(),
                if want.accept { "accept" } else { "reject" },
                if bc.is_some() { "accept" } else { "reject" },
                got,
                diags,
            ));
            continue;
        }
        if got != want.codes {
            failures.push(format!(
                "{}: expected codes {:?}, got {:?}\n{}",
                path.display(),
                want.codes,
                got,
                diags,
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Every diagnostic of every fixture, rendered, equals the committed golden.
#[test]
fn corpus_diagnostics_match_the_golden() {
    let mut rendered = String::new();
    for path in fixtures() {
        let text = std::fs::read_to_string(&path).unwrap();
        let (bc, diags) = quipper_qasm::compile_full(&text);
        let name = path.file_name().unwrap().to_string_lossy();
        let verdict = if bc.is_some() { "accepted" } else { "rejected" };
        rendered.push_str(&format!("== {name}: {verdict}\n"));
        for d in diags.iter() {
            rendered.push_str(&format!("{d}\n"));
        }
    }
    let path = corpus_dir().join("diagnostics.golden");
    if std::env::var_os("QASM_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with QASM_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "corpus diagnostics drifted from their golden; if intentional, re-bless with QASM_BLESS=1"
    );
}

/// Accepted fixtures are first-class circuits: they validate as IR and
/// compile through the plan cache and its lint gate.
#[test]
fn accepted_fixtures_plan_like_catalog_circuits() {
    let cache = quipper_exec::PlanCache::new();
    let mut accepted = 0;
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "qasm") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let (bc, _) = quipper_qasm::compile_full(&text);
        let Some(bc) = bc else { continue };
        accepted += 1;
        bc.validate()
            .unwrap_or_else(|e| panic!("{}: invalid IR: {e}", path.display()));
        cache
            .get_or_compile(&bc, quipper_exec::OptLevel::Off)
            .unwrap_or_else(|e| panic!("{}: does not plan: {e}", path.display()));
    }
    assert!(accepted >= 7, "only {accepted} fixtures were accepted");
    assert_eq!(
        cache.len(),
        accepted,
        "distinct fixtures share a fingerprint"
    );
}
