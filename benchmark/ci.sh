#!/bin/sh
# The benchmark's smoke test: its unit tests, then every workload for a
# twentieth of a run, both passes, with every answer checked. Under a minute
# on two cores. Not wired into .github/workflows/ci.yml yet: a later change
# adds a step that runs `sh benchmark/ci.sh` from the repository root.
set -eu
cd "$(dirname "$0")/.."
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --quick
