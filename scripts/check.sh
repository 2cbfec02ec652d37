#!/usr/bin/env bash
# The full offline gate: everything CI runs, runnable on a laptop with
# no network (the workspace has no external dependencies by design —
# see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> sanitizer suite (hsan unit + e9 differential/property harness)"
cargo test -q --release -p hsan
cargo test -q --release --test e9_sanitizer

echo "==> block-cache identity (e12: cache on == cache off, release build as perfbench measures)"
cargo test -q --release --test e12_bbcache

echo "==> crash-point exhaustion (e13: every disk-write index, torn and clean)"
cargo test -q --release --test e13_crash

echo "==> disk-integrity properties (e14: corruption detect/heal/contain)"
cargo test -q --release --test e14_integrity

echo "==> prelink snapshots (e15: identity, staleness, crash sweep)"
cargo test -q --release --test e15_snapshot

echo "==> perfbench (a package of its own: builds against the workspace crates, unit tests)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> bench regression gate"
bash scripts/bench_compare.sh

echo "All checks passed."
