#!/usr/bin/env bash
# The one gate: build, test, domain lint, and (when available) format
# check. Everything runs offline — the workspace has no external
# dependencies by design, and `kindle-check` enforces that it stays so.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test --workspace -q

echo "== tests (perfbench self-tests, pinned sweep digests) =="
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "== bench artifacts vs golden ranges (deterministic bench-smoke set) =="
# hotpath is left to CI: its wall-clock ratio gate is too noisy for a
# local gate.
cargo build --release -q -p kindle-bench
bin="${CARGO_TARGET_DIR:-target}/release"
artifacts="$(mktemp -d)"
trap 'rm -rf "$artifacts"' EXIT
bench() { "$bin/$1" "${@:2}" >/dev/null; }
bench fig4a --quick --sanitize --json "$artifacts/BENCH_fig4a.json"
bench table1 --sanitize --json "$artifacts/BENCH_table1.json"
bench backends --quick --json "$artifacts/BENCH_backends.json"
bench data_integrity --json "$artifacts/BENCH_data_integrity.json"
"$bin/bench_diff" bench-golden.txt "$artifacts"/BENCH_*.json

echo "== allowlist justification guard =="
# Policy: fix, don't allowlist. Every check-allowlist.txt entry must be
# preceded by a `#` justification comment on the line directly above it.
awk '
    /^[[:space:]]*$/ { prev = ""; next }
    /^#/             { prev = "comment"; next }
    {
        if (prev != "comment") {
            printf "check-allowlist.txt:%d: entry lacks a justification comment on the line above: %s\n", NR, $0
            bad = 1
        }
        prev = "entry"
    }
    END { exit bad }
' check-allowlist.txt

echo "== kindle-check (KD001-KD013) =="
cargo run -q -p kindle-check -- --json CHECK_lint.json

if cargo fmt --version >/dev/null 2>&1; then
    echo "== rustfmt =="
    cargo fmt --check
else
    echo "== rustfmt not installed; skipping format check =="
fi

echo "all checks passed"
