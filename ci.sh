#!/usr/bin/env bash
# Local CI: what must be green before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> detcheck: observers off/on x threads 1/2/7 hash identically (standard + adversarial worlds)"
det_default="$(cargo run --release -q -p bench-suite --bin detcheck)"
echo "$det_default"

echo "==> detcheck with telemetry compiled out: the same hash lines as the default build"
det_nodefault="$(cargo run --release -q -p bench-suite --bin detcheck --no-default-features)"
echo "$det_nodefault"
[ -n "$det_default" ] || { echo "FAIL: detcheck emitted no hashes"; exit 1; }
[ "$det_default" = "$det_nodefault" ] || { echo "FAIL: detcheck hashes differ across feature builds"; exit 1; }

echo "==> detcheck: the hash lines equal the committed ones (a change that means to move them updates them here)"
det_committed="standard: 125713 transactions, dataset hash a796d0c754ef6a87, report hash 172ecaf28e968659, sidecar hash b89c33a0e17f60a5, 46 exemplars (keys hash bc57e8a5a74f3f11)
adversarial: 125713 transactions, dataset hash 0491912d183bdc57, report hash 2d914f1f4c9df033, sidecar hash bb865f05ddcd6e1b, 112 exemplars (keys hash 89b62b8678e9f4a2)"
if [ "$det_default" != "$det_committed" ]; then
    echo "FAIL: detcheck hashes differ from the lines committed in ci.sh"
    diff <(echo "$det_committed") <(echo "$det_default") || true
    exit 1
fi

echo "==> oracle_diff: columnar sharded scans match the naive row-layout oracle (audit diff included)"
cargo run --release -q -p bench-suite --bin oracle_diff

ci_tmp="$(mktemp -d)"
trap 'rm -rf "$ci_tmp"' EXIT

echo "==> audit: blame agreement, pair detection, and client-episode precision clear the floor; the scores equal BENCH_audit.json"
cargo run --release -q -p bench-suite --bin audit -- --threads 1 --out "$ci_tmp/BENCH_audit.json" > /dev/null
cmp "$ci_tmp/BENCH_audit.json" BENCH_audit.json || { echo "FAIL: audit scores differ from the committed BENCH_audit.json"; exit 1; }

echo "==> audit --scenario: per-archetype detection clears the recall floors (censorship/brownout included); the scores equal BENCH_scenarios.json"
cargo run --release -q -p bench-suite --bin audit -- --scenario --threads 1 --out "$ci_tmp/BENCH_scenarios.json" > /dev/null
cmp "$ci_tmp/BENCH_scenarios.json" BENCH_scenarios.json || { echo "FAIL: scenario scores differ from the committed BENCH_scenarios.json"; exit 1; }

echo "==> explain --audit-misses: a causal timeline exists for every below-recall archetype"
misses="$(cargo run --release -q -p bench-suite --bin explain -- --audit-misses)"
echo "$misses" | grep -q 'exemplar (' || { echo "FAIL: no miss exemplars dumped"; exit 1; }
# Every archetype header below 1.0 recall must be followed by an exemplar.
if [ "$(echo "$misses" | grep -c '^== ')" -ne "$(echo "$misses" | grep -c '^exemplar (')" ]; then
    echo "FAIL: some below-recall archetype has no exemplar"; exit 1
fi

echo "==> reproduce --html: self-contained page smoke test"
html_dir="$ci_tmp/html"
cargo run --release -q -p bench-suite --bin reproduce -- --scale quick --html "$html_dir/report.html" > /dev/null
test -s "$html_dir/report.html" || { echo "FAIL: report.html empty"; exit 1; }
test -s "$html_dir/manifest.json" || { echo "FAIL: manifest.json missing"; exit 1; }
iconv -f UTF-8 -t UTF-8 "$html_dir/report.html" > /dev/null || { echo "FAIL: report.html not valid UTF-8"; exit 1; }
for anchor in manifest paper compare audit waterfalls quarantine telemetry trajectory; do
    grep -q "id=\"$anchor\"" "$html_dir/report.html" || { echo "FAIL: missing section anchor $anchor"; exit 1; }
done
if [ "$(grep -c 'http[s]*://' "$html_dir/report.html")" -ne 0 ]; then
    echo "FAIL: report.html references external URLs"; exit 1
fi

echo "==> cargo test -q --workspace (tier-1 included: the root package is a workspace member)"
cargo test -q --workspace

echo "==> perfbench helper tests: the calls perfbench makes still compile and its block list matches paper_blocks"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> telemetry-disabled build stays deterministic and matches the oracle"
cargo test -q --no-default-features --test determinism --test differential

echo "==> examples build and run"
cargo build --release --examples
for ex in quickstart custom_world blame_attribution bgp_correlation degraded_run proxy_failover profiled_run; do
    echo "   -> example: $ex"
    cargo run --release --example "$ex" > /dev/null
done

echo "==> cargo bench --no-run -p bench-suite: the criterion bench targets still compile"
cargo bench --no-run -q -p bench-suite

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "CI green."
