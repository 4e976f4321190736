#!/usr/bin/env bash
# Local CI: what must be green before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --locked: a manifest change must come with its Cargo.lock"
cargo build --release --locked

echo "==> detcheck: DNS codecs off/on x observers off/on x threads 1/2/7 hash identically (standard + adversarial worlds; 10-13 s, the codecs-on cells 6-8 s of it)"
det_default="$(cargo run --release -q -p bench-suite --bin detcheck)"
echo "$det_default"

echo "==> detcheck with telemetry compiled out: the same hash lines as the default build"
det_nodefault="$(cargo run --release -q -p bench-suite --bin detcheck --no-default-features)"
echo "$det_nodefault"
[ -n "$det_default" ] || { echo "FAIL: detcheck emitted no hashes"; exit 1; }
[ "$det_default" = "$det_nodefault" ] || { echo "FAIL: detcheck hashes differ across feature builds"; exit 1; }

echo "==> detcheck: the hash lines equal the committed ones (a change that means to move them updates them here)"
det_committed="standard: 125713 transactions, dataset hash dd4a55b5995096f8, report hash 08cfe4064ebaf7e7, sidecar hash bf572aaef6eada95, 46 exemplars (keys hash bc57e8a5a74f3f11)
adversarial: 125713 transactions, dataset hash 50867a705302dd19, report hash 499e63a3473bcfdc, sidecar hash 5eaeab5e4921281b, 112 exemplars (keys hash 89b62b8678e9f4a2)"
if [ "$det_default" != "$det_committed" ]; then
    echo "FAIL: detcheck hashes differ from the lines committed in ci.sh"
    diff <(echo "$det_committed") <(echo "$det_default") || true
    exit 1
fi

echo "==> ablation: the one program that runs fault_scale other than 1 (0, 0.5 and 2.0), the factor on every fault intensity the ground truth materializes; stdout is the committed one (10-13 s; a change that means to move it updates the hash here)"
ablation_committed="8aa59af80cced42a614272d50fecd3ed624460e8cea4a7003669c1fc08122bfb"
ablation_sha="$(cargo run --release -q -p bench-suite --bin ablation | sha256sum | cut -d' ' -f1)"
if [ "$ablation_sha" != "$ablation_committed" ]; then
    echo "FAIL: ablation stdout sha256 $ablation_sha differs from the committed $ablation_committed"; exit 1
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

echo "==> explain --audit-misses: a causal timeline exists for every below-recall archetype; stdout is the committed one (a change that means to move it updates the hash here)"
misses_committed="b558a03f68a31ea763d412cd95da96de1521141fa189c4611013b27382255384"
cargo run --release -q -p bench-suite --bin explain -- --audit-misses > "$ci_tmp/misses.txt"
misses_sha="$(sha256sum "$ci_tmp/misses.txt" | cut -d' ' -f1)"
if [ "$misses_sha" != "$misses_committed" ]; then
    echo "FAIL: explain --audit-misses stdout sha256 $misses_sha differs from the committed $misses_committed"; exit 1
fi
misses="$(cat "$ci_tmp/misses.txt")"
echo "$misses" | grep -q 'exemplar (' || { echo "FAIL: no miss exemplars dumped"; exit 1; }
# Every archetype header below 1.0 recall must be followed by an exemplar.
if [ "$(echo "$misses" | grep -c '^== ')" -ne "$(echo "$misses" | grep -c '^exemplar (')" ]; then
    echo "FAIL: some below-recall archetype has no exemplar"; exit 1
fi

echo "==> reproduce --html: self-contained page smoke test; stdout is the committed quick-scale text report (a change that means to move it updates the hash here)"
html_dir="$ci_tmp/html"
repro_committed="11d034bd095d94d8aff7bd6cfd58e4ca695e0d3079416afae2ae00671df03a67"
repro_sha="$(cargo run --release -q -p bench-suite --bin reproduce -- --scale quick --html "$html_dir/report.html" | sha256sum | cut -d' ' -f1)"
if [ "$repro_sha" != "$repro_committed" ]; then
    echo "FAIL: reproduce --scale quick stdout sha256 $repro_sha differs from the committed $repro_committed"; exit 1
fi
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

echo "==> telemetry-disabled build stays deterministic, matches the oracle and keeps the allocation budget"
cargo test -q --no-default-features --test determinism --test differential --test alloc_budget

echo "==> examples build and run (every examples/*.rs, so a new example cannot skip CI); the deterministic ones' stdout, concatenated in file order, is the committed one (a change that means to move it updates the hash here)"
examples_committed="8ecb45d7004375290b79c9cbd103ead7de31617395fcb4c7fc9680c66796c354"
cargo build --release --examples
: > "$ci_tmp/examples.txt"
for path in examples/*.rs; do
    ex="$(basename "$path" .rs)"
    echo "   -> example: $ex"
    if [ "$ex" = profiled_run ]; then
        # Prints wall-clock timings, so it runs but is left out of the hash.
        cargo run --release --example "$ex" > /dev/null
    else
        cargo run --release --example "$ex" >> "$ci_tmp/examples.txt"
    fi
done
examples_sha="$(sha256sum "$ci_tmp/examples.txt" | cut -d' ' -f1)"
if [ "$examples_sha" != "$examples_committed" ]; then
    echo "FAIL: the examples' stdout sha256 $examples_sha differs from the committed $examples_committed"; exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings (tests and examples too)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "CI green."
