#!/usr/bin/env bash
# Validates the benchmark harness in about a minute: build, unit
# tests, the verifier's self-test, a --smoke run of every workload (traced
# and untraced), and the well-formedness of the JSON it prints. CI can
# adopt this as one step; it measures nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo_nvbench() { cargo "$1" --release --offline --quiet --manifest-path nvbench/Cargo.toml "${@:2}"; }

cargo_nvbench build
cargo_nvbench test
cargo_nvbench run -- selftest

out=$(mktemp)
trap 'rm -f "$out"' EXIT
for trace in "" "--trace"; do
    cargo_nvbench run -- run --smoke --seed 7 $trace > "$out"
    # The document starts at the line that opens it and runs to the end.
    python3 - "$out" "$trace" <<'PY'
import json, sys
text = open(sys.argv[1]).read()
doc = json.loads(text[text.index('{"nvbench"'):])
bench = json.load(open("BENCHMARK.json"))
kind = "per_layer" if sys.argv[2] else "end_to_end"
assert doc["smoke"] is True and doc["claim"] is None and list(doc)[-1] == "claim", "document shape"
assert [w["name"] for w in doc["workloads"]] == [w["name"] for w in bench["workloads"]], "workload names"
for w in doc["workloads"]:
    assert w["correct"] is True and w["ops_failed"] == 0 and w["ops_attempted"] >= 1, w["name"]
    assert list(w["metrics"]) == [m["name"] for m in bench[kind]], (w["name"], "metric names")
    for m in bench[kind]:
        got = w["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (w["name"], m["name"])
print(f"check: {kind} document ok ({len(doc['workloads'])} workloads, {len(bench[kind])} metrics each)")
PY
done
echo "check: ok"
