#!/usr/bin/env bash
# Tier-1 CI: test suite, schema contracts, serving smoke, benchmark smoke.
#
# Usage:  bash scripts/ci.sh
#
# Steps:
#   1. tier-1 pytest (slow/bench marked tests stay opted out via addopts),
#      then the training kernels' byte-exactness oracles, the pad and tile
#      parity properties (tests/nn/test_functional.py), the layers'
#      no-writes-into-inputs property (tests/nn/test_immutability.py),
#      the integer engine's drawn-stage and drawn-genome properties
#      (tests/infer/test_stage_property.py, test_space_parity.py), its
#      folded requantization epilogue against the reference chain
#      (tests/infer/test_requant.py) and the serve handler fuzz test
#      (tests/serve/test_fuzz.py) again under three more fixed hypothesis
#      seeds: the equalities rest on numpy's loop and allocation order, on
#      einsum's strided views and on the epilogue's int64 bound, and the
#      fuzz test's bodies are drawn, so each CI run checks four times the
#      shapes, multipliers and bodies tier-1 does
#   2. schema validation of a freshly traced+profiled run's events.jsonl
#      (exercises the full span/metric/profile event surface), then that
#      run's `repro report` with its hotspot table, so every CI log shows
#      where training time goes; then the same for an alloc-mode profiled
#      run at trial batch 1, where the GP fits (its `gp.lml` line) and the
#      phase spans carry memory figures; both run on two workers, so even
#      a one-CPU runner validates and renders worker trial spans ingested
#      under their `pool.batch` span
#   3. serving smoke test (HTTP round trip against a live daemon,
#      concurrent clients, bit-identity vs serial inference, clean drain,
#      the daemon's events.jsonl validated and rendered by `repro report`)
#   4. `repro infer --parity` on a freshly built bench artifact: every
#      teacher-forced segment of the arena executor within its LSB
#      budget of the fake-quant reference, through the CLI; then again at
#      batch size 7, so the 64 images run as nine batches of 7 and a
#      one-image tail (the executor's bound calls at n=7 and n=1) and
#      parity runs on 7 images
#   5. the examples at BOMP_SCALE=unit with a fresh experiment cache, so
#      a change to the search classes or the public API cannot break them
#      unnoticed; ptq_vs_qaft is left out: it takes ~50 s and runs only
#      BOMPNAS.run paths the tier-1 suite already covers
#   6. the repository benchmark's helper tests and a one-second run of
#      every workload (`perfbench/run.py` exits non-zero when a workload
#      cannot import what it needs from src/ or a correctness check
#      fails); performance itself is judged by full-length runs of the
#      same command against the bounds in BENCHMARK.json
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

for seed in 1 2 3; do
    echo "== exactness oracles and handler fuzz, hypothesis seed $seed =="
    python -m pytest -x -q --hypothesis-seed "$seed" \
        tests/nn/test_layer_oracle.py tests/nn/test_channel_sum.py \
        tests/nn/test_functional.py tests/nn/test_immutability.py \
        tests/infer/test_stage_property.py tests/infer/test_space_parity.py \
        tests/infer/test_requant.py tests/serve/test_fuzz.py
done

echo "== schema: freshly traced+profiled run =="
TMP_RUN="$(mktemp -d)"
trap 'rm -rf "$TMP_RUN"' EXIT
python -m repro search --scale unit --no-final-training --workers 2 \
    --profile --trace-dir "$TMP_RUN/run" --quiet >/dev/null
python scripts/check_schema.py "$TMP_RUN/run"

echo "== report: that run's dashboard and hotspot table =="
python -m repro report "$TMP_RUN/run"

echo "== schema and report: alloc-mode profiled run, trial batch 1 =="
python -m repro search --scale unit --no-final-training --trial-batch 1 \
    --workers 2 --profile alloc --trace-dir "$TMP_RUN/alloc" --quiet
python scripts/check_schema.py "$TMP_RUN/alloc"
python -m repro report "$TMP_RUN/alloc"

echo "== serve smoke =="
python scripts/serve_smoke.py

echo "== infer: CLI parity on a bench artifact =="
python -c "import sys; from pathlib import Path; \
from repro.serve.bench import make_bench_artifact; \
make_bench_artifact(Path(sys.argv[1]))" "$TMP_RUN/bench.bomp"
python -m repro infer "$TMP_RUN/bench.bomp" --parity --limit 64
python -m repro infer "$TMP_RUN/bench.bomp" --parity --batch-size 7 --limit 64

for example in quickstart custom_search compare_baselines deploy_and_infer \
        cifar10_figure2 serve_client; do
    echo "== example: $example =="
    BOMP_SCALE=unit BOMP_CACHE_DIR="$TMP_RUN/cache" \
        python "examples/$example.py" >/dev/null
done

echo "== perfbench: helper tests =="
python3 -m pytest perfbench

echo "== perfbench: smoke run of every workload =="
python3 perfbench/run.py --workload all --seed 1 --seconds 1

echo "CI passed"
