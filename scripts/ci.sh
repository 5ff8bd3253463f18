#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run before every push.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release ==="
cargo build --release --workspace

echo "=== cargo test ==="
cargo test -q --workspace

echo "=== fault-injection suite ==="
cargo test -q -p membit-nn --test fault_injection
cargo test -q -p membit-core --test resilience

echo "=== engine determinism suite ==="
# parallel-execution determinism must hold under any test scheduling:
# run the suite serialized and with concurrent test threads
cargo test -q -p membit-xbar --test proptest_determinism -- --test-threads=1
cargo test -q -p membit-xbar --test proptest_determinism -- --test-threads=4

echo "=== golden forward digests (determinism across changes, both profiles) ==="
# logits + stats of a small DeviceVgg and raw engine outputs, pinned to
# recorded digests at 1 and 4 engine threads: the bitwise contract holds
# across commits and across build profiles, not just within one run
cargo test -q -p membit-core --test golden_forward
cargo test -q --release -p membit-core --test golden_forward

echo "=== MVM path differential suite ==="
# delta schedule vs dense twin, popcount + cached loops vs the tile's
# reference oracle, plus cache/plane staleness fuzzing across all mutators
cargo test -q -p membit-xbar --test proptest_kernels

echo "=== release-mode float determinism (tensor + kernel suites) ==="
# the bitwise contracts must hold under optimized codegen too: release
# builds changed vectorization/libm behavior have broken these before
# (1-ULP sin divergence in results_identical_for_any_chunking, PR 8)
cargo test -q --release -p membit-tensor
cargo test -q --release -p membit-xbar --test proptest_kernels
cargo test -q --release -p membit-xbar --test proptest_determinism
# encode_tensor vs per-element encode_value, bitwise: the block-wise
# class and validation folds vectorize under release codegen
cargo test -q --release -p membit-encoding --test proptest_encoding

echo "=== analytic MemSE suite (engine-variance identity + bitwise scores) ==="
# closed-form walk vs paired-MC engine variance, thread-count bitwise
# invariance of scores/selections — in both profiles, since the lane
# loops vectorize under release codegen
cargo test -q -p membit-core --test proptest_memse
cargo test -q --release -p membit-core --test proptest_memse
cargo test -q --release -p membit-nn moments

echo "=== guard suite (stats merge algebra + checksum fuzzing) ==="
cargo test -q -p membit-xbar --test proptest_stats
cargo test -q -p membit-xbar --test proptest_kernels cached_kernel_never_masks_guard_violations

echo "=== non-ideality suite (IR drop, temperature, guard silence) ==="
cargo test -q -p membit-xbar --test proptest_nonideal

echo "=== serve suite (queue invariants + chaos-script campaigns + threaded replay) ==="
# one serving path: a lone deployment is a set of one. Its conservation,
# zero silent drops and bitwise log replay; then sets of one to three
# shards: conservation under arbitrary chaos scripts, admission monotone
# in capacity, deterministic routing reruns, kill-and-replay bitwise at
# 1 and 4 threads — in both profiles to match the release-determinism
# gates
cargo test -q -p membit-serve --test proptest_serve
cargo test -q --release -p membit-serve --test proptest_serve
cargo test -q -p membit-serve --test proptest_shard
cargo test -q --release -p membit-serve --test proptest_shard
# live threaded serving over DeviceVgg: chaos + guard escalations must
# replay bitwise at 1 and 4 engine threads; kill + overload typed
cargo test -q -p membit-serve --test serve_replay
cargo test -q --release -p membit-serve --test serve_replay

echo "=== golden serve digests (determinism across changes, both profiles) ==="
# outcomes, stats and every per-shard request log of a lone deployment
# under upsets + a reconfigure and of a 3-shard kill campaign, pinned to
# recorded digests at 1 and 4 engine threads
cargo test -q -p membit-serve --test golden_serve
cargo test -q --release -p membit-serve --test golden_serve

# The smoke benches below write under target/bench-smoke, never over the
# committed results/ files; ablation_guard, the first to need the model,
# pretrains its checkpoint there once.
echo "=== bench_engine smoke (BENCH_engine.json under target/) ==="
# aborts if outputs differ bitwise across thread counts
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/bench_engine --smoke
test -s target/bench-smoke/BENCH_engine.json

echo "=== ablation_guard smoke (BENCH_guard.json + ablation_guard.csv under target/) ==="
# asserts gap recovery, false-positive bound, determinism, and the
# analytic checksum overhead accounting
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/ablation_guard --smoke
test -s target/bench-smoke/BENCH_guard.json
test -s target/bench-smoke/ablation_guard.csv

echo "=== ablation_nonideal smoke (BENCH_nonideal.json + ablation_nonideal.csv under target/) ==="
# asserts SAF gap recovery by the ECC + remap + guard stack, zero false
# escalations on fault-free scenarios, and per-scenario thread determinism
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/ablation_nonideal --smoke
test -s target/bench-smoke/BENCH_nonideal.json
test -s target/bench-smoke/ablation_nonideal.csv

echo "=== bench_serve smoke + full (BENCH_serve.json under target/) ==="
# load × chaos sweep cells check accounting, typed backpressure and
# bitwise log replay; the shard campaign pair checks a live
# reconfiguration and strictly higher 3-shard admitted throughput under
# the same script. Both runs write under target/bench-serve, never over
# the committed results/BENCH_serve.json
MEMBIT_RESULTS_DIR=target/bench-serve ./target/release/bench_serve --smoke
test -s target/bench-serve/BENCH_serve.json
MEMBIT_RESULTS_DIR=target/bench-serve ./target/release/bench_serve --scale full
test -s target/bench-serve/BENCH_serve.json

echo "=== bench_memse smoke (BENCH_memse.json under target/) ==="
# analytic-vs-MC validation cells, search speedup + fidelity gates,
# tile-allocation non-regression, reconfiguration bitwise replay
MEMBIT_RESULTS_DIR=target/bench-smoke ./target/release/bench_memse --smoke
test -s target/bench-smoke/BENCH_memse.json

echo "=== membench smoke (the repository benchmark, all four workloads) ==="
# random weights at tiny size: checks that every workload runs and that
# the traced mirror stays bitwise equal to DeviceVgg; not a measurement,
# writes only under target/membench/
./target/release/membench --smoke

echo "=== cargo clippy (-D warnings) ==="
cargo clippy --release --workspace --all-targets -- -D warnings

echo "ci: all checks passed"
