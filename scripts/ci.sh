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

echo "=== MVM kernel differential suite ==="
# cached + packed fast paths vs reference oracle, plus cache/plane
# staleness fuzzing across all mutators
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

echo "=== serve suite (queue invariants + threaded chaos replay) ==="
# conservation, admission monotonicity, zero silent drops, bitwise replay
cargo test -q -p membit-serve --test proptest_serve
# live threaded serving over DeviceVgg: chaos + guard escalations must
# replay bitwise at 1 and 4 engine threads; kill + overload typed
cargo test -q -p membit-serve --test serve_replay

echo "=== shard suite (cross-shard conservation + chaos-script campaigns) ==="
# cross-shard accounting under arbitrary chaos scripts, deterministic
# routing reruns, sharded kill-and-replay bitwise at 1 and 4 threads —
# in both profiles to match the release-determinism gates (PR 8)
cargo test -q -p membit-serve --test proptest_shard
cargo test -q --release -p membit-serve --test proptest_shard
cargo test -q --release -p membit-serve --test serve_replay

echo "=== bench_engine smoke (BENCH_engine.json + BENCH_mvm.json) ==="
# exercises both kernels and aborts on any cached/reference disagreement
./target/release/bench_engine --smoke
test -s results/BENCH_engine.json
test -s results/BENCH_mvm.json

echo "=== ablation_guard smoke (BENCH_guard.json + ablation_guard.csv) ==="
# asserts gap recovery, false-positive bound, determinism, and the
# analytic checksum overhead accounting
./target/release/ablation_guard --smoke
test -s results/BENCH_guard.json
test -s results/ablation_guard.csv

echo "=== ablation_nonideal smoke (BENCH_nonideal.json + ablation_nonideal.csv) ==="
# asserts SAF gap recovery by the ECC + remap + guard stack, zero false
# escalations on fault-free scenarios, and per-scenario thread determinism
./target/release/ablation_nonideal --smoke
test -s results/BENCH_nonideal.json
test -s results/ablation_nonideal.csv

echo "=== bench_serve smoke (BENCH_serve.json) ==="
# load × chaos sweep cells assert accounting, typed backpressure,
# health shedding, and bitwise log replay; the shard campaign pair
# asserts failover under a mid-run kill, a live reconfiguration, and
# strictly higher 3-shard admitted throughput under the same script
./target/release/bench_serve --smoke
test -s results/BENCH_serve.json

echo "=== bench_memse smoke (BENCH_memse.json) ==="
# analytic-vs-MC validation cells, search speedup + fidelity gates,
# tile-allocation non-regression, reconfiguration bitwise replay
./target/release/bench_memse --smoke
test -s results/BENCH_memse.json

echo "=== membench smoke (the repository benchmark, all four workloads) ==="
# random weights at tiny size: checks that every workload runs and that
# the traced mirror stays bitwise equal to DeviceVgg; not a measurement,
# writes only under target/membench/
./target/release/membench --smoke

echo "=== cargo clippy (-D warnings) ==="
cargo clippy --release --workspace --all-targets -- -D warnings

echo "ci: all checks passed"
