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

echo "=== golden search digests (training, GBO and MemSE search; both profiles) ==="
# trained parameters, BN statistics, losses, GBO logits and analytic
# selections of five scenarios (rollback, kill-and-resume, MC search,
# NIA, MemSE descent), pinned to digests recorded before the epoch
# loop and the coordinate descent were merged
cargo test -q -p membit-core --test golden_search
cargo test -q --release -p membit-core --test golden_search

echo "=== MVM path differential suite ==="
# delta schedule vs dense twin, the cached loop vs the tile's reference
# oracle, plus cache staleness fuzzing across all mutators
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

# The smoke runs below write under target/bench-smoke (a smoke run never
# writes into results/); ablation_guard, the first to need the model,
# pretrains its checkpoint there once. The experiments assert nothing:
# the properties their numbers must satisfy are the test suite's.
echo "=== bench_engine smoke (BENCH_engine.json under target/) ==="
# thread-sweep bitwise identity: proptest_determinism
./target/release/repro bench_engine --scale smoke
test -s target/bench-smoke/BENCH_engine.json

echo "=== ablation_guard smoke (BENCH_guard.json + ablation_guard.csv under target/) ==="
# gap recovery and false-positive bound: membit-bench tests/experiments.rs;
# overhead accounting and determinism: proptest_stats
./target/release/repro ablation_guard --scale smoke
test -s target/bench-smoke/BENCH_guard.json
test -s target/bench-smoke/ablation_guard.csv

echo "=== ablation_nonideal smoke (BENCH_nonideal.json + ablation_nonideal.csv under target/) ==="
# SAF gap recovery, guard silence, ECC firing and per-scenario thread
# determinism: membit-bench tests/experiments.rs
./target/release/repro ablation_nonideal --scale smoke
test -s target/bench-smoke/BENCH_nonideal.json
test -s target/bench-smoke/ablation_nonideal.csv

echo "=== bench_serve smoke + full (BENCH_serve.json under target/) ==="
# accounting, typed backpressure, bitwise replay, live reconfiguration
# and 3-shard > 1-shard admission on every smoke and full cell:
# membit-bench tests/serve.rs. The full run writes under
# target/bench-serve, never over the committed results/BENCH_serve.json
./target/release/repro bench_serve --scale smoke
test -s target/bench-smoke/BENCH_serve.json
MEMBIT_RESULTS_DIR=target/bench-serve ./target/release/repro bench_serve --scale full
test -s target/bench-serve/BENCH_serve.json

echo "=== bench_memse smoke (BENCH_memse.json under target/) ==="
# validation band and fidelity: membit-bench tests/experiments.rs;
# search speedup, scorer plumbing, tile allocation and reconfiguration
# replay: proptest_memse
./target/release/repro bench_memse --scale smoke
test -s target/bench-smoke/BENCH_memse.json

echo "=== membench smoke (the repository benchmark, all four workloads) ==="
# random weights at tiny size: checks that every workload runs and that
# the traced mirror stays bitwise equal to DeviceVgg; not a measurement,
# writes only under target/membench/
./target/release/membench --smoke

echo "=== cargo clippy (-D warnings) ==="
cargo clippy --release --workspace --all-targets -- -D warnings

echo "=== cargo doc (-D warnings) ==="
# broken, private or ambiguous intra-doc links fail the gate
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "ci: all checks passed"
