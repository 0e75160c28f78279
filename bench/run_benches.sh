#!/usr/bin/env bash
# Run the google-benchmark micro-bench binaries and write one JSON file
# per binary (BENCH_<name>.json) into the current directory. Also runs
# the robustness, drift, serving, fleet and durability sweeps, each of
# which writes its own BENCH_<sweep>.json.
#
# Usage:
#   bench/run_benches.sh [--smoke] [build-dir]
#
#   --smoke    CI mode: only conv/GEMM benches plus a short fault sweep,
#              one repetition at a tiny min-time — a "does it still run"
#              guard, not a perf gate.
#   build-dir  defaults to ./build
#
# Note: the installed google-benchmark wants a bare number for
# --benchmark_min_time (no "s" suffix).
set -euo pipefail

smoke=0
if [[ "${1:-}" == "--smoke" ]]; then
  smoke=1
  shift
fi
build_dir="${1:-build}"

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: '$build_dir/bench' not found — build the project first" >&2
  exit 1
fi

extra_args=()
glob="bench_micro_*"
if [[ $smoke -eq 1 ]]; then
  # Only bench_micro_nn has Conv/Gemm benchmarks; skip the rest entirely
  # instead of writing empty JSON files.
  glob="bench_micro_nn"
  # Three repetitions: the perf gate compares medians, and a single
  # sample at a tiny min-time is too noisy on shared runners to gate on.
  extra_args+=(--benchmark_filter='Conv|Gemm' --benchmark_min_time=0.01 --benchmark_repetitions=3)
else
  extra_args+=(--benchmark_min_time=0.2)
fi

ran=0
for bin in "$build_dir"/bench/$glob; do
  [[ -x "$bin" && ! -d "$bin" ]] || continue
  name="$(basename "$bin")"
  out="BENCH_${name#bench_}.json"
  echo "== $name -> $out"
  "$bin" --benchmark_out="$out" --benchmark_out_format=json "${extra_args[@]}"
  ran=$((ran + 1))
done

if [[ $ran -eq 0 ]]; then
  echo "error: no bench_micro_* binaries in '$build_dir/bench'" >&2
  exit 1
fi

# Fault-injection sweep: availability / missed-threat / false-warning per
# fault rate, baseline vs fail-safe policy. Not a google-benchmark binary;
# it writes its JSON itself and exits non-zero on any uncaught exception
# or if its every-swap-dies arm records no switch failure, makes no
# decision, or lets the model make one.
robustness_bin="$build_dir/bench/bench_robustness_faults"
if [[ -x "$robustness_bin" ]]; then
  robustness_args=(--json BENCH_robustness.json)
  if [[ $smoke -eq 1 ]]; then
    robustness_args+=(--frames 1800)  # one simulated minute per arm
  fi
  echo "== bench_robustness_faults -> BENCH_robustness.json"
  "$robustness_bin" "${robustness_args[@]}"
  ran=$((ran + 1))
fi

# Geometric drift sweep: uncorrected camera decay vs the self-healing
# recalibration loop, per drift rate. Writes its JSON itself; exits
# non-zero on uncaught exceptions or if the zero-drift/no-recalib arm
# diverges from a plain run (the geometry machinery must be free when
# disabled).
drift_bin="$build_dir/bench/bench_drift"
if [[ -x "$drift_bin" ]]; then
  drift_args=(--json BENCH_drift.json)
  if [[ $smoke -eq 1 ]]; then
    drift_args+=(--frames 1800)  # one simulated minute per arm
  fi
  echo "== bench_drift -> BENCH_drift.json"
  "$drift_bin" "${drift_args[@]}"
  ran=$((ran + 1))
fi

# Multi-stream serving sweep: batched StreamServer vs sequential reference
# over stream counts {1,2,4,8}. Writes its JSON itself; exits non-zero if
# the batched verdicts diverge bit-for-bit from the sequential reference.
multistream_bin="$build_dir/bench/bench_multistream"
if [[ -x "$multistream_bin" ]]; then
  multistream_args=(--json BENCH_multistream.json)
  if [[ $smoke -eq 1 ]]; then
    multistream_args+=(--reps 3)  # median-of-3 is enough for a smoke guard
  fi
  echo "== bench_multistream -> BENCH_multistream.json"
  "$multistream_bin" "${multistream_args[@]}"
  ran=$((ran + 1))
fi

# Switch-storm sweep: pipelined serving-path switching vs the stop-and-
# start ablation under staggered weather flips. Writes its JSON itself;
# exits non-zero if either batched arm's verdicts diverge bit-for-bit
# (lineage included) from the switch-free sequential oracle.
switch_bin="$build_dir/bench/bench_switch_storm"
if [[ -x "$switch_bin" ]]; then
  switch_args=(--json BENCH_switch.json)
  if [[ $smoke -eq 1 ]]; then
    switch_args+=(--frames 2400 --reps 2)  # ~80 simulated seconds per stream
  fi
  echo "== bench_switch_storm -> BENCH_switch.json"
  "$switch_bin" "${switch_args[@]}"
  ran=$((ran + 1))
fi

# Fleet sweep: K streams x S shards, no-kill vs one-kill-failover with a
# planned mid-journal shard kill. Writes its JSON itself; exits non-zero
# if any killed-and-failed-over fleet's merged decision sequences diverge
# from the uninterrupted run.
fleet_bin="$build_dir/bench/bench_fleet"
if [[ -x "$fleet_bin" ]]; then
  fleet_args=(--json BENCH_fleet.json)
  if [[ $smoke -eq 1 ]]; then
    # Ten simulated seconds, one rep, skip the 256-stream tail: a "does
    # failover still hold parity" guard, not a perf measurement.
    fleet_args+=(--frames 300 --reps 1 --max-streams 64)
  fi
  echo "== bench_fleet -> BENCH_fleet.json"
  "$fleet_bin" "${fleet_args[@]}"
  ran=$((ran + 1))
fi

# Partition-tolerance sweep: control-plane fault rate x failure detector
# (hard-threshold vs phi-accrual suspicion), partition-heal and one-kill
# arms. Writes its JSON itself; exits non-zero if any faulted arm's
# merged decision sequences diverge from the perfect-network run or the
# epoch audit finds a decision journaled under a stale ownership epoch.
partition_bin="$build_dir/bench/bench_partition"
if [[ -x "$partition_bin" ]]; then
  partition_args=(--json BENCH_partition.json)
  if [[ $smoke -eq 1 ]]; then
    # Half a simulated minute, one reference rep: a "do both detectors
    # still hold parity and fencing" guard, not a perf measurement.
    partition_args+=(--frames 900 --reps 1)
  fi
  echo "== bench_partition -> BENCH_partition.json"
  "$partition_bin" "${partition_args[@]}"
  ran=$((ran + 1))
fi

# Durability sweep: snapshot interval x journal fsync policy, steady-state
# overhead vs recovery time. Writes its JSON itself; exits non-zero if a
# killed-and-recovered run diverges from the uninterrupted baseline.
recovery_bin="$build_dir/bench/bench_recovery"
if [[ -x "$recovery_bin" ]]; then
  recovery_args=(--json BENCH_recovery.json)
  if [[ $smoke -eq 1 ]]; then
    recovery_args+=(--frames 1800 --reps 1)  # one simulated minute per arm
  fi
  echo "== bench_recovery -> BENCH_recovery.json"
  "$recovery_bin" "${recovery_args[@]}"
  ran=$((ran + 1))
fi

echo "wrote $ran JSON result file(s)"
