#!/usr/bin/env bash
# The one command: builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh                      all four workloads, one process each
#   benchmark/run.sh --trace              ... each followed by its traced run
#   benchmark/run.sh --repeat-check       ... twice; fails if a metric of the
#                                         second set is worse by more than its bound
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run in this process; the last
#                                         line of stdout is the result as JSON
#   benchmark/run.sh --selfcheck          answers against brute force
#   benchmark/run.sh --list               every metric the runner can print
set -euo pipefail
cd "$(dirname "$0")/.."

# The engine reads PBSM_TRACE, PBSM_CPU_SCALE, ...; a benchmark run must
# not depend on what the caller's shell happens to export.
for v in "${!PBSM_@}"; do unset "$v"; done

# Lock file and target/ stay inside benchmark/ unless the caller moves the
# target directory (the driver sets CARGO_TARGET_DIR).
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pbsm-benchmark"

# Where pages land is re-drawn per process, and that alone moved the
# refinement-heavy joins between two modes 4 % apart (same binary, same
# seed). Switch address-space randomisation off where the host allows it.
if setarch "$(uname -m)" -R true 2>/dev/null; then
    exec setarch "$(uname -m)" -R "$bin" "$@"
fi
exec "$bin" "$@"
