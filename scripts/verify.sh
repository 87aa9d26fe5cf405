#!/usr/bin/env bash
# Standard pre-PR check: tier-1 verification plus smoke runs.
#
#   scripts/verify.sh [--quick]
#
# Tier-1 (from ROADMAP.md) is `cargo build --release && cargo test -q`.
# `cargo test -q` covers only the root package, so the script also runs
# `cargo test --workspace -q`: the unit tests inside `crates/*/src`
# (the VM's memory differential test among them) run nowhere else.
# The throughput smoke run exercises the benchmark binary in `--quick`
# mode, which also cross-checks the incremental scheduler kernel against
# the rescan-per-cycle reference kernel on three workloads (the run
# aborts if any counter diverges). The fault-campaign smoke run injects
# every fault class once and fails on any host panic or unexpected
# outcome. Both write their reports to throwaway paths so the committed
# BENCH_*.json files (full budgets) are not clobbered by smoke numbers.
#
# The fuzz smoke runs a bounded differential campaign (200 generated
# programs, fixed seed) through the fast-vs-reference oracle and fails
# on any host panic or divergence; the corpus-replay step reruns every
# minimized reproducer checked into tests/corpus/ through both kernels.
# Both run in normal AND --quick modes — they are the cheapest
# whole-machine bit-identity gates we have.
#
# `--quick` replaces the three-workload throughput smoke with a
# two-workload perf smoke (compress + li) and skips the fault-campaign
# smoke — the fastest loop that still fails the build if the fast kernel
# ever loses bit-identity with the reference kernel (the binary asserts
# identity internally; speedup numbers are reported, not gated).
#
# The sampling smoke runs the interval-sampling driver end-to-end (the
# full-run CPI must land inside the sampled confidence interval), and
# the checkpoint round-trip test proves save/restore/resume is
# bit-identical to continuous simulation, fault injection included.
#
# The benchmark build compiles perfbench (a separate workspace that no
# other step builds) against the current dda-bench API.
#
# The fmt gate keeps the tree `cargo fmt`-clean; the clippy gate bans
# `.unwrap()`/`.expect()` from the hot simulation crates' library code
# (tests and benches are exempt via cfg(test)): every runtime failure
# there must surface as a typed error value.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "usage: scripts/verify.sh [--quick]" >&2; exit 2 ;;
    esac
done

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== workspace tests: cargo test --workspace -q"
cargo test --workspace -q

# A sampled run's back stage (cache warming and detailed windows) runs
# on a helper thread, or inline on the caller when DDA_WORKERS=1. The
# override is read once per process, so the sampling tests run a second
# time under it to cover the inline path.
echo "== sampling tests, inline back stage (DDA_WORKERS=1)"
DDA_WORKERS=1 cargo test -q --test sampling_pipeline --test checkpoint_roundtrip \
    --test kernel_canary
DDA_WORKERS=1 cargo test -q -p dda-bench --lib sampling

echo "== fmt: cargo fmt --check"
cargo fmt --check

echo "== clippy: no unwrap/expect in simulation crates"
cargo clippy -q -p dda-core -p dda-vm -p dda-mem -p dda-program -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

# Block-cache smoke: one loop-heavy and one call-heavy program replayed
# through the translation cache and cross-checked instruction-for-
# instruction against the interpretive front-end (final state included).
echo "== block-cache smoke (loop-heavy + call-heavy vs interpreter)"
cargo test --release -q --test block_cache quick_smoke

# Differential-fuzz smoke: 200 seeded generated/mutated programs through
# fast vs reference with the auditor armed; the binary exits nonzero on
# any host panic or (unminimized) divergence. Runs in both modes.
echo "== differential-fuzz smoke (200 programs, fixed seed)"
cargo run --release -q -p dda-bench --bin fuzz -- \
    --quick --seed 3405695742 \
    --out target/BENCH_fuzz_smoke.json --corpus target/fuzz_corpus_smoke

# Corpus replay: every checked-in minimized reproducer re-assembles and
# reruns through both kernels (and planted-* entries must still
# reproduce their defect when it is armed). real-* entries are the
# hand-written quicksort/matmul/tak programs with verified answers.
echo "== corpus replay (tests/corpus/)"
cargo test --release -q --test corpus_replay

# Sampling smoke: the interval-sampling driver in --quick mode — the
# full-run CPI must land inside the sampled confidence interval or the
# binary exits nonzero.
echo "== sampling smoke (--quick)"
cargo run --release -q -p dda-bench --bin sampling -- \
    --quick --out target/BENCH_sampling_smoke.json

# Checkpoint round-trip: save -> serialize -> restore -> run must be
# bit-identical to continuous simulation, fault injection included.
echo "== checkpoint round-trip (tests/checkpoint_roundtrip.rs)"
cargo test --release -q --test checkpoint_roundtrip

# Benchmark build: perfbench is its own workspace, so the tier-1 and
# workspace steps never compile it. Building it here catches a dda-bench
# API change that would otherwise break the benchmark silently.
echo "== benchmark build (perfbench)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

if [ "$QUICK" = 1 ]; then
    # Perf smoke: two workloads, one rep. The binary itself asserts the
    # fast kernel is bit-identical to the reference kernel (serially and
    # through the sweep pool) and exits nonzero on any divergence;
    # speedups are reported in the log, not gated here.
    echo "== perf smoke (--quick: compress + li)"
    cargo run --release -q -p dda-bench --bin throughput -- \
        --quick --workloads compress,li --reps 1 \
        --out target/BENCH_throughput_smoke.json
else
    echo "== throughput smoke (--quick)"
    cargo run --release -q -p dda-bench --bin throughput -- \
        --quick --out target/BENCH_throughput_smoke.json

    echo "== fault-campaign smoke (--quick)"
    cargo run --release -q -p dda-bench --bin faults -- \
        --quick --out target/BENCH_faults_smoke.json
fi

echo "== verify OK"
