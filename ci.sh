#!/usr/bin/env bash
# Hermetic CI: the workspace must build and test fully offline, and no
# crate manifest may reintroduce a registry dependency.
set -euo pipefail
cd "$(dirname "$0")"

echo "== checking crate manifests for registry dependencies =="
# Path-only policy: every dependency line must be a workspace/path dep.
if grep -rn "rand\|proptest\|criterion\|crossbeam\|parking_lot\|serde" crates/*/Cargo.toml; then
    echo "error: registry dependency found in a crate manifest" >&2
    exit 1
fi
if grep -n "version *= *\"[0-9]" crates/*/Cargo.toml | grep -v "version.workspace"; then
    echo "error: versioned (registry) dependency found in a crate manifest" >&2
    exit 1
fi
echo "ok: path-only dependencies"

echo "== offline release build =="
cargo build --release --offline --workspace --bins --benches --examples

echo "== offline test suite =="
cargo test -q --offline --workspace

echo "== parallel-runner determinism under PARD_THREADS=2 =="
# The suite asserts figure output is byte-identical across thread counts;
# run it with a constrained pool to exercise the scheduling seams too.
# fleet_trace compares a traced, fault-injected fleet at the ambient pool
# size (2 here) against 1 and 4 workers.
PARD_THREADS=2 cargo test -q --offline -p pard-bench --test determinism --test fleet_trace

echo "== event-queue / kernel events-per-sec smoke =="
# Must run to completion, write BENCH_kernel.json (kernel perf record),
# and pass the perf gate: dense-regime ladder speedups >= 1.0x, a
# recorded stats_record_mops, and — via PARD_BENCH_BASELINE — the fresh
# kernel-through-MemCtrl rate within 5% of the committed record, so the
# policy layer on the serve path cannot silently tax the kernel
# (--check exits non-zero otherwise). The committed record is snapshotted
# aside first because the bench rewrites BENCH_kernel.json in place.
baseline="$(mktemp)"
if [ -s BENCH_kernel.json ]; then
    cp BENCH_kernel.json "$baseline"
    export PARD_BENCH_BASELINE="$baseline"
fi
rm -f BENCH_kernel.json
cargo bench --offline -p pard-bench --bench event_queue -- --quick --check
unset PARD_BENCH_BASELINE
rm -f "$baseline"
if [ ! -s BENCH_kernel.json ]; then
    echo "error: event_queue bench did not write BENCH_kernel.json" >&2
    exit 1
fi
if ! grep -q '"stats_record_mops"' BENCH_kernel.json; then
    echo "error: BENCH_kernel.json is missing stats_record_mops" >&2
    exit 1
fi
if ! grep -q '"trace_store"' BENCH_kernel.json; then
    echo "error: BENCH_kernel.json is missing the trace_store record" >&2
    exit 1
fi
echo "ok: BENCH_kernel.json written (perf gate passed)"

echo "== trace+audit smoke: strict-audited fig07 emits clean JSONL =="
# Run in a scratch cwd so the figure's JSON dump cannot clobber the
# committed fig07.json; then schema-validate the trace and demand the
# instrumented layers all show up with the right DS attribution. The run
# is strict-audited: any invariant violation panics the figure binary,
# and the report file must validate clean. Finally the offline auditor
# replays the trace and re-derives the clock and IDE-quota invariants
# (sound here: fig07 is a single-machine, single-threaded run).
repo="$PWD"
scratch="$(mktemp -d)"
(
    cd "$scratch"
    PARD_TRACE=trace.jsonl PARD_AUDIT=strict PARD_AUDIT_FILE=audit.jsonl \
        "$repo/target/release/fig07" --quick >/dev/null
    "$repo/target/release/pard-trace" --check trace.jsonl \
        --require kernel,llc,dram,ide,trigger,prm
    "$repo/target/release/pard-audit" --check audit.jsonl
    "$repo/target/release/pard-audit" --replay trace.jsonl
    # Same figure through the durable paged binary store (`.ptr` sink):
    # both offline tools must accept the binary file directly — format is
    # sniffed by magic — and re-derive the same invariants from it.
    PARD_TRACE=trace.ptr PARD_AUDIT=strict \
        "$repo/target/release/fig07" --quick >/dev/null
    "$repo/target/release/pard-trace" --check trace.ptr \
        --require kernel,llc,dram,ide,trigger,prm
    "$repo/target/release/pard-audit" --replay trace.ptr
)
rm -rf "$scratch"
echo "ok: audited fig07 passes pard-trace --check and pard-audit --check/--replay (both sinks)"

echo "== fig08 golden: default-scale run is byte-identical to the committed JSON =="
# Fig. 8 is the figure whose golden went stale once (a truncating
# duration-scale bug); regenerate it at default scale and demand byte
# identity so drift can never land silently again. (~3 min.)
scratch="$(mktemp -d)"
(
    cd "$scratch"
    "$repo/target/release/fig08" >/dev/null
    cmp fig08.json "$repo/fig08.json"
)
rm -rf "$scratch"
echo "ok: fig08.json reproduced byte-identically"

echo "== fig_fault golden: strict-audited default-scale run matches committed JSON =="
# The resilience figure runs with the audit layer in strict mode: any
# packet-conservation or firing-soundness violation aborts the binary,
# proving the fault hooks degrade service without ever un-conserving
# work. The JSON must also reproduce the committed golden byte-for-byte
# (the fault schedule and recovery trigger are fully deterministic).
scratch="$(mktemp -d)"
(
    cd "$scratch"
    PARD_AUDIT=strict "$repo/target/release/fig_fault" >/dev/null
    cmp fig_fault.json "$repo/fig_fault.json"
)
rm -rf "$scratch"
echo "ok: fig_fault.json reproduced byte-identically under strict audit"

echo "== fig09/fig10 goldens: single-machine timelines match committed JSON at PARD_THREADS=4 =="
# Each figure is one machine's timeline on the sequential kernel. The
# committed goldens were generated at PARD_THREADS=1; regenerating them
# at PARD_THREADS=4 under strict audit proves the timeline does not
# depend on the pool size and conserves every packet while doing it.
scratch="$(mktemp -d)"
(
    cd "$scratch"
    PARD_THREADS=4 PARD_AUDIT=strict "$repo/target/release/fig09" >/dev/null
    PARD_THREADS=4 PARD_AUDIT=strict "$repo/target/release/fig10" >/dev/null
    cmp fig09.json "$repo/fig09.json"
    cmp fig10.json "$repo/fig10.json"
)
rm -rf "$scratch"
echo "ok: fig09.json and fig10.json reproduced byte-identically under strict audit"

echo "== policy-demo goldens: fig_wfq/fig_slo match committed JSON at PARD_THREADS=4 =="
# Both demos run entirely through the programmable policy layer: fig_wfq
# installs the WFQ rank program on the memory controller, fig_slo loads a
# token-bucket admission program onto the I/O bridge mid-run via
# `pardpolicy`. Strict audit + byte identity pins the compiled-program
# data path the same way the built-in figures pin the default path.
scratch="$(mktemp -d)"
(
    cd "$scratch"
    PARD_THREADS=4 PARD_AUDIT=strict "$repo/target/release/fig_wfq" >/dev/null
    PARD_THREADS=4 PARD_AUDIT=strict "$repo/target/release/fig_slo" >/dev/null
    cmp fig_wfq.json "$repo/fig_wfq.json"
    cmp fig_slo.json "$repo/fig_slo.json"
)
rm -rf "$scratch"
echo "ok: fig_wfq.json and fig_slo.json reproduced byte-identically under strict audit"

echo "== fig_fleet golden: federated-fleet sweep matches committed JSON at PARD_THREADS=4 =="
# The rack-scale consolidation sweep runs three whole machines in
# parallel per epoch and re-shards/migrates tenants between epochs; the
# golden pins the whole federation — parallel machine stepping, seeded
# load-balancer splits, calibrated escalation triggers, and the manager's
# serialized reactions — to one byte-exact document at any thread count.
scratch="$(mktemp -d)"
(
    cd "$scratch"
    PARD_THREADS=4 PARD_AUDIT=strict "$repo/target/release/fig_fleet" >/dev/null
    cmp fig_fleet.json "$repo/fig_fleet.json"
)
rm -rf "$scratch"
echo "ok: fig_fleet.json reproduced byte-identically under strict audit"

echo "== golden-coverage gate: every committed fig*.json is documented in EXPERIMENTS.md =="
# A golden that CI compares against but no document explains is how
# stale figures survive reviews: every committed fig*.json at the repo
# root must appear (by file name) in EXPERIMENTS.md's figure table.
missing=0
for golden in fig*.json; do
    if ! grep -q "$golden" EXPERIMENTS.md; then
        echo "error: $golden is committed but never mentioned in EXPERIMENTS.md" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ]
echo "ok: every committed golden is documented in EXPERIMENTS.md"

echo "== operations doc gate: every PARD_* env var is documented =="
# OPERATIONS.md is the single reference for runtime knobs; any PARD_*
# name referenced in the source tree must have an entry there.
undocumented=0
for var in $(grep -rhoE 'PARD_[A-Z][A-Z_0-9]*' crates/ --include='*.rs' | sort -u); do
    if ! grep -q "$var" OPERATIONS.md; then
        echo "error: $var is used in crates/ but missing from OPERATIONS.md" >&2
        undocumented=1
    fi
done
[ "$undocumented" -eq 0 ]
echo "ok: all PARD_* env vars documented in OPERATIONS.md"

echo "== rustdoc gate: no documentation warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace >/dev/null
echo "ok: cargo doc clean"

echo "CI green"
