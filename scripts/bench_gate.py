#!/usr/bin/env python3
"""Bench regression gate: fresh CI measurements vs committed baselines.

Usage: bench_gate.py <ci_kernel.json> <ci_shard.json> [<ci_fleet.json>]

Compares the freshly measured BENCH_kernel/BENCH_shard (and optionally
BENCH_fleet) artifacts against the committed BENCH_kernel.json /
BENCH_shard.json / BENCH_fleet.json at the repo root.
Absolute events/sec is machine-dependent, so the gate checks the
machine-independent quantities instead:

  - the timing wheel's speedup over the heap baseline (median of
    interleaved reps, so runner noise hits both engines equally);
  - the shard coordinator's throughput relative to a bare kernel running
    the same load in the same process (coordination_ratio, also a median
    of interleaved reps);
  - the fully observed sharded cluster run's events-per-wall-second
    relative to its blind twin (observe_overhead: per-shard recorders,
    metrics sampling and the sanitizer all on — the cost of watching);
  - the sharded bench's deterministic event accounting (event, quantum,
    cross-message and idle-quanta counts), which must match the baseline
    exactly — any drift is a determinism regression, not noise;
  - the fleet bench's events-per-client ratio (aggregate events/sec at
    10^5 clients relative to 10^3, cache off): both sides run in one
    process so runner speed cancels, and the ratio falling means
    per-event cost grows with fleet size — the SoA hot path regressing;
  - the fleet bench's per-point simulated event counts, which are
    deterministic and must match the baseline exactly;
  - the fleet bench's resident bytes per client at 10^5 clients, gated
    against an absolute ceiling (6 KiB) rather than the baseline: it is
    a HeapAlloc difference divided by the client count, so it does not
    depend on the runner's speed;
  - the fleet bench's store load ratio (ns per record of NewStore +
    Populate + the first PrimeCache at 2^16 records relative to 2^12,
    same process, interleaved; lower is better), gated against the
    committed baseline like the other ratios: a loader that walks its
    own full table's probe chains, which grow with the table, pays them
    on every record, and the ratio rises. It read 2.5-3.1 while each
    chain was walked once and 0.7-1.0 since the next-free table walks
    none.

A ratio more than 20% worse than its baseline fails. Refresh the
committed baselines deliberately (rerun the TestWrite*BenchJSON hooks)
when the kernels genuinely change.
"""
import json
import sys

FLOOR = 0.8  # higher-is-better ratios fail on >20% regression
CEILING = 1.2  # lower-is-better ratios likewise
MAX_BYTES_PER_CLIENT = 6144  # resident state per tenant at 10^5 clients


def gate(name, got, want):
    print(f"{name}: {got:.3f} (baseline {want:.3f}, floor {FLOOR * want:.3f})")
    if got < FLOOR * want:
        sys.exit(f"FAIL: {name} regressed >20%: {got:.3f} < {FLOOR:.1f}*{want:.3f}")


def gate_lower(name, got, want):
    print(f"{name}: {got:.3f} (baseline {want:.3f}, ceiling {CEILING * want:.3f})")
    if got > CEILING * want:
        sys.exit(f"FAIL: {name} regressed >20%: {got:.3f} > {CEILING:.1f}*{want:.3f}")


def main():
    ci_kernel_path, ci_shard_path = sys.argv[1], sys.argv[2]
    base_k = json.load(open("BENCH_kernel.json"))
    base_s = json.load(open("BENCH_shard.json"))
    ci_k = json.load(open(ci_kernel_path))
    ci_s = json.load(open(ci_shard_path))

    gate("wheel-vs-heap speedup", ci_k["speedup"], base_k["speedup"])
    gate("shard coordination ratio", ci_s["coordination_ratio"],
         base_s["coordination_ratio"])
    gate("observe overhead", ci_k["observe_overhead"],
         base_k["observe_overhead"])

    for f in ("events", "shards", "quanta", "cross_messages"):
        if ci_s[f] != base_s[f]:
            sys.exit(f"FAIL: sharded bench determinism drift: "
                     f"{f} {ci_s[f]} != baseline {base_s[f]}")
    for p, bp in zip(ci_s["points"], base_s["points"]):
        if p["idle_quanta_total"] != bp["idle_quanta_total"]:
            sys.exit(f"FAIL: idle quanta drift at workers={p['workers']}: "
                     f"{p['idle_quanta_total']} != {bp['idle_quanta_total']}")

    if len(sys.argv) > 3:
        base_f = json.load(open("BENCH_fleet.json"))
        ci_f = json.load(open(sys.argv[3]))
        gate("fleet events-per-client ratio", ci_f["events_per_client_ratio"],
             base_f["events_per_client_ratio"])
        gate_lower("store load ratio", ci_f["store_load_ratio"],
                   base_f["store_load_ratio"])
        for p, bp in zip(ci_f["points"], base_f["points"]):
            if (p["clients"], p["qp_cache"]) != (bp["clients"], bp["qp_cache"]):
                sys.exit(f"FAIL: fleet bench point mismatch: "
                         f"{p['clients']}/{p['qp_cache']} != "
                         f"{bp['clients']}/{bp['qp_cache']}")
            if p["events"] != bp["events"]:
                sys.exit(f"FAIL: fleet bench determinism drift at "
                         f"clients={p['clients']} qp_cache={p['qp_cache']}: "
                         f"{p['events']} events != baseline {bp['events']}")
            if p["clients"] >= 100_000:
                print(f"fleet bytes/client at {p['clients']} clients "
                      f"(qp_cache={p['qp_cache']}): {p['bytes_per_client']:.0f} "
                      f"(ceiling {MAX_BYTES_PER_CLIENT})")
                if p["bytes_per_client"] > MAX_BYTES_PER_CLIENT:
                    sys.exit(f"FAIL: {p['bytes_per_client']:.0f} resident bytes "
                             f"per client at clients={p['clients']} "
                             f"qp_cache={p['qp_cache']} exceed "
                             f"{MAX_BYTES_PER_CLIENT}")

    print("bench gate passed")


if __name__ == "__main__":
    main()
