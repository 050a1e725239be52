#!/usr/bin/env python3
"""Comparison of two BENCH_kernels.json files (JSONL records).

Usage: compare_bench_json.py BASELINE NEW [--threshold 1.3]
                                          [--fail-threshold PCT]

Matches records on (bench, kernel, shape, density, mode, threads) and warns
when ns_op regressed by more than the --threshold factor. By default the
script always exits 0: the committed baseline was measured on different
hardware, so regressions are a signal to look at, not a gate. Hard perf
gates live in the benches themselves (bench_sparse_kernels /
bench_sparse_backward exit non-zero when fast stops beating reference at
the gated densities). bench_micro's BM_GemmLanes sweep is warn-only here
like every other record: lane scaling is core-count-bound, so a 1-core
runner legitimately shows a flat curve.

Roofline fields (bench_json.h): every record carries "gflops" (the
per-kernel GF/s rate computed from ns_op and the call's FLOP count; 0.0
when a rate is not meaningful) and "threads" (the kernel lane count the
timing ran at — 1 + the Executor thread budget unless the bench swept lane
counts itself). "threads" is part of the match key, so a 4-lane record only
ever compares against the baseline's 4-lane record for the same
kernel/shape; records whose lane counts differ are treated as different
measurements, never as a regression. Baselines written before the field
existed default to threads=1. The gflops rate itself is informational —
the time-based thresholds above remain the comparison signal.

Codec fields (bench_json.h): "enc_bytes" (encoded payload size, diffed like
the memory stamps — growth warns) and "dec_gbps" (decode throughput; a drop
beyond the threshold factor warns, direction inverted because higher is
better). Both warn-only: bench_codec carries its own hard same-host gate.

Serving fields (bench_json.h): "qps" (sustained requests/s — higher is
better, drops warn) and "p50_ms"/"p99_ms" (end-to-end request latency —
lower is better, growth warns). Always warn-only and never counted by
--fail-threshold: absolute serving latency is host- and core-count-bound,
and the hard serving gate (micro-batched QPS >= 2x sequential batch-1)
lives in bench_serving's own exit code.

Records carry provenance stamps ("host", "git_sha" — see bench_json.h);
when both files name a host and they differ, the script prints a prominent
cross-host warning: absolute-time comparisons across hardware are advisory,
and --fail-threshold refuses to gate on them.

The summary line reports how many records matched ("matched N of M"). A
comparison that matched nothing compares nothing, so N = 0 prints a loud
warning, and under --fail-threshold it exits 1 (as does unreadable input).

--fail-threshold PCT turns the comparison into a gate: exit non-zero when
any matched record regressed by more than PCT percent (e.g.
``--fail-threshold 25`` fails on >1.25x ns_op). Intended for same-host
before/after comparisons — e.g. comparing a fresh run against an artifact
from the previous commit on the same runner — NOT for comparing against the
committed cross-host baseline. The CI bench job deliberately omits the flag
and stays warn-only.
"""
import argparse
import json
import sys


def load(path):
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = (rec["bench"], rec["kernel"], rec["shape"],
                   round(rec["density"], 4), rec["mode"],
                   rec.get("threads", 1))
            records[key] = rec
    return records


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=1.3,
                        help="warn when new ns_op > threshold * baseline ns_op")
    parser.add_argument("--fail-threshold", type=float, default=None,
                        metavar="PCT",
                        help="exit non-zero when any record regresses by more "
                             "than PCT percent (default: warn-only)")
    args = parser.parse_args()

    try:
        base = load(args.baseline)
        new = load(args.new)
    except (OSError, ValueError, KeyError) as err:
        print(f"WARN input unreadable ({err}); nothing to compare")
        return 1 if args.fail_threshold is not None else 0

    def stamps(records, field):
        return {rec.get(field) for rec in records.values() if rec.get(field)}

    base_hosts, new_hosts = stamps(base, "host"), stamps(new, "host")
    cross_host = bool(base_hosts and new_hosts and base_hosts != new_hosts)
    if cross_host:
        print(f"WARN cross-host comparison: baseline from {sorted(base_hosts)}, "
              f"new from {sorted(new_hosts)} — absolute-time deltas are advisory")
    base_shas, new_shas = stamps(base, "git_sha"), stamps(new, "git_sha")
    if base_shas and new_shas and base_shas != new_shas:
        print(f"note: comparing git {sorted(base_shas)} -> {sorted(new_shas)}")

    fail_factor = None
    if args.fail_threshold is not None:
        if cross_host:
            print("WARN --fail-threshold ignored: refusing to gate a cross-host "
                  "comparison (rerun both files on one machine to gate)")
        else:
            fail_factor = 1.0 + args.fail_threshold / 100.0

    regressions = improvements = failures = mem_regressions = matched = 0
    for key, rec in sorted(new.items()):
        old = base.get(key)
        if old is None or old["ns_op"] <= 0:
            continue
        matched += 1
        ratio = rec["ns_op"] / old["ns_op"]
        label = "/".join(str(k) for k in key)
        if fail_factor is not None and ratio > fail_factor:
            print(f"FAIL regression {ratio:5.2f}x  {label}  "
                  f"{old['ns_op']:.0f} -> {rec['ns_op']:.0f} ns/op")
            failures += 1
        elif ratio > args.threshold:
            print(f"WARN regression {ratio:5.2f}x  {label}  "
                  f"{old['ns_op']:.0f} -> {rec['ns_op']:.0f} ns/op")
            regressions += 1
        elif ratio < 1.0 / args.threshold:
            improvements += 1
        # Memory stamps (bench_json.h): peak RSS and resident accumulator
        # bytes. Memory is host-comparable, but pre-stamp baselines may lack
        # the fields — diff only when both sides carry them. Always
        # warn-only: RSS includes allocator/runtime noise, and the hard
        # bounded-memory gates live in the benches themselves.
        for field, unit, fmt in (("max_rss_mb", "MB", "%.1f"),
                                 ("acc_bytes", "B", "%.0f"),
                                 ("enc_bytes", "B", "%.0f")):
            ov, nv = old.get(field), rec.get(field)
            if ov is None or nv is None or ov <= 0:
                continue
            mratio = nv / ov
            if mratio > args.threshold:
                print(f"WARN memory {mratio:5.2f}x  {label}  {field} "
                      f"{fmt % ov} -> {fmt % nv} {unit}")
                mem_regressions += 1
        # Codec decode throughput (bench_json.h "dec_gbps"): higher is
        # better, so the warning direction inverts — flag drops beyond the
        # threshold factor. Warn-only like the time fields: the hard
        # same-host GB/s gate lives in bench_codec itself.
        ov, nv = old.get("dec_gbps"), rec.get("dec_gbps")
        if ov is not None and nv is not None and ov > 0 and nv > 0:
            dratio = ov / nv
            if dratio > args.threshold:
                print(f"WARN throughput {dratio:5.2f}x slower  {label}  "
                      f"dec_gbps {ov:.2f} -> {nv:.2f} GB/s")
                mem_regressions += 1
        # Serving triple (bench_json.h): qps is higher-better (invert like
        # dec_gbps); p50/p99 latency are lower-better (diff like ns_op).
        # Warn-only by design — bench_serving gates itself on the batched
        # speedup ratio, which is host-independent; absolute qps/latency
        # here is not.
        ov, nv = old.get("qps"), rec.get("qps")
        if ov is not None and nv is not None and ov > 0 and nv > 0:
            qratio = ov / nv
            if qratio > args.threshold:
                print(f"WARN throughput {qratio:5.2f}x slower  {label}  "
                      f"qps {ov:.1f} -> {nv:.1f} req/s")
                mem_regressions += 1
        for field in ("p50_ms", "p99_ms"):
            ov, nv = old.get(field), rec.get(field)
            if ov is None or nv is None or ov <= 0 or nv <= 0:
                continue
            lratio = nv / ov
            if lratio > args.threshold:
                print(f"WARN latency {lratio:5.2f}x  {label}  {field} "
                      f"{ov:.3f} -> {nv:.3f} ms")
                mem_regressions += 1
    missing = len(base.keys() - new.keys())
    print(f"matched {matched} of {len(new)} record(s): {failures} failure(s), "
          f"{regressions} regression warning(s), "
          f"{mem_regressions} memory warning(s), "
          f"{improvements} improvement(s), "
          f"{missing} baseline record(s) unmatched")
    if matched == 0:
        print("WARN " + "!" * 60)
        print(f"WARN nothing compared: none of the {len(new)} new record(s) matches a "
              f"baseline record on (bench, kernel, shape, density, mode, threads)")
        print("WARN " + "!" * 60)
        if args.fail_threshold is not None:
            print("FAIL: --fail-threshold cannot gate a comparison that matched nothing")
            return 1
    if failures:
        print(f"FAIL: {failures} record(s) regressed beyond "
              f"{args.fail_threshold:.0f}% (--fail-threshold)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
