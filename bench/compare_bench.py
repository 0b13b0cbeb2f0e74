#!/usr/bin/env python3
"""Diff two merged bench reports (BENCH_<label>.json from run_bench.sh).

Wall time drifts with the machine, the build, and the moon phase, so it gets
a tolerance: only regressions beyond --time-tolerance (default 10%) are
flagged. Solver counters (picard_iterations, cg_iterations, transient_steps,
fft_calls, ...) are deterministic for a given code + configuration, so ANY
counter increase is flagged — a convergence or algorithmic regression hiding
inside an apparently-fine wall time is exactly what this catches.

Benchmarks present on only one side are reported informationally and are not
failures: PRs add trajectory points. Likewise a guarded counter that only the
candidate reports (a counter newer than the baseline) is listed as new, never
flagged as a regression.

Exit status: 0 = clean, 1 = at least one regression flagged. CI runs this as
an advisory (continue-on-error) step against the previous PR's checked-in
report.

Usage: bench/compare_bench.py BASELINE.json CANDIDATE.json [--time-tolerance 0.10]
"""

import argparse
import json
import sys

# Deterministic solver-effort counters: any increase is a regression.
#
# The authoritative list is the C++ telemetry counter catalog
# (telemetry::guarded_counter_names): run_bench.sh embeds it into each report
# as "solver_counters", and guarded_counters() below takes the union of both
# reports' embedded lists. This tuple is only the fallback for diffing old
# reports generated before the catalog existed.
FALLBACK_SOLVER_COUNTERS = (
    "picard_iterations",
    "picard_iterations_total",
    "cg_iterations",
    "transient_steps",
    "fft_calls",
    "batched_matvecs",
    "newton_iterations",
    "homotopy_steps",
    "outer_iterations",
)


def guarded_counters(base_report, cand_report):
    """Union of the catalog lists both reports embed (order-stable), falling
    back to the hardcoded tuple when neither report carries one."""
    names = []
    for report in (base_report, cand_report):
        for name in report.get("solver_counters", ()):
            if name not in names:
                names.append(name)
    return tuple(names) if names else FALLBACK_SOLVER_COUNTERS


def load(path):
    with open(path) as f:
        report = json.load(f)
    entries = {}
    for suite, benches in report.get("benchmarks", {}).items():
        for bench in benches:
            entries[f"{suite}:{bench['name']}"] = bench
    return report, entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--time-tolerance", type=float, default=0.10,
                        help="allowed fractional real_time growth (default 0.10)")
    args = parser.parse_args()

    base_report, base = load(args.baseline)
    cand_report, cand = load(args.candidate)

    # Span tracing changes what the wall times mean; a traced-vs-untraced
    # diff would report the tracer's own cost as a code regression (or hide
    # one of the same size). Refuse outright. Reports without the stamp
    # (pre-telemetry trajectory points) are treated as untraced.
    base_traced = bool(base_report.get("telemetry_enabled", False))
    cand_traced = bool(cand_report.get("telemetry_enabled", False))
    if base_traced != cand_traced:
        print(f"error: telemetry_enabled mismatch: baseline={base_traced} "
              f"candidate={cand_traced}; re-run the bench with matching "
              "PTHERM_TELEMETRY settings", file=sys.stderr)
        return 2

    for side, report, path in (("baseline", base_report, args.baseline),
                               ("candidate", cand_report, args.candidate)):
        if report.get("build_type") != "Release":
            print(f"warning: {side} {path} is a '{report.get('build_type')}' build; "
                  "wall-time comparison is unreliable", file=sys.stderr)
    if base_report.get("benchmark_library_build_type") != \
       cand_report.get("benchmark_library_build_type"):
        print("warning: benchmark library build types differ between reports",
              file=sys.stderr)

    regressions = []
    improvements = []
    new_counters = []
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    for key in sorted(set(base) & set(cand)):
        b, c = base[key], cand[key]
        if b.get("time_unit") != c.get("time_unit"):
            regressions.append(f"{key}: time_unit changed "
                               f"{b.get('time_unit')} -> {c.get('time_unit')}")
            continue
        bt, ct = b.get("real_time"), c.get("real_time")
        if bt and ct:
            ratio = ct / bt
            if ratio > 1.0 + args.time_tolerance:
                regressions.append(
                    f"{key}: real_time {bt:.4g} -> {ct:.4g} {b['time_unit']} "
                    f"(+{100 * (ratio - 1):.1f}% > {100 * args.time_tolerance:.0f}%)")
            elif ratio < 1.0 - args.time_tolerance:
                improvements.append(
                    f"{key}: real_time {bt:.4g} -> {ct:.4g} {b['time_unit']} "
                    f"({100 * (ratio - 1):.1f}%)")
        for counter in guarded_counters(base_report, cand_report):
            if counter in c and counter not in b:
                new_counters.append(f"{key}: {counter} = {c[counter]:g}")
            elif counter in b and counter in c and c[counter] > b[counter]:
                regressions.append(
                    f"{key}: {counter} {b[counter]:g} -> {c[counter]:g} "
                    "(solver counters must not grow)")

    print(f"compared {len(set(base) & set(cand))} common benchmarks "
          f"({args.baseline} -> {args.candidate})")
    for key in only_base:
        print(f"note: only in baseline: {key}")
    for key in only_cand:
        print(f"note: new in candidate: {key}")
    for line in new_counters:
        print(f"note: new counter: {line}")
    for line in improvements:
        print(f"improved: {line}")
    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for line in regressions:
            print(f"REGRESSION: {line}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
