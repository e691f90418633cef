#!/usr/bin/env python3
"""CI perf-regression guard: compare a fresh xheal_run report against
checked-in per-scenario baselines (tools/perf_floors.json) with a generous
2x tolerance, failing loudly on any violation. `xheal_run run --json`
writes the report (xheal-report-v2): "results" rows keyed by scenario.

The bounds enforced for each scenario named in the floors file:

    steps_per_sec        >= baseline / tolerance         (throughput floor)
    probe_ms_per_sample  <= baseline * tolerance + grace (probe cost ceiling)

plus optional hard_* acceptance criteria that tighten the derived bound
when stricter (dex-scale must hold >=10k steps/sec and <=150 ms/sample no
matter what the baseline drifts to). The floors guard timing only: a
deterministic bound, such as the Theorem 5 bill per deletion, is a spec
`expect` clause and fails the run itself. Scenarios present in the bench
report but absent from the floors file are listed as unguarded; scenarios
named with --only that are missing from the report are an error (the
guard must never silently pass because the run it guards did not happen).

Usage:
    check_perf_floors.py REPORT.json [--floors perf_floors.json]
                         [--only scenario ...]

Exit status 0 when every guarded scenario is within bounds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"check_perf_floors: cannot read {path}: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="fresh xheal_run run --json report to "
                                      "check")
    parser.add_argument(
        "--floors",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "perf_floors.json"),
        help="checked-in baseline file (default: perf_floors.json next to "
             "this script)")
    parser.add_argument(
        "--only", action="append", default=None, metavar="SCENARIO",
        help="check only these scenarios; each must be present in the "
             "bench report (repeatable)")
    args = parser.parse_args()

    bench = load_json(args.bench)
    floors = load_json(args.floors)

    tolerance = float(floors.get("tolerance", 2.0))
    grace = float(floors.get("probe_ms_grace", 0.0))
    baselines = floors.get("scenarios", {})

    rows = {row.get("scenario"): row for row in bench.get("results", [])}
    if not rows:
        print(f"check_perf_floors: {args.bench} has no results[] rows",
              file=sys.stderr)
        return 1

    selected = args.only if args.only else sorted(baselines)
    failures = []
    unguarded = sorted(name for name in rows if name not in baselines)

    print(f"perf floors: {args.bench} vs {args.floors} "
          f"(tolerance {tolerance:g}x, probe grace {grace:g} ms)")
    for name in selected:
        base = baselines.get(name)
        if base is None:
            failures.append(f"{name}: named with --only but has no baseline "
                            f"in {args.floors}")
            continue
        row = rows.get(name)
        if row is None:
            if args.only:
                failures.append(f"{name}: named with --only but missing from "
                                f"{args.bench} — the guarded run did not "
                                f"happen")
            else:
                print(f"  - {name:<16} not in this report (skipped)")
            continue

        ok = True
        sps = float(row.get("steps_per_sec", 0.0))
        sps_floor = float(base["steps_per_sec"]) / tolerance
        if "hard_steps_per_sec_floor" in base:
            sps_floor = max(sps_floor, float(base["hard_steps_per_sec_floor"]))
        # A missing steps_per_sec reads as 0 and trips the floor (loud
        # already); a missing probe_ms_per_sample would read as 0 and sail
        # under the ceiling — call out the schema mismatch instead.
        if "probe_ms_per_sample" not in row:
            ok = False
            failures.append(
                f"{name}: probe_ms_per_sample ceiling pinned but the report "
                f"row has no such field — schema mismatch, refusing to "
                f"default it to 0")
        pms = float(row.get("probe_ms_per_sample", 0.0))
        pms_ceiling = float(base["probe_ms_per_sample"]) * tolerance + grace
        if "hard_probe_ms_ceiling" in base:
            pms_ceiling = min(pms_ceiling, float(base["hard_probe_ms_ceiling"]))
        if sps < sps_floor:
            ok = False
            failures.append(
                f"{name}: steps_per_sec {sps:.0f} fell under the floor "
                f"{sps_floor:.0f} (baseline {base['steps_per_sec']})")
        if pms > pms_ceiling:
            ok = False
            failures.append(
                f"{name}: probe_ms_per_sample {pms:.3f} exceeds the ceiling "
                f"{pms_ceiling:.3f} (baseline {base['probe_ms_per_sample']})")

        if not row.get("pass", False):
            ok = False
            failures.append(f"{name}: scenario verdict is FAIL in {args.bench}")

        status = "ok" if ok else "FAIL"
        print(f"  - {name:<16} steps/s {sps:>9.0f} (floor {sps_floor:>9.0f})  "
              f"probe ms/sample {pms:>8.3f} (ceiling {pms_ceiling:>8.3f})  "
              f"{status}")

    for name in unguarded:
        print(f"  - {name:<16} UNGUARDED — add a baseline to {args.floors}")

    if failures:
        print("\nPERF REGRESSION — the guard failed loudly:", file=sys.stderr)
        for f in failures:
            print(f"  * {f}", file=sys.stderr)
        print(f"\nIf the regression is intentional, re-pin the baselines in "
              f"{args.floors} in the same change and say why.",
              file=sys.stderr)
        return 1
    print("all guarded scenarios within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
