#!/usr/bin/env python3
"""CI perf-regression guard: compare a fresh xheal_run report against
checked-in per-scenario baselines (tools/perf_floors.json) with a generous
2x tolerance, failing loudly on any violation. `xheal_run run --json` and
`xheal_run batch --json` write one schema (xheal-report-v1): a
report-level "jobs" count and "results" rows keyed by scenario.

The bounds enforced for each scenario named in the floors file (every
baseline key is optional — a baseline may guard timing, billing, or both):

    steps_per_sec        >= baseline / tolerance         (throughput floor)
    probe_ms_per_sample  <= baseline * tolerance + grace (probe cost ceiling)

    messages / deletions <= max_messages_per_delete      (Theorem 5 bill)
    rounds / deletions   <= max_rounds_per_delete
    retries / deletions  <= max_retries_per_delete

plus optional hard_* acceptance criteria that tighten the derived timing
bound when stricter (dex-scale must hold >=10k steps/sec and <=150
ms/sample no matter what the baseline drifts to). The billing ceilings are
Theorem-5-shaped amortized costs: a distributed-protocol change that
inflates the per-deletion message/round/retry bill past the pinned ceiling
fails CI even when wall-clock throughput is unchanged. Scenarios present
in the bench report but absent from the floors file are listed as
unguarded; scenarios named with --only that are missing from the report
are an error (the guard must never silently pass because the run it
guards did not happen).

The report-level "jobs" count is the batch worker pool size (always 1 for
run reports); a report without one counts as jobs=1. Timing baselines were pinned at a specific worker count — a
machine running N specs concurrently shows per-spec throughput jitter that
has nothing to do with code regressions — so every baseline carries its
own "jobs" key (default 1) and its TIMING bounds are only enforced
like-for-like: when the report's jobs differs from the baseline's, the
timing checks are skipped with a note. The billing counters are
deterministic (same bill at --jobs 1 and --jobs N), so billing ceilings
are enforced regardless of worker count. Naming a scenario with --only
whose every bound would be skipped is an error, same as a missing row:
the guard must not silently pass on a mismatched run.

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

BILLING_KEYS = {
    "max_messages_per_delete": "messages",
    "max_rounds_per_delete": "rounds",
    "max_retries_per_delete": "retries",
}


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"check_perf_floors: cannot read {path}: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="fresh xheal_run run/batch --json report "
                                      "to check")
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
    report_jobs = int(bench.get("jobs", 1))

    rows = {row.get("scenario"): row for row in bench.get("results", [])}
    if not rows:
        print(f"check_perf_floors: {args.bench} has no results[] rows",
              file=sys.stderr)
        return 1

    selected = args.only if args.only else sorted(baselines)
    failures = []
    unguarded = sorted(name for name in rows if name not in baselines)

    print(f"perf floors: {args.bench} vs {args.floors} "
          f"(tolerance {tolerance:g}x, probe grace {grace:g} ms, "
          f"report jobs {report_jobs})")
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

        base_jobs = int(base.get("jobs", 1))
        has_timing = "steps_per_sec" in base or "probe_ms_per_sample" in base
        has_billing = any(k in base for k in BILLING_KEYS)
        check_timing = has_timing and base_jobs == report_jobs
        if has_timing and not check_timing:
            if args.only and not has_billing:
                failures.append(
                    f"{name}: baseline pinned at jobs={base_jobs} but the "
                    f"report ran at jobs={report_jobs} — not a like-for-like "
                    f"comparison, and --only demands this scenario be "
                    f"guarded")
                continue
            print(f"  - {name:<16} baseline jobs={base_jobs}, report "
                  f"jobs={report_jobs} (timing skipped: not like-for-like)")
        if not has_timing and not has_billing:
            failures.append(f"{name}: baseline carries no bounds at all — "
                            f"pin steps_per_sec/probe_ms_per_sample or a "
                            f"max_*_per_delete ceiling in {args.floors}")
            continue

        ok = True
        pieces = []
        if check_timing:
            sps = float(row.get("steps_per_sec", 0.0))
            sps_floor = float(base.get("steps_per_sec", 0.0)) / tolerance
            if "hard_steps_per_sec_floor" in base:
                sps_floor = max(sps_floor,
                                float(base["hard_steps_per_sec_floor"]))
            # A missing steps_per_sec reads as 0 and trips the floor (loud
            # already); a missing probe_ms_per_sample would read as 0 and
            # sail under the ceiling — call out the schema mismatch instead.
            if "probe_ms_per_sample" in base and \
                    "probe_ms_per_sample" not in row:
                ok = False
                failures.append(
                    f"{name}: probe_ms_per_sample ceiling pinned but the "
                    f"report row has no such field — schema mismatch, "
                    f"refusing to default it to 0")
            pms = float(row.get("probe_ms_per_sample", 0.0))
            pms_ceiling = (float(base.get("probe_ms_per_sample", 0.0))
                           * tolerance + grace)
            if "hard_probe_ms_ceiling" in base:
                pms_ceiling = min(pms_ceiling,
                                  float(base["hard_probe_ms_ceiling"]))
            if sps < sps_floor:
                ok = False
                failures.append(
                    f"{name}: steps_per_sec {sps:.0f} fell under the floor "
                    f"{sps_floor:.0f} (baseline {base.get('steps_per_sec')})")
            if pms > pms_ceiling:
                ok = False
                failures.append(
                    f"{name}: probe_ms_per_sample {pms:.3f} exceeds the "
                    f"ceiling {pms_ceiling:.3f} "
                    f"(baseline {base.get('probe_ms_per_sample')})")
            pieces.append(f"steps/s {sps:>9.0f} (floor {sps_floor:>9.0f})")
            pieces.append(f"probe ms/sample {pms:>8.3f} "
                          f"(ceiling {pms_ceiling:>8.3f})")

        if has_billing:
            # Deterministic counters: enforced at any worker count. The
            # ceilings are per-deletion amortized bills (Theorem 5 shape),
            # so a report with zero deletions cannot vacuously pass — and a
            # row missing a pinned counter field entirely is a schema
            # mismatch, not a zero bill: defaulting it to 0 would let a
            # renamed/dropped field silently disarm the guard.
            if "deletions" not in row:
                ok = False
                failures.append(
                    f"{name}: billing ceiling pinned but the report row has "
                    f"no 'deletions' field — schema mismatch, refusing to "
                    f"default it to 0")
                deletions = 0.0
            else:
                deletions = float(row["deletions"])
            if "deletions" in row and deletions <= 0:
                ok = False
                failures.append(
                    f"{name}: billing ceiling pinned but the report shows 0 "
                    f"deletions — the guarded protocol never ran")
            elif deletions > 0:
                for key, field in BILLING_KEYS.items():
                    if key not in base:
                        continue
                    if field not in row:
                        ok = False
                        failures.append(
                            f"{name}: {key} pinned but the report row has no "
                            f"'{field}' field — schema mismatch, refusing to "
                            f"default it to 0")
                        continue
                    per = float(row[field]) / deletions
                    ceiling = float(base[key])
                    pieces.append(f"{field}/del {per:>7.1f} "
                                  f"(ceiling {ceiling:g})")
                    if per > ceiling:
                        ok = False
                        failures.append(
                            f"{name}: {field} per deletion {per:.2f} exceeds "
                            f"the pinned ceiling {ceiling:g} "
                            f"({row[field]} {field} over "
                            f"{deletions:.0f} deletions)")

        if not row.get("pass", False):
            ok = False
            failures.append(f"{name}: scenario verdict is FAIL in {args.bench}")

        status = "ok" if ok else "FAIL"
        print(f"  - {name:<16} " + "  ".join(pieces) + f"  {status}")

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
