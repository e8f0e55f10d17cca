#!/usr/bin/env python3
"""Paired A/B runner for the fleetbench end-to-end metrics.

Runs two fleetbench binaries — a parent build and a change build — in
alternating pairs on one workload, one pair per seed, and reports for
every end-to-end metric in ``BENCHMARK.json``:

* the median and quartiles ``median [q1, q3]`` of each side;
* the wins: the pairs in which the change was better than the parent;
* the bound check: the change's median may be worse than the parent's
  by at most the metric's ``bound`` (a relative fraction);
* the gain verdict: whether the change is better on at least nine of
  ten pairs *and* its median beats the parent's by more than the
  parent's interquartile range.

The pair order alternates (parent first on even pairs, change first on
odd ones) so that slow drift of the host speed does not favour either
side. Any run that exits non-zero, reports ``correct: false`` or counts
failed ops fails the whole comparison.

With ``--record PATH`` the comparison is also appended to ``PATH`` as
one JSON line; the repo keeps its trajectory in ``BENCH_fleetbench.json``.
A row holds the label, workload, seeds and seconds, the stamp of the
change's first run (machine and fixture shape), and per metric the
parent and change ``[median, q1, q3]``, the wins, the bound check and
the gain verdict. Nothing is recorded when a run fails.

Usage::

    ab_pairs.py --parent PARENT_BIN --change CHANGE_BIN --workload NAME \\
        --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 30 [--benchmark BENCHMARK.json] \\
        [--record BENCH_fleetbench.json --label TEXT]

Exit codes: 0 when every metric stays inside its bound, 1 when at least
one metric breaks its bound or a run fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: Fraction of pairs the change must win for a gain verdict (9 of 10).
GAIN_WIN_FRACTION = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Returns ``(q1, median, q3)`` by linear interpolation between
    order statistics (the ``inclusive`` method: the minimum and maximum
    are the 0th and 100th percentiles)."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def parse_result(stdout: str) -> Dict:
    """Parses fleetbench's result: the last non-empty stdout line, a JSON
    object with ``correct``, ``attempted``, ``failed`` and ``metrics``
    (``{name: {"value": v, "unit": u}}``)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("fleetbench printed nothing")
    result = json.loads(lines[-1])
    for key in ("correct", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"result line lacks {key!r}")
    return result


def parse_stamp(stdout: str) -> Optional[Dict]:
    """fleetbench's ``{"stamp": {...}}`` line (machine and fixture shape),
    or ``None`` when there is none. The workload, seed and commit fields
    are dropped: the record carries the first two itself, and the commit
    is read from the working directory, not from the binary's checkout."""
    for line in stdout.splitlines():
        if line.startswith('{"stamp"'):
            stamp = json.loads(line)["stamp"]
            return {k: v for k, v in stamp.items() if k not in ("workload", "seed", "git_commit")}
    return None


def run_failure(result: Dict) -> str:
    """Why a parsed run does not count, or ``""`` when it does."""
    if result["correct"] is not True:
        return "output check failed"
    if result["failed"] != 0:
        return f"{result['failed']} failed ops"
    return ""


def metric_value(result: Dict, name: str) -> float:
    return float(result["metrics"][name]["value"])


def better(change: float, parent: float, direction: str) -> bool:
    return change > parent if direction == "higher" else change < parent


def summarize(
    pairs: Sequence[Tuple[Dict, Dict]], end_to_end: Sequence[Dict]
) -> List[Dict]:
    """One row per end-to-end metric over ``(parent, change)`` result
    pairs: quartiles of each side, wins, relative median change (positive
    means better), the bound check and the gain verdict."""
    rows = []
    for metric in end_to_end:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        parent = [metric_value(p, name) for p, _ in pairs]
        change = [metric_value(c, name) for _, c in pairs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum(better(c, p, direction) for p, c in zip(parent, change))
        sign = 1.0 if direction == "higher" else -1.0
        delta = sign * (c_med - p_med)
        relative = delta / abs(p_med) if p_med else 0.0
        rows.append(
            {
                "name": name,
                "parent": (p_med, p_q1, p_q3),
                "change": (c_med, c_q1, c_q3),
                "wins": wins,
                "pairs": len(pairs),
                "relative": relative,
                "within_bound": relative >= -bound,
                "gain": wins >= GAIN_WIN_FRACTION * len(pairs) and delta > p_q3 - p_q1,
            }
        )
    return rows


def format_rows(rows: Sequence[Dict]) -> str:
    def side(stats: Tuple[float, float, float]) -> str:
        med, q1, q3 = stats
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    lines = ["metric | parent median [q1, q3] | change median [q1, q3] | wins | change | bound | gain"]
    for row in rows:
        lines.append(
            f"{row['name']} | {side(row['parent'])} | {side(row['change'])} | "
            f"{row['wins']}/{row['pairs']} | {row['relative']:+.1%} | "
            f"{'pass' if row['within_bound'] else 'FAIL'} | {'yes' if row['gain'] else 'no'}"
        )
    return "\n".join(lines)


def run_once(binary: str, workload: str, seed: int, seconds: float) -> Dict:
    command = [
        binary,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{binary} exited {done.returncode}: {done.stderr.strip()}")
    result = parse_result(done.stdout)
    failure = run_failure(result)
    if failure:
        raise RuntimeError(f"{binary} seed {seed}: {failure}")
    result["stamp"] = parse_stamp(done.stdout)
    return result


def run_pairs(
    parent: str, change: str, workload: str, seeds: Sequence[int], seconds: float
) -> List[Tuple[Dict, Dict]]:
    """Runs one alternating pair per seed and returns ``(parent, change)``
    results in seed order."""
    pairs = []
    for i, seed in enumerate(seeds):
        sides = [("parent", parent), ("change", change)]
        if i % 2:
            sides.reverse()
        results = {side: run_once(binary, workload, seed, seconds) for side, binary in sides}
        pairs.append((results["parent"], results["change"]))
        print(f"pair {i + 1}/{len(seeds)} (seed {seed}) done", file=sys.stderr)
    return pairs


def record_row(
    label: Optional[str],
    workload: str,
    seeds: Sequence[int],
    seconds: float,
    pairs: Sequence[Tuple[Dict, Dict]],
    rows: Sequence[Dict],
) -> Dict:
    """The JSON record of one comparison (see the module docs)."""
    return {
        "label": label,
        "workload": workload,
        "seeds": list(seeds),
        "seconds": seconds,
        "pairs": len(pairs),
        "stamp": pairs[0][1].get("stamp") if pairs else None,
        "metrics": {
            row["name"]: {
                "parent": list(row["parent"]),
                "change": list(row["change"]),
                "wins": row["wins"],
                "within_bound": row["within_bound"],
                "gain": row["gain"],
            }
            for row in rows
        },
        "within_bounds": all(row["within_bound"] for row in rows),
    }


def append_record(path: str, row: Dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent fleetbench binary")
    parser.add_argument("--change", required=True, help="change fleetbench binary")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seed list")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"),
        help="BENCHMARK.json declaring the end-to-end metrics and bounds",
    )
    parser.add_argument("--record", help="append the comparison as one JSON line to this file")
    parser.add_argument("--label", help="free-text label of the comparison in the record")
    try:
        args = parser.parse_args(argv)
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except SystemExit:
        return 2
    except ValueError as e:
        print(f"bad --seeds: {e}", file=sys.stderr)
        return 2
    if not seeds:
        print("--seeds is empty", file=sys.stderr)
        return 2
    with open(args.benchmark, "r", encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    try:
        pairs = run_pairs(args.parent, args.change, args.workload, seeds, args.seconds)
    except (OSError, RuntimeError, ValueError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    rows = summarize(pairs, end_to_end)
    print(f"workload {args.workload}, seeds {','.join(map(str, seeds))}, {args.seconds:g} s per run")
    print(format_rows(rows))
    if args.record:
        row = record_row(args.label, args.workload, seeds, args.seconds, pairs, rows)
        try:
            append_record(args.record, row)
        except OSError as e:
            print(f"cannot record to {args.record}: {e}", file=sys.stderr)
            return 1
    return 0 if all(row["within_bound"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
