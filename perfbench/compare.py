"""Compare two sets of stamped benchmark results metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-s<seed>-t<trace>.json`` files that
``perfbench/run.py`` writes to ``perfbench/out/results``.  For every
workload and end-to-end metric it prints both medians and quartiles and
flags a change worse than the metric's bound in ``BENCHMARK.json``.
Results from hosts with different fingerprints (usable CPUs, Python,
NumPy, BLAS) are refused with exit code 2: they measure different
machines.  Exit code 1 means some metric regressed past its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def refuse(message: str) -> None:
    print(f"compare: refusing: {message}", file=sys.stderr)
    raise SystemExit(2)


def load(directory: Path) -> tuple[dict, list[dict]]:
    runs = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*-t0.json"))
    ]
    if not runs:
        refuse(f"no untraced results in {directory}")
    prints = {json.dumps(run["host"], sort_keys=True) for run in runs}
    if len(prints) != 1:
        refuse(f"mixed host fingerprints in {directory}")
    return runs[0]["host"], runs


def by_metric(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        for name, entry in run["metrics"].items():
            values[(run["workload"], name)].append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    base_host, base_runs = load(Path(argv[0]))
    new_host, new_runs = load(Path(argv[1]))
    if base_host != new_host:
        refuse(f"host {base_host} != {new_host}")
    base, new = by_metric(base_runs), by_metric(new_runs)
    status = 0
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        entry = metrics.get(name)
        if entry is None:
            continue
        b_low, b_mid, b_high = quartiles(base[key])
        n_low, n_mid, n_high = quartiles(new[key])
        change = (n_mid - b_mid) / b_mid if b_mid else 0.0
        worse = change if entry["better"] == "lower" else -change
        verdict = "REGRESSED" if worse > entry["bound"] else "ok"
        if verdict != "ok":
            status = 1
        print(
            f"{workload:14} {name:20} base {b_mid:12.5g} [{b_low:.5g}, {b_high:.5g}]"
            f"  new {n_mid:12.5g} [{n_low:.5g}, {n_high:.5g}]"
            f"  {100 * change:+6.1f}% (bound {100 * entry['bound']:.0f}%) {verdict}"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
