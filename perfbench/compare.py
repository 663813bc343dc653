"""Compare benchmark reports of a base and a changed commit.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds reports that ``run.py`` wrote to
``.perfbench/results/``, typically one per seed.  For every workload and
metric the script prints the median over each side's reports, the quartile
spread of the base side, the relative change and, for end-to-end metrics,
whether the change stays within the bound fixed in ``BENCHMARK.json``.

Reports from different environments (Python, numpy, scipy, CPU model, core
count, BLAS thread settings) are not comparable: the script names every
difference and exits with code 3 instead of mixing them silently.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "numpy", "scipy", "nproc", "cpu_model", "blas_threads")


def load(directory: str) -> dict[tuple, list[dict]]:
    groups: dict[tuple, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        report = json.loads(path.read_text())
        key = (report["workload"], report["trace"], report["smoke"])
        groups.setdefault(key, []).append(report)
    return groups


def environment_differences(reports: list[dict]) -> list[str]:
    diffs = []
    for key in ENV_KEYS:
        values = {json.dumps(r["environment"].get(key), sort_keys=True) for r in reports}
        if len(values) > 1:
            diffs.append(f"{key}: {' vs '.join(sorted(values))}")
    return diffs


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[1]), load(argv[2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    everything = [r for groups in (base, new) for rs in groups.values() for r in rs]
    diffs = environment_differences(everything)
    for d in diffs:
        print(f"ENVIRONMENT DIFFERS {d}")

    for key in sorted(set(base) & set(new)):
        workload, trace, smoke = key
        print(f"\n{workload} trace={trace}{' smoke' if smoke else ''}: "
              f"{len(base[key])} base vs {len(new[key])} new reports")
        for name, metric in new[key][0]["metrics"].items():
            b = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[key]]
            if not b:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            verdict = ""
            if name in e2e:
                worse = change if e2e[name]["better"] == "lower" else -change
                verdict = "REGRESSION" if worse > e2e[name]["bound"] else "within bound"
            print(f"  {name:38s} {mb:<12.6g} -> {mn:<12.6g} {metric['unit']:6s} "
                  f"{change:+8.2%}  base spread {quartile_spread(b):.2%}  {verdict}")
    return 3 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
