"""Record paired benchmark runs of two checkouts in a BENCH_*.json file.

Usage, from the root of a checkout::

    python3 tools/bench_record.py --side parent=../parent --side change=. \\
        --workload local-solve --seeds 0,1,2,3,4,5,6,7,8,9,41 --out BENCH_13.json

For every seed and workload the script runs, in each checkout,
``python3 perfbench/run.py --workload W --seed S --trace 0`` and keeps the
end-to-end metrics it prints; the run length is the benchmark's own.  Pair
k runs the two sides in the given order for even k and in reverse for odd
k.  The file holds each side's commit, source digest and ``src_lines``
(the line count of ``src/cywbench/*.py``), every run, each side's median
and quartiles per metric, how many pairs the second side won on each
metric (by the direction ``BENCHMARK.json`` gives) and whether that meets
the gain rule: at least nine pairs in ten won and a median difference
larger than the first side's interquartile range.
``--tier1`` also runs the tier-1 tests once in each checkout and records
their wall time, summary line and five slowest tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _git(checkout: Path, *args) -> str:
    out = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip()


def _src_sha256(checkout: Path) -> str:
    """Digest of the program sources, to tie the numbers to the code that ran."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _src_lines(checkout: Path) -> int:
    """Line count of the package, as ``cat src/cywbench/*.py | wc -l`` gives it."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "cywbench").glob("*.py"))


def _run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def _quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _compare(base: list, new: list, lower_better: bool) -> dict:
    """Pairwise wins of ``new`` over ``base`` and the gain rule."""
    sign = 1.0 if lower_better else -1.0
    gains = [sign * (b - n) for b, n in zip(base, new)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    b, n = _quartiles(base), _quartiles(new)
    delta = sign * (b["median"] - n["median"])
    return {"pairs": len(gains), "wins": wins, "losses": losses,
            "ties": len(gains) - wins - losses,
            "median_gain": delta, "base_iqr": b["q3"] - b["q1"],
            "gain_rule_met": wins >= 0.9 * len(gains) and delta > b["q3"] - b["q1"]}


def _tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    out = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.splitlines()
    slow = []
    if any("slowest" in line for line in lines):
        start = next(i for i, line in enumerate(lines) if "slowest" in line) + 1
        slow = [line for line in lines[start:start + 5] if line[:1].isdigit()]
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "slowest": slow}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIR",
                        help="a checkout to run, named; give the baseline, then the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sides = {}
    for spec in args.side:
        name, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--side {spec!r} is not NAME=DIR of a checkout")
        sides[name] = Path(path).resolve()
    if len(sides) != 2:
        parser.error("give two sides, the baseline first")
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    import numpy
    import scipy
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "seeds": seeds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "sides": {name: {"commit": _git(path, "rev-parse", "HEAD"),
                         "uncommitted_changes": bool(_git(path, "status", "--porcelain",
                                                          "src", "perfbench")),
                         "src_sha256": _src_sha256(path),
                         "src_lines": _src_lines(path)}
                  for name, path in sides.items()},
        "workloads": {},
    }
    names = list(sides)
    for workload in args.workload:
        runs = []
        for k, seed in enumerate(seeds):
            for position, name in enumerate(names if k % 2 == 0 else names[::-1]):
                result = _run(sides[name], workload, seed)
                runs.append({"pair": k, "seed": seed, "side": name, "position": position,
                             **result})
                print(f"{workload} seed {seed} {name}: pass_s "
                      f"{result['metrics'].get('pass_s')}", file=sys.stderr)
        summary = {}
        for name in names:
            mine = [r for r in runs if r["side"] == name]
            summary[name] = {m: _quartiles([r["metrics"][m] for r in mine])
                             for m in mine[0]["metrics"]}
            summary[name]["correct"] = all(r["correct"] for r in mine)
            summary[name]["failed"] = sum(r["failed"] for r in mine)
            summary[name]["attempted"] = sum(r["attempted"] for r in mine)
        by_pair = {(r["pair"], r["side"]): r["metrics"] for r in runs}
        comparison = {
            m: _compare([by_pair[k, names[0]][m] for k in range(len(seeds))],
                        [by_pair[k, names[1]][m] for k in range(len(seeds))],
                        lower.get(m, True))
            for m in runs[0]["metrics"]}
        doc["workloads"][workload] = {"runs": runs, "summary": summary,
                                      "comparison": comparison}
    if args.tier1:
        doc["tier1"] = {name: _tier1(path) for name, path in sides.items()}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
