"""Collect sets of benchmark runs, derive bounds, and compare two trees.

    python3 bench/calibrate.py collect --seeds 1-10 --out SET.json
        [--workload W,..] [--seconds T] [--src PATH]
    python3 bench/calibrate.py bounds SET.json [SET.json ...]
    python3 bench/calibrate.py check SET1.json SET2.json
    python3 bench/calibrate.py compare --parent SRC --change SRC
        --workload W [--seeds 1-10] [--seconds T]

``collect`` runs ``run.py --trace 0`` once per workload and seed and keeps
every end-to-end value.  ``bounds`` applies the bound rule: for each
metric, ``max(floor, 3 x the widest relative IQR)`` over every workload
and set, and ``setup_s`` takes the largest bound.  ``check`` tests two
sets against the bounds in ``BENCHMARK.json``: each spread within the
bound (a third of it is the aim) and no median of the second set worse
than the first's by more than the bound.  ``compare`` runs alternating
parent/change pairs on one workload, one seed per pair, and applies the
gain and no-regression rules of README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from measure import BOUND_CAP, derive_bound, regressed, relative_iqr  # noqa: E402
from run import END_TO_END, REPO_ROOT  # noqa: E402
from cells import WORKLOADS  # noqa: E402

#: Smallest bound a metric may get, by metric (others: host time).
FLOORS = {"setup_s": 0.15, "peak_rss_mb": 0.05}
HOST_TIME_FLOOR = 0.10


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,9"`` -> seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float,
             src: Optional[Path]) -> Dict[str, object]:
    """One ``run.py --trace 0`` run: its metrics, correctness and wall time."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    if src is not None:
        command += ["--src", str(src)]
    start = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "correct": result["correct"], "failed": result["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric] for run in runs
            if run["workload"] == workload]


def load(path: Path) -> List[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def cmd_collect(args) -> int:
    runs = []
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.src)
            runs.append(run)
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s, "
                  f"correct={run['correct']}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seconds": args.seconds, "runs": runs},
                                   indent=1) + "\n", encoding="utf-8")
    return 0 if all(run["correct"] for run in runs) else 1


def cmd_bounds(args) -> int:
    sets = [load(path) for path in args.sets]
    bounds: Dict[str, float] = {}
    for metric in END_TO_END:
        spreads = [relative_iqr(values(runs, workload, metric))
                   for runs in sets for workload in WORKLOADS
                   if values(runs, workload, metric)]
        bounds[metric] = derive_bound(
            spreads, FLOORS.get(metric, HOST_TIME_FLOOR))
        capped = " (capped)" if 3 * max(spreads) > BOUND_CAP else ""
        print(f"{metric:16s} widest spread {max(spreads):.4f} -> "
              f"bound {bounds[metric]}{capped}")
    bounds["setup_s"] = max(bounds.values())
    print(json.dumps(bounds))
    return 0


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cmd_check(args) -> int:
    first, second = load(args.sets[0]), load(args.sets[1])
    ok = True
    for metric in load_spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in WORKLOADS:
            a, b = values(first, workload, name), values(second, workload, name)
            if not a or not b:
                continue
            spreads = [relative_iqr(a), relative_iqr(b)]
            drift = statistics.median(b) / statistics.median(a) - 1.0
            worse = regressed(metric["better"], bound, statistics.median(a),
                              statistics.median(b))
            too_wide = name != "setup_s" and max(spreads) > bound
            ok &= not (worse or too_wide)
            flag = ("WORSE" if worse else "WIDE" if too_wide
                    else "aim" if max(spreads) > bound / 3 else "ok")
            print(f"{workload:13s} {name:15s} bound {bound:.3f} spreads "
                  f"{spreads[0]:.4f} {spreads[1]:.4f} drift {drift:+.4f} "
                  f"{flag}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    bounds = {metric["name"]: metric["bound"] for metric in load_spec()["end_to_end"]}
    pairs = []
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = [("parent", args.parent), ("change", args.change)]
        if index % 2:
            order.reverse()
        pairs.append({side: run_once(args.workload, seed, args.seconds, src)
                      for side, src in order})
    regressions = 0
    for name, (_unit, better) in END_TO_END.items():
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, mid, q3 = statistics.quantiles(parent, n=4)
        median = statistics.median(change)
        if regressed(better, bounds[name], mid, median):
            verdict = "REGRESSION"
            regressions += 1
        elif wins >= 0.9 * len(pairs) and sign * (median - mid) > q3 - q1:
            verdict = "gain"
        elif (q3 - q1) / mid > bounds[name] and not all(
                sign * (c - p) > 0 for c in change for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"{name:15s} parent {mid:.6g} [{q1:.6g}, {q3:.6g}]  change "
              f"{median:.6g}  wins {wins}/{len(pairs)}  {verdict}")
    correct = all(pair[side]["correct"] for pair in pairs for side in pair)
    return 0 if correct and not regressions else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect")
    collect.add_argument("--seeds", default="1-10")
    collect.add_argument("--workload", default=",".join(WORKLOADS))
    collect.add_argument("--seconds", type=float)
    collect.add_argument("--src", type=Path)
    collect.add_argument("--out", type=Path, required=True)
    sub.add_parser("bounds").add_argument("sets", nargs="+", type=Path)
    sub.add_parser("check").add_argument("sets", nargs=2, type=Path)
    compare = sub.add_parser("compare")
    compare.add_argument("--parent", type=Path, required=True)
    compare.add_argument("--change", type=Path, required=True)
    compare.add_argument("--workload", required=True, choices=WORKLOADS)
    compare.add_argument("--seeds", default="1-10")
    compare.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.command == "collect":
        args.workloads = args.workload.split(",")
    if args.command in ("collect", "compare") and args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return {"collect": cmd_collect, "bounds": cmd_bounds, "check": cmd_check,
            "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
