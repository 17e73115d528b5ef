"""Measure every workload over several seeds and summarise the spread.

    python3 bench/baseline.py --label "commit abc1234, set 1" --out bench/BASELINE.json

For each workload in BENCHMARK.json: one untraced run.py per seed
(0 .. seeds-1), giving the median, quartiles and quartile spread (as a share
of the median) of every end-to-end metric, then one traced run on seed 0 for
the per-layer metrics, exact counts and output digests.  The summary is
printed and, with --out, stored in that JSON file under its label, next to
the sets already there.  Each median is also printed as a change against
every earlier set in the file, beside the metric's bound, so two sets of the
same code can be checked to agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=BENCH.parent, capture_output=True, text=True, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    sets = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    sets.pop(args.label, None)
    summary = {"run_seconds": args.seconds, "seeds": list(range(args.seeds)), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run(workload, seed, args.seconds, 0)[1] for seed in range(args.seeds)]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m["name"]: spread([r["metrics"][m["name"]]["value"]
                                              for r in results])
                           for m in SPEC["end_to_end"]},
        }
        for m in SPEC["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            line = (f"{workload:20s} {m['name']:12s} median {s['median']:.4f} "
                    f"iqr {100 * s['iqr_share']:.2f}% (bound {100 * m['bound']:.0f}%)")
            for label, other in sets.items():
                before = other["workloads"][workload]["end_to_end"][m["name"]]["median"]
                line += f"; {100 * (s['median'] / before - 1):+.2f}% vs {label!r}"
            print(line, flush=True)
        info, traced = run(workload, 0, args.seconds, 1)
        summary["environment"] = info["environment"]
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["counts_seed0"] = info["counts"]
        entry["sha256_seed0"] = info["sha256"]
        summary["workloads"][workload] = entry
    if args.out:
        sets[args.label] = summary
        args.out.write_text(json.dumps(sets, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
