"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, and prints
for each end-to-end metric the median, the quartiles and the spread
``(q3 - q1) / median`` (quartiles as ``statistics.quantiles(values, n=4)``
gives them), next to the metric's bound from ``BENCHMARK.json``.  From the
root of the repository::

    python3 bench/spread.py --workload desk_n500 --seeds 0-9

With ``--record``, the medians, quartiles and the first chunk's output
digests per seed are stored in ``bench/baseline.json`` under the workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--record", action="store_true", help="store in bench/baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    digests = {}
    environment = None
    for seed in parse_seeds(args.seeds):
        result, report = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: checks failed: {report['problems']}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        digests[str(seed)] = report["digests"]
        environment = report["environment"]
        print(f"seed {seed}: " + " ".join(
            f"{name}={vals[-1]:.6g}" for name, vals in values.items()), flush=True)

    summary = {}
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median if median else 0.0
        flag = "" if spread < metric["bound"] / 3 else "  above a third of the bound"
        print(f"{name:<14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{metric['bound']:>6}{flag}")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": metric["unit"], "values": values[name]}

    if args.record:
        path = BENCH_DIR / "baseline.json"
        baseline = json.loads(path.read_text()) if path.is_file() else {}
        for key in ("seed", "seeds"):
            environment.pop(key, None)
        baseline.setdefault("environment", environment)
        baseline.setdefault("run_seconds", seconds)
        baseline.setdefault("metrics", {})[args.workload] = summary
        baseline.setdefault("digests", {})[args.workload] = digests
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
