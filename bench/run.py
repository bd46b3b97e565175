"""Benchmark of the drbayes simulation harness (``drbayes simulate``).

Usage, from the root of the repository::

    python3 bench/run.py --workload desk_n500 --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  The client calls
``drbayes.cli.main(["simulate", ..., "--threads", "1"])`` in-process, one
chunk of replications per call, back to back until the calls' own time
adds up to ``--seconds``, so the ``cli`` and ``simulation`` layers sit on the
measured path.
Chunk ``k`` simulates with seed ``seed * 10000 + k``, so the inputs are a
function of ``--seed``.  The process-pool path (``--threads`` > 1) is left
out: on a small shared machine its wall-clock scaling measures the
scheduler.

Before measuring, the run imports the program from ``src/`` (and fails if it
is absent), runs the identity self-check and exits 1 if any identity fails.
Every chunk's outputs are checked: the exit code, one record per
(replication, estimator), finite ``point`` and ``se`` on every record
without an error, and the row counts of ``replications.csv`` and
``summary.csv``.  The SHA-256 of the first chunk's two CSV files is compared
with ``bench/baseline.json``; a changed digest is reported, not failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half of
``--seconds`` untraced and half with spans around every layer boundary,
then repeats the first chunk to check that every count repeats exactly, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (replications, and those whose outputs fail a
check) and ``metrics``; the full report, with the
environment record, goes to ``.bench_out/``.  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the program is missing.
"""

import setup_probe  # pins BLAS threads before numpy is imported; keep first

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from spans import Tracer, derived, patched  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = setup_probe.ROOT
OUT_ROOT = ROOT / ".bench_out"
BASELINE = BENCH_DIR / "baseline.json"

SETUP_SAMPLES = 9
# Fixed seed of the warm-up replication, so set-up time does not depend on
# the workload seed.
WARMUP_SEED = 7
CHUNK_SEED_STRIDE = 10_000

ALL_ESTIMATORS = (
    "naive", "adjusted", "iptw", "or_ps_info", "or_ps_sandwich", "dr", "clever",
    "or_iptw", "two_step_forward", "two_step_vardecomp", "joint", "is", "is_dr",
)
# The estimators of the acceptance population fixture (n=5000).
POP_ESTIMATORS = (
    "naive", "adjusted", "iptw", "or_ps_info", "dr", "or_iptw", "joint", "is", "is_dr",
)


@dataclass(frozen=True)
class Workload:
    n: int
    estimators: tuple
    draws: int
    boot: int
    chunk_reps: int

    def sim_kwargs(self, seed, reps):
        return {
            "n": self.n, "reps": reps, "seed": seed, "scenario": "I",
            "estimators": list(self.estimators), "n_draws": self.draws,
            "n_boot": self.boot, "threads": 1,
        }

    def argv(self, seed, out_dir):
        return [
            "simulate", "--scenario", "I", "--n", str(self.n),
            "--reps", str(self.chunk_reps), "--seed", str(seed),
            "--estimators", ",".join(self.estimators),
            "--draws", str(self.draws), "--boot", str(self.boot),
            "--threads", "1", "--out", str(out_dir),
        ]


# Why each workload exists is recorded in BENCHMARK.json.  Chunk sizes make
# one ``simulate`` call last about a second.
WORKLOADS = {
    "desk_n500": Workload(500, ALL_ESTIMATORS, draws=200, boot=200, chunk_reps=5),
    "population_n5000": Workload(5000, POP_ESTIMATORS, draws=50, boot=2, chunk_reps=3),
    "analytic_n500": Workload(
        500, ("naive", "adjusted", "or_ps_info", "or_ps_sandwich"),
        draws=200, boot=200, chunk_reps=200,
    ),
}


def chunk_seed(seed, k):
    return seed * CHUNK_SEED_STRIDE + k


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit():
    """The commit of the checkout, read from ``.git`` without running git;
    None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in setup_probe.THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def probe_setup(kwargs):
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(kwargs)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Set-up samples spread evenly over the timed loop, between chunks.

    On a shared machine the speed changes over seconds; samples taken at
    one moment would all share that moment's load.
    """

    def __init__(self, warmup, first, seconds):
        self.warmup = warmup
        self.seconds = seconds
        self.times = [first]

    def __call__(self, busy):
        if busy >= len(self.times) * self.seconds / SETUP_SAMPLES:
            self.times.append(probe_setup(self.warmup))

    def finish(self):
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(probe_setup(self.warmup))
        return self.times


def selfcheck_failures():
    """Names of the self-check identities that fail."""
    from drbayes.selfcheck import run_selfcheck

    _, results = run_selfcheck()
    return [f"{r.name} (residual {r.residual:.3e})" for r in results if not r.passed]


def _csv_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def check_chunk(workload, code, result, out_dir):
    """Output checks of one ``simulate`` call.

    Returns the problems found and the set of replications whose outputs
    fail a check.  A record that carries an estimator's error is a valid
    output (the simulation reports it and tolerates up to a tenth of them per
    estimator); it is counted in ``ok_frac``, not as a failed replication.
    """
    every_rep = set(range(workload.chunk_reps))
    if code != 0:
        return [f"simulate exited with {code}"], every_rep
    if result is None:
        return ["run_simulation was not called"], every_rep
    problems = []
    failed = set()
    for r in every_rep:
        got = [rec.estimator for rec in result.records if rec.rep == r]
        if got != list(workload.estimators):
            problems.append(f"rep {r}: {len(got)} records, expected one per estimator in order")
            failed.add(r)
    if len(result.records) != len(every_rep) * len(workload.estimators):
        problems.append(f"{len(result.records)} records, expected reps x estimators")
    for rec in result.records:
        if rec.error is None and not (math.isfinite(rec.point) and math.isfinite(rec.se)):
            problems.append(f"rep {rec.rep} {rec.estimator}: non-finite point or se")
            failed.add(rec.rep)
    csv_problems = []
    if _csv_rows(out_dir / "replications.csv") != len(result.records):
        csv_problems.append("replications.csv row count differs from the records")
    if _csv_rows(out_dir / "summary.csv") != len(workload.estimators):
        csv_problems.append("summary.csv row count differs from the estimators")
    if csv_problems:
        failed = every_rep
    return problems + csv_problems, failed


class Phase:
    """Spans of one run of the loop, and the seconds its chunks took."""

    def __init__(self, spans, marks, seconds, chunks):
        self.spans = spans
        self.marks = marks
        self.seconds = seconds
        self.chunks = chunks

    def first_chunk(self):
        return range(self.marks[0], self.marks[1])

    def chunk_seconds(self):
        return [
            (self.spans[self.marks[k]].end - self.spans[self.marks[k]].start) / 1e9
            for k in range(self.chunks)
        ]

    def rep_ms(self):
        return sorted(
            (s.end - s.start) / 1e6 for s in self.spans if s.name == layers.REP_SPAN
        )


class Loop:
    """The closed-loop client: chunks of replications, one call at a time.

    Accumulates the output-check problems, record counts and the first
    chunk's digests over all of its phases.
    """

    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.records = 0
        self.error_records = 0
        self.errors = {}
        self.digests = None
        self.chunks_run = 0
        self._results = []

    def _chunk(self, tracer, k):
        from drbayes import cli

        self.chunks_run = max(self.chunks_run, k + 1)
        argv = self.workload.argv(chunk_seed(self.seed, k), self.out_dir)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = tracer.call(layers.CLI_SPAN, cli.main, (argv,))
        result = self._results.pop() if self._results else None
        problems, failed = check_chunk(self.workload, code, result, self.out_dir)
        self.problems += [f"chunk {k}: {p}" for p in problems]
        self.attempted += self.workload.chunk_reps
        self.failed += len(failed)
        expected = self.workload.chunk_reps * len(self.workload.estimators)
        records = result.records if result is not None else []
        self.records += expected
        self.error_records += max(expected - len(records), 0)
        for rec in records:
            if rec.error is not None:
                self.error_records += 1
                key = f"{rec.estimator}: {rec.error.split(':')[0]}"
                self.errors[key] = self.errors.get(key, 0) + 1
        if k == 0 and self.digests is None and not problems:
            self.digests = {
                name: sha256(self.out_dir / name) for name in ("replications.csv", "summary.csv")
            }

    def phase(self, seconds, traced, between=None):
        """Chunks 0, 1, ... until their own time reaches ``seconds`` (at
        least one chunk).  ``between(busy_seconds)`` runs after every chunk
        but the last, outside the timed total."""
        tracer = Tracer()
        replacements = layers.rep_timing_replacements(tracer, self._results.append)
        if traced:
            replacements += layers.layer_replacements(tracer)
        marks = []
        busy = 0.0
        with patched(replacements):
            while True:
                marks.append(len(tracer.spans))
                self._chunk(tracer, len(marks) - 1)
                call = tracer.spans[marks[-1]]
                busy += (call.end - call.start) / 1e9
                if busy >= seconds:
                    break
                if between is not None:
                    between(busy)
        marks.append(len(tracer.spans))
        return Phase(tracer.spans, marks, busy, len(marks) - 1)


def end_to_end_metrics(phase, setup_times, loop):
    rep_ms = phase.rep_ms()
    return {
        "reps_per_s": (len(rep_ms) / phase.seconds, "1/s"),
        "rep_ms_p50": (statistics.median(rep_ms), "ms"),
        "rep_ms_p90": (statistics.quantiles(rep_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - loop.error_records / loop.records, "fraction"),
    }


def traced_metrics(loop, seconds):
    """Per-layer metrics: half the time untraced, half traced, then the
    first chunk again to check that its counts repeat exactly."""
    plain = loop.phase(seconds / 2, traced=False)
    traced = loop.phase(seconds / 2, traced=True)
    repeat = loop.phase(0, traced=True)
    first = layers.count_signature(traced.spans, traced.first_chunk())
    again = layers.count_signature(repeat.spans, range(len(repeat.spans)))
    if first != again:
        loop.problems.append("per-layer counts differ between two runs of the first chunk")
    for phase in (traced, repeat):
        _, self_times, _ = derived(phase.spans)
        negative = [phase.spans[i].name for i, t in enumerate(self_times) if t < 0]
        if negative:
            loop.problems.append(f"negative self time in spans {sorted(set(negative))}")
    metrics = layers.layer_metrics(traced.spans, range(len(traced.spans)), traced.first_chunk())
    plain_rate = len(plain.rep_ms()) / plain.seconds
    traced_rate = len(traced.rep_ms()) / traced.seconds
    metrics["tracing.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    shares = layers.time_shares(traced.spans, range(len(traced.spans)))
    rates = {"untraced_reps_per_s": plain_rate, "traced_reps_per_s": traced_rate}
    return metrics, shares, traced, rates


def digest_status(workload_name, seed, digests):
    """Compare the first chunk's digests with the recorded baseline."""
    if digests is None:
        return {}
    baseline = {}
    if BASELINE.is_file():
        baseline = json.loads(BASELINE.read_text()).get("digests", {})
    known = baseline.get(workload_name, {}).get(str(seed))
    status = {}
    for name, digest in digests.items():
        if known is None or name not in known:
            status[name] = "no baseline for this seed"
        else:
            status[name] = "match" if known[name] == digest else "changed"
    return status


def print_report(report, metrics, shares):
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for name, status in report["digest_status"].items():
        print(f"digest {name}: {report['digests'][name]} ({status})")
    for error, count in report["record_errors"].items():
        print(f"records with an estimator error, {error}: {count}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<55} {value:>14.6g} {unit}")
    if "rep_samples" in report:
        print(f"rep_ms percentiles over {report['rep_samples']} replications")
    if shares:
        print("self time as a share of replication time (traced):")
        for name, total, own in shares[:15]:
            print(f"  {name:<45} self {100 * own:6.2f}%  total {100 * total:6.2f}%")
        for layer in ("estimators", "glm"):
            top = max((row for row in shares if row[0].startswith(layer + ".")),
                      key=lambda row: row[1], default=None)
            if top:
                print(f"largest {layer} span: {top[0]} ({100 * top[1]:.1f}% of replication time)")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None):
    workloads = workloads or WORKLOADS
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]
    warmup = workload.sim_kwargs(WARMUP_SEED, 2)
    try:
        setup_times = [setup_probe.timed_setup(warmup)]
    except setup_probe.SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    failures = selfcheck_failures()
    if failures:
        print("error: self-check identities failed: " + "; ".join(failures), file=sys.stderr)
        return 1

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT_ROOT / label
    out_dir.mkdir(parents=True, exist_ok=True)
    loop = Loop(workload, args.seed, out_dir)
    report = {"workload": args.workload, "environment": environment(args.seed)}
    shares = None
    if args.trace:
        metrics, shares, traced, rates = traced_metrics(loop, args.seconds)
        report.update(shares=shares, rates=rates)
        (OUT_ROOT / f"{label}-spans.json").write_text(
            json.dumps([s.as_row() for s in traced.spans])
        )
    else:
        sampler = SetupSampler(warmup, setup_times[0], args.seconds)
        phase = loop.phase(args.seconds, traced=False, between=sampler)
        setup_times = sampler.finish()
        metrics = end_to_end_metrics(phase, setup_times, loop)
        report.update(setup_times=setup_times, chunks=phase.chunks, seconds=phase.seconds,
                      rep_samples=len(phase.rep_ms()),
                      chunk_seconds=phase.chunk_seconds())
    report["environment"]["seeds"] = {
        "simulate": [chunk_seed(args.seed, k) for k in range(loop.chunks_run)],
        "warm_up": WARMUP_SEED,
    }
    digests = digest_status(args.workload, args.seed, loop.digests)
    report.update(digests=loop.digests, digest_status=digests, problems=loop.problems,
                  record_errors=loop.errors, records=loop.records,
                  error_records=loop.error_records)
    correct = not loop.problems
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report["result"] = result
    (OUT_ROOT / f"{label}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report, metrics, shares)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
