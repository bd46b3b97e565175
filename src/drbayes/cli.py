"""Command-line interface: simulation study, estimation on CSV data, and the
identity self-check.

Exit codes: 0 success, 1 self-check failure, 2 usage or data error.  All
numeric output is written with 17 significant digits so reruns at a fixed
seed are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import (
    ABS_STANDARDIZED,
    ESTIMATOR_LABELS,
    ESTIMATOR_ORDER,
    IDENTITY,
    CovariateSpec,
    Dataset,
    ResamplingConfig,
)
from .numerics import RngStream
from .selfcheck import run_selfcheck
from .simulation import (
    SCENARIOS,
    SimConfig,
    SimulationRow,
    _keep_freed_heap,
    check_tags,
    error_text,
    run_estimators,
    run_simulation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Config-file and manifest keys: the SimConfig field each sets (``out`` sets
# none) and the JSON type its value must have (``estimators`` takes a list
# or a comma-separated string).  Unset keys take SimConfig's defaults.
_CONFIG_FIELDS = {
    "n": ("n", int),
    "reps": ("reps", int),
    "seed": ("seed", int),
    "scenario": ("scenario", str),
    "estimators": ("estimators", None),
    "draws": ("n_draws", int),
    "boot": ("n_boot", int),
    "stabilize": ("stabilize", bool),
    "threads": ("threads", int),
    "out": (None, str),
}
_TYPE_NAMES = {int: "an integer", bool: "a JSON boolean", str: "a JSON string"}


class UsageError(Exception):
    pass


def _num(x):
    """Format a float with 17 significant digits (byte-stable output)."""
    return format(float(x), ".17g")


def _cell(value):
    """One CSV cell: floats via :func:`_num`, booleans as 1/0."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return _num(value) if isinstance(value, float) else str(value)


def _parse_estimators(value):
    """Tags from a list or a comma-separated string, checked by
    :func:`check_tags`; None when ``value`` is unset."""
    if value is None:
        return None
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    tags = [str(t).strip() for t in items if str(t).strip()]
    try:
        check_tags(tags)
    except ValueError as err:
        raise UsageError(str(err))
    return tags


def _load_config_file(path):
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"config file is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object with flat keys")
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        kind = _CONFIG_FIELDS[key][1]
        # type(), not isinstance(): JSON true/false must not pass as 1/0.
        if kind is not None and type(value) is not kind:
            raise UsageError(f"config key {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return raw


def _sim_config_from_args(args):
    """SimConfig and output directory: flags override the config file, which
    overrides SimConfig's defaults."""
    values = _load_config_file(args.config) if args.config else {}
    for key in _CONFIG_FIELDS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    tags = _parse_estimators(values.pop("estimators", None))
    if tags:
        values["estimators"] = tuple(tags)
    out_dir = Path(values.pop("out", "."))
    try:
        config = SimConfig(**{_CONFIG_FIELDS[key][0]: v for key, v in values.items()})
    except ValueError as err:
        raise UsageError(str(err))
    return config, out_dir


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows`` to ``path``, or to stdout when ``path``
    is empty."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_records(path, records, columns):
    """CSV of the dataclass ``records``, one :func:`_cell` per field in
    ``columns``."""
    _write_csv(path, columns, ([_cell(getattr(r, c)) for c in columns] for r in records))


def _text_table(rows):
    header = ["Estimator", "Point", "Bias %", "SD", "SE", "MC err", "Cover %", "Fail"]
    body = [
        [
            ESTIMATOR_LABELS.get(row.estimator, row.estimator),
            f"{row.mean_point:.3f}",
            f"{row.rel_bias_pct:+.1f}",
            f"{row.mc_sd:.3f}",
            f"{row.mean_se:.3f}",
            f"{row.mc_error:.3f}",
            f"{row.coverage_pct:.1f}",
            str(row.n_failed),
        ]
        for row in rows
    ]
    widths = [max(len(r[j]) for r in [header, *body]) for j in range(len(header))]
    lines = [
        r[0].ljust(widths[0]) + "".join("  " + c.rjust(w) for c, w in zip(r[1:], widths[1:]))
        for r in [header, *body]
    ]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def cmd_simulate(args):
    config, out_dir = _sim_config_from_args(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The command owns its process, so it keeps freed heap for reuse; the
    # pool workers set it themselves.
    _keep_freed_heap()
    result = run_simulation(config)

    # replications.csv leaves out the records' error text; summary.csv has
    # every field of SimulationRow.
    _write_records(
        out_dir / "replications.csv", result.records, ["rep", "estimator", "point", "se", "covered"]
    )
    _write_records(
        out_dir / "summary.csv", result.rows, [f.name for f in dataclasses.fields(SimulationRow)]
    )

    failure_counts = {row.estimator: row.n_failed for row in result.rows}
    warnings = [
        f"{tag}: {count} failed replications"
        for tag, count in failure_counts.items()
        if count
    ]
    manifest = {
        "tool": "drbayes",
        "version": __version__,
        "command": "simulate",
        "config": {
            key: getattr(config, field)
            for key, (field, _) in _CONFIG_FIELDS.items()
            if field is not None
        },
        "mc_error_batch_rule": "per estimator: floor(sqrt(successful replications)) batches",
        "elapsed_seconds": result.elapsed_seconds,
        "estimator_failures": failure_counts,
        "warnings": warnings,
        "outputs": ["replications.csv", "summary.csv"],
        "reproducibility": (
            "byte-identical across reruns and worker counts at a fixed BLAS thread count"
        ),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    print(f"scenario {config.scenario}, n={config.n}, reps={config.reps}, seed={config.seed}")
    print(_text_table(result.rows))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _parse_col_spec(value, what):
    """Parse 'a,b,abs:c' into ((name, transform), ...)."""
    cols = []
    if value:
        for token in value.split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("abs:"):
                cols.append((token[4:].strip(), ABS_STANDARDIZED))
            else:
                cols.append((token, IDENTITY))
    for name, _ in cols:
        if not name:
            raise UsageError(f"empty column name in --{what}")
    return cols


def _read_table(path):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise UsageError(f"{path}: empty file")
            rows = list(reader)
    except FileNotFoundError:
        raise UsageError(f"data file not found: {path}")
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return [name.strip() for name in reader.fieldnames], rows


def _column(rows, name, path):
    values = []
    for i, row in enumerate(rows):
        raw = row.get(name)
        if raw is None or str(raw).strip() == "":
            raise UsageError(f"{path}: missing value for column {name!r} in data row {i + 1}")
        try:
            val = float(raw)
        except ValueError:
            raise UsageError(
                f"{path}: non-numeric value {raw!r} for column {name!r} in data row {i + 1}"
            )
        if math.isnan(val) or math.isinf(val):
            raise UsageError(f"{path}: non-finite value for column {name!r} in data row {i + 1}")
        values.append(val)
    return values


def cmd_estimate(args):
    s_cols = _parse_col_spec(args.s_cols, "s-cols")
    b_cols = _parse_col_spec(args.b_cols, "b-cols")
    tags = _parse_estimators(args.estimators) or list(ESTIMATOR_ORDER)
    try:
        cfg = ResamplingConfig(
            n_draws=args.draws, n_boot=args.boot, stabilize=not args.no_stabilize
        )
        rng = RngStream(args.seed)
    except ValueError as err:
        raise UsageError(str(err))

    fieldnames, rows = _read_table(args.data)
    needed = [args.outcome, args.treatment] + [n for n, _ in s_cols + b_cols]
    missing = [n for n in dict.fromkeys(needed) if n not in fieldnames]
    if missing:
        raise UsageError(f"{args.data}: missing columns {missing}; found {fieldnames}")

    y = _column(rows, args.outcome, args.data)
    z = _column(rows, args.treatment, args.data)
    for i, val in enumerate(z):
        if val not in (0.0, 1.0):
            raise UsageError(
                f"{args.data}: treatment column {args.treatment!r} must be 0/1, "
                f"got {val!r} in data row {i + 1}"
            )

    covariate_names = list(dict.fromkeys(n for n, _ in s_cols + b_cols))
    columns = [_column(rows, name, args.data) for name in covariate_names]
    x = np.column_stack(columns) if columns else np.empty((len(y), 0))
    try:
        data = Dataset(y=y, z=z, x=x, column_names=tuple(covariate_names))
        spec = CovariateSpec(
            s_columns=tuple((covariate_names.index(n), t) for n, t in s_cols),
            b_columns=tuple((covariate_names.index(n), t) for n, t in b_cols),
        )
    except ValueError as err:
        raise UsageError(f"{args.data}: {err}")

    outcomes = run_estimators(data, spec, cfg, rng, tags)
    out_rows = []
    for tag in tags:
        res = outcomes[tag]
        if isinstance(res, Exception):
            values, diag = (math.nan,) * 4, {"error": error_text(res)}
        else:
            values, diag = (res.point, res.se, *res.ci), res.diagnostics
        out_rows.append([tag, *map(_num, values), json.dumps(diag, sort_keys=True)])

    header = ["method", "point", "se", "ci_low", "ci_high", "diagnostics"]
    _write_csv(args.out, header, out_rows)
    return EXIT_OK


def cmd_selfcheck(args):
    start = time.perf_counter()
    all_passed, results = run_selfcheck()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status}  {res.name}  (max residual {res.residual:.3e})"
        if not res.passed and res.detail:
            line += f"  [{res.detail}]"
        print(line)
    print(f"{'all checks passed' if all_passed else 'CHECKS FAILED'} "
          f"in {time.perf_counter() - start:.2f}s")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drbayes",
        description="Doubly robust and Bayesian-bootstrap treatment effect estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the simulation study")
    sim.add_argument("--config", help="JSON config file (flags override)")
    sim.add_argument("--scenario", choices=sorted(SCENARIOS))
    sim.add_argument("--n", type=int, help="sample size per replication")
    sim.add_argument("--reps", type=int, help="number of replications")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--estimators", help="comma-separated estimator tags")
    sim.add_argument("--draws", type=int, help="posterior draws per estimator")
    sim.add_argument("--boot", type=int, help="bootstrap resamples per estimator")
    sim.add_argument("--threads", type=int, help="worker processes")
    sim.add_argument("--out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    estp = sub.add_parser("estimate", help="run estimators on a CSV dataset")
    estp.add_argument("--data", required=True, help="CSV file with a header row")
    estp.add_argument("--outcome", required=True, help="outcome column name")
    estp.add_argument("--treatment", required=True, help="binary treatment column name")
    estp.add_argument("--s-cols", default="", help="outcome-model columns, e.g. 'a,b,abs:c'")
    estp.add_argument("--b-cols", default="", help="treatment-model columns")
    estp.add_argument("--estimators", help="comma-separated estimator tags")
    estp.add_argument("--draws", type=int, default=SimConfig.n_draws)
    estp.add_argument("--boot", type=int, default=SimConfig.n_boot)
    estp.add_argument("--seed", type=int, default=SimConfig.seed)
    estp.add_argument("--no-stabilize", action="store_true")
    estp.add_argument("--out", help="output CSV (default: stdout)")
    estp.set_defaults(func=cmd_estimate)

    chk = sub.add_parser("selfcheck", help="run the estimator identity checks")
    chk.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
