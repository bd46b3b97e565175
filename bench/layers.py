"""Layer boundaries of drbayes and the per-layer metrics computed from them.

Each boundary wraps a public function under the name its caller looks it
up by (``drbayes.estimators.fit_logistic_weighted_many``, not only
``drbayes.glm``), so traced runs execute the same library code as untraced
ones.  Layers are the modules of ``src/drbayes``: ``cli``, ``simulation``,
``estimators``, ``glm`` and ``numerics``.

Time metrics average over every traced replication.  Count metrics (calls,
rows, IRLS iterations, objective evaluations, failures) come from the first
chunk of replications only, a fixed set of replications per seed, so they
repeat exactly across runs at the same seed.
"""

from __future__ import annotations

from spans import derived

GLM_TIMED = (
    "fit_logistic_weighted_many",
    "fit_linear_weighted_many",
    "fit_logistic_weighted",
    "fit_linear_weighted",
    "ps_adjusted_treatment_variance",
    "fd_mean_score_cross_derivative",
)
GLM_COUNTED = (
    "fit_logistic_weighted_many",
    "fit_linear_weighted_many",
    "fit_logistic_weighted",
    "fit_linear_weighted",
)
# Registry entry points as ``run_replication`` calls them; the two two-step
# variants are computed together by ``two_step_pair`` when both are run.
ESTIMATOR_TAGS = (
    "naive",
    "adjusted",
    "iptw",
    "or_ps_info",
    "or_ps_sandwich",
    "dr",
    "clever",
    "or_iptw",
    "two_step_pair",
    "joint",
    "is",
    "is_dr",
)

REP_SPAN = "simulation.run_replication"
CLI_SPAN = "cli.main"
RUN_SPAN = "simulation.run_simulation"


def _logistic_many_counts(batch):
    return {
        "rows": int(batch.converged.shape[0]),
        "iterations": int(batch.iterations),
        "rows_converged": int(batch.converged.sum()),
    }


def _linear_many_counts(batch):
    return {"rows": int(batch.ok.shape[0]), "rows_ok": int(batch.ok.sum())}


def rep_timing_replacements(tracer, capture):
    """Boundaries kept in untraced runs: replication spans (per-replication
    wall time) and the ``run_simulation`` result, for the output checks."""
    from drbayes import cli, simulation

    return [
        (cli, "run_simulation", lambda f: tracer.wrap(RUN_SPAN, f, capture)),
        (simulation, "run_replication", lambda f: tracer.wrap(REP_SPAN, f)),
    ]


def layer_replacements(tracer):
    """Every layer boundary, for traced runs."""
    from drbayes import estimators, glm, simulation

    out = [
        (simulation, "generate_data", lambda f: tracer.wrap("simulation.generate_data", f)),
        (simulation, "summarize", lambda f: tracer.wrap("simulation.summarize", f)),
        (simulation, "two_step_pair", lambda f: tracer.wrap("estimators.two_step_pair", f)),
        (estimators, "minimize", lambda f: tracer.wrap("estimators.minimize", f)),
    ]
    for tag in ESTIMATOR_TAGS:
        if tag != "two_step_pair":
            out.append((simulation.ESTIMATORS, tag, lambda f, t=tag: tracer.wrap(f"estimators.{t}", f)))
    observers = {
        "fit_logistic_weighted_many": _logistic_many_counts,
        "fit_linear_weighted_many": _linear_many_counts,
    }
    for name in GLM_TIMED:
        # The cross derivative is only called from inside glm.
        module = glm if name == "fd_mean_score_cross_derivative" else estimators
        out.append(
            (module, name, lambda f, n=name: tracer.wrap(f"glm.{n}", f, observers.get(n)))
        )
    for module in (estimators, glm, simulation):
        out.append((module, "expit", lambda f: tracer.counted("expit", f)))
    return out


class _Totals:
    """Sums over the spans at ``indices``, grouped by span name."""

    def __init__(self, spans, indices):
        durations, self_times, subtree = derived(spans)
        self.calls, self.ns, self.self_ns, self.failures = {}, {}, {}, {}
        self.counts, self.subtree = {}, {}
        for i in indices:
            name = spans[i].name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.ns[name] = self.ns.get(name, 0) + durations[i]
            self.self_ns[name] = self.self_ns.get(name, 0) + self_times[i]
            self.failures[name] = self.failures.get(name, 0) + int(spans[i].failed)
            for target, source in ((self.counts, spans[i].counts), (self.subtree, subtree[i])):
                bucket = target.setdefault(name, {})
                for key, n in (source or {}).items():
                    bucket[key] = bucket.get(key, 0) + n

    def count(self, name, key):
        return self.counts.get(name, {}).get(key, 0)

    def ms(self, name):
        return self.ns.get(name, 0) / 1e6

    def self_ms(self, name):
        return self.self_ns.get(name, 0) / 1e6


def _ratio(num, den):
    return num / den if den else 0.0


def count_signature(spans, indices):
    """Exact counts of one set of spans, for the repeat check."""
    totals = _Totals(spans, indices)
    return {
        "calls": totals.calls,
        "failures": totals.failures,
        "counts": totals.counts,
    }


def layer_metrics(spans, timed, counted):
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``timed`` and ``counted`` are the span indices that time and count
    metrics are taken from.
    """
    t = _Totals(spans, timed)
    c = _Totals(spans, counted)
    reps_t = t.calls.get(REP_SPAN, 0)
    reps_c = c.calls.get(REP_SPAN, 0)
    out = {}

    def per_rep_ms(metric, name):
        out[metric] = (_ratio(t.ms(name), reps_t), "ms/rep")

    def per_rep_count(metric, value):
        out[metric] = (_ratio(value, reps_c), "count/rep")

    for fn in GLM_TIMED:
        per_rep_ms(f"glm.{fn}.ms_per_rep", f"glm.{fn}")
    for fn in GLM_COUNTED:
        per_rep_count(f"glm.{fn}.calls_per_rep", c.calls.get(f"glm.{fn}", 0))
    lm = "glm.fit_logistic_weighted_many"
    per_rep_count(f"{lm}.rows_per_rep", c.count(lm, "rows"))
    out[f"{lm}.iterations_per_call"] = (
        _ratio(c.count(lm, "iterations"), c.calls.get(lm, 0)), "count/call")
    out[f"{lm}.rows_converged_frac"] = (
        _ratio(c.count(lm, "rows_converged"), c.count(lm, "rows")), "fraction")
    ln = "glm.fit_linear_weighted_many"
    out[f"{ln}.rows_ok_frac"] = (_ratio(c.count(ln, "rows_ok"), c.count(ln, "rows")), "fraction")

    for tag in ESTIMATOR_TAGS:
        name = f"estimators.{tag}"
        per_rep_ms(f"{name}.ms_per_rep", name)
        out[f"{name}.self_ms_per_rep"] = (_ratio(t.self_ms(name), reps_t), "ms/rep")
        per_rep_count(f"{name}.failures_per_rep", c.failures.get(name, 0))
    per_rep_count("estimators.joint.minimize_calls_per_rep", c.calls.get("estimators.minimize", 0))
    per_rep_ms("estimators.joint.minimize_ms_per_rep", "estimators.minimize")
    per_rep_count(
        "estimators.joint.objective_evals_per_rep",
        c.subtree.get("estimators.joint", {}).get("expit", 0),
    )

    per_rep_ms("simulation.generate_data.ms_per_rep", "simulation.generate_data")
    per_rep_ms("simulation.run_replication.ms_per_rep", REP_SPAN)
    out["simulation.summarize.ms"] = (
        _ratio(t.ms("simulation.summarize"), t.calls.get("simulation.summarize", 0)), "ms/call")
    out["cli.self_ms"] = (_ratio(t.self_ms(CLI_SPAN), t.calls.get(CLI_SPAN, 0)), "ms/call")
    per_rep_count("numerics.expit.calls_per_rep", sum(c.count(name, "expit") for name in c.counts))
    return out


def time_shares(spans, timed):
    """Self time per span name as a share of all replication time, largest
    first: where a workload's time goes."""
    t = _Totals(spans, timed)
    rep_ns = t.ns.get(REP_SPAN, 0)
    rows = [
        (name, _ratio(t.ns[name], rep_ns), _ratio(t.self_ns[name], rep_ns))
        for name in t.ns
        if name not in (CLI_SPAN, RUN_SPAN)
    ]
    return sorted(rows, key=lambda row: -row[2])
