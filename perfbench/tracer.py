"""Spans and counters around the public functions of each ``poisson_sgd`` module.

Nothing under ``src/`` changes: ``install`` replaces every reference to a
traced function (in every loaded ``poisson_sgd`` module namespace) or method
(on its class) with a wrapper that records a span. Spans nest through a
stack; a span's self time is its duration minus the durations of the spans
it encloses. Per-name aggregates cover every span; the raw spans, each with
its name, start, end and the span that caused it, are kept in memory up to a
cap and written out when the round ends.

``Clock`` is the light hook used in untraced rounds: it only notes when the
first chain step starts and how many chain-steps the round asked for.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

RAW_SPAN_CAP = 5000

RECORD_WRITE_SPANS = ("records.to_csv", "records.to_ndjson", "records.canonical_json")

PER_LAYER_UNITS = {
    "sampler.events": "count",
    "sampler.proposals": "count",
    "sampler.rounds": "count",
    "sampler.accept_fraction": "fraction",
    "sampler.self_s": "s",
    "sampler.us_per_event": "us",
    "objectives.grad_calls": "count",
    "objectives.sample_grads": "count",
    "objectives.self_s": "s",
    "objectives.ns_per_point": "ns",
    "objectives.field_build_s": "s",
    "domain.wrap_calls": "count",
    "domain.wrap_s": "s",
    "optimizer.chain_steps": "count",
    "optimizer.ensemble_s": "s",
    "optimizer.single_chain_s": "s",
    "optimizer.self_s": "s",
    "optimizer.us_per_chain_step": "us",
    "optimizer.reflect_s": "s",
    "bps.chain_steps": "count",
    "bps.ensemble_s": "s",
    "bps.self_s": "s",
    "bps.us_per_chain_step": "us",
    "bps.refresh_fraction": "fraction",
    "stationary.grid_s": "s",
    "stationary.grid_points": "count",
    "stationary.sample_s": "s",
    "stationary.oracle_points": "count",
    "stationary.oracle_accept_fraction": "fraction",
    "metrics.calls": "count",
    "metrics.s": "s",
    "records.appends": "count",
    "records.rows": "count",
    "records.write_s": "s",
    "records.bytes": "bytes",
    "experiments.analyze_s": "s",
    "experiments.self_s": "s",
    "experiments.artifact_bytes": "bytes",
    "experiments.artifact_files": "count",
    "trace.overhead_s": "s",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _chain_steps(args: tuple, kwargs: dict, ensemble: bool) -> int:
    cfg = _arg(args, kwargs, 1, "cfg")
    chains = int(_arg(args, kwargs, 2, "n_chains")) if ensemble else 1
    return int(cfg.n_steps) * chains


def _replace_everywhere(original, replacement) -> None:
    """Point every module-level reference to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "poisson_sgd" or name.startswith("poisson_sgd.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Clock:
    """First-chain-step time and requested chain-steps of one round."""

    def __init__(self) -> None:
        self.first_step: float | None = None
        self.chain_steps = 0

    def install(self) -> None:
        from poisson_sgd import bps, optimizer

        runners = [
            (optimizer.run_poisson_sgd_ensemble, True),
            (bps.run_bps_ensemble, True),
            (optimizer.run_poisson_sgd, False),
            (bps.run_bps, False),
        ]
        for fn, ensemble in runners:
            _replace_everywhere(fn, self._wrap(fn, ensemble))

    def _wrap(self, fn, ensemble: bool):
        def runner(*args, **kwargs):
            if self.first_step is None:
                self.first_step = time.monotonic()
            self.chain_steps += _chain_steps(args, kwargs, ensemble)
            return fn(*args, **kwargs)

        return runner


class Tracer:
    """Span stack, per-name aggregates, counters and a capped raw span list."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        # name -> [calls, total_ns, self_ns, outer_ns]; outer_ns counts only
        # spans whose parent belongs to another layer, so nesting within one
        # layer is not counted twice
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._ids = 0

    @property
    def current(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before`` may rewrite the arguments and
        ``after`` sees the arguments and the result, both for counting."""
        layer = name.split(".", 1)[0]
        stack, stats, clock = self.stack, self.stats, time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            self._ids += 1
            parent = stack[-1] if stack else None
            frame = [name, self._ids, 0, clock()]  # name, id, child_ns, start
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[3]
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if parent is None or parent[0].split(".", 1)[0] != layer:
                    entry[3] += duration
                if parent is not None:
                    parent[2] += duration
                if len(self.spans) < RAW_SPAN_CAP:
                    self.spans.append(
                        (frame[1], parent[1] if parent else 0, name, frame[3], end)
                    )
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def trace_function(self, name: str, fn, before=None, after=None) -> None:
        _replace_everywhere(fn, self.span(name, fn, before, after))

    def trace_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        setattr(cls, attr, self.span(name, getattr(cls, attr), before, after))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        from poisson_sgd import bps, experiments, metrics, objectives, optimizer, records
        from poisson_sgd import domain, sampler, stationary

        counts = self.counts

        # sampler: event draws by thinning; proposals are counted where the
        # rate callback evaluates them
        def thin_before(args, kwargs):
            rate_rows = _arg(args, kwargs, 0, "rate_rows")
            counts["sampler.events"] += int(_arg(args, kwargs, 1, "n"))

            def counted(radii, rows):
                counts["sampler.rounds"] += 1
                counts["sampler.proposals"] += radii.size
                return rate_rows(radii, rows)

            if args:
                return (counted,) + tuple(args[1:]), kwargs
            return args, {**kwargs, "rate_rows": counted}

        self.trace_function(
            "sampler.thin_first_arrivals", sampler.thin_first_arrivals, before=thin_before
        )

        # objectives: every gradient evaluation, counted in points and in
        # per-sample gradients (points times batch size)
        Objective = objectives.Objective

        def count_points(obj, points, batch_rows: int) -> None:
            n_points = points.size // obj.domain.dim
            counts["objectives.grad_points"] += n_points
            counts["objectives.sample_grads"] += n_points * batch_rows

        def batch_rows(obj, batch) -> int:
            if batch is None:
                return obj.n_samples
            return batch.size if hasattr(batch, "indices") else np.shape(batch)[-1]

        build_field = self.span("objectives.grad_field", Objective.grad_field)

        def grad_field(obj, batch=None):
            field = build_field(obj, batch)
            m = batch_rows(obj, batch)

            def counted(points, rows=None):
                points = np.asarray(points, dtype=float)
                count_points(obj, points, m)
                return field(points, rows=rows)

            return self.span("objectives.grad", counted)

        Objective.grad_field = grad_field

        def grad_before(args, kwargs):
            obj = args[0]
            count_points(obj, np.asarray(_arg(args, kwargs, 1, "theta")), obj.n_samples)
            return args, kwargs

        self.trace_method(Objective, "grad", "objectives.grad", before=grad_before)
        self.trace_method(Objective, "empirical_risk", "objectives.empirical_risk")

        # domain
        self.trace_method(domain.TorusDomain, "wrap", "domain.wrap")

        # optimizer and bps: lock-step ensembles, single chains, reflection
        def steps_after(layer: str, ensemble: bool):
            def after(args, kwargs, result):
                steps = _chain_steps(args, kwargs, ensemble)
                counts[f"{layer}.chain_steps"] += steps
                refresh = getattr(result, "extras", {}).get("refresh_fraction")
                if refresh is not None:
                    counts["bps.refresh_steps"] += refresh * steps

            return after

        self.trace_function(
            "optimizer.run_poisson_sgd_ensemble",
            optimizer.run_poisson_sgd_ensemble,
            after=steps_after("optimizer", True),
        )
        self.trace_function(
            "optimizer.run_poisson_sgd", optimizer.run_poisson_sgd, after=steps_after("optimizer", False)
        )
        self.trace_function("optimizer.reflect", optimizer.reflect)
        self.trace_function(
            "bps.run_bps_ensemble", bps.run_bps_ensemble, after=steps_after("bps", True)
        )
        self.trace_function("bps.run_bps", bps.run_bps, after=steps_after("bps", False))

        # stationary: density grids, the rejection oracle, and the points the
        # closed-form density is evaluated at inside each
        Density = stationary.StationaryDensity
        unnormalized = Density.unnormalized

        def density_points(density, theta):
            theta = np.asarray(theta, dtype=float)
            where = {"stationary.grid": "grid", "stationary.sample": "oracle"}.get(self.current, "other")
            counts[f"stationary.{where}_points"] += theta.size // density.objective.domain.dim
            return unnormalized(density, theta)

        Density.unnormalized = density_points

        def sample_after(args, kwargs, result):
            counts["stationary.oracle_accepted"] += len(result)

        self.trace_method(Density, "grid", "stationary.grid")
        self.trace_method(Density, "sample", "stationary.sample", after=sample_after)
        self.trace_function("stationary.grid_mean_risk", stationary.grid_mean_risk)

        # metrics called by the experiments
        for fn in (metrics.histogram_tv, metrics.ks_statistic, metrics.sliced_wasserstein1):
            self.trace_function(f"metrics.{fn.__name__}", fn)

        # records: appends, trajectory files and canonical JSON documents
        RunRecord = records.RunRecord

        def rows_after(args, kwargs, result):
            counts["records.rows"] += len(args[0])
            counts["records.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size

        def json_after(args, kwargs, result):
            counts["records.bytes"] += len(result)

        self.trace_method(RunRecord, "append", "records.append")
        self.trace_method(RunRecord, "to_csv", "records.to_csv", after=rows_after)
        self.trace_method(RunRecord, "to_ndjson", "records.to_ndjson", after=rows_after)
        self.trace_function("records.canonical_json", records.canonical_json, after=json_after)

        # experiments: the run itself and the analysis that rebuilds summaries
        self.trace_function("experiments.run_experiment", experiments.run_experiment)
        self.trace_function("experiments.analyze_experiment", experiments.analyze_experiment)

    def dump(self) -> dict:
        return {
            "stats": {name: list(entry) for name, entry in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [list(s) for s in self.spans],
            "spans_dropped": self.dropped,
        }


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced round from its dumped trace.

    Times are in seconds; a ratio whose base is zero (a layer the workload
    does not use) reads 0.
    """
    stats, counts = trace["stats"], trace["counts"]

    def calls(name: str) -> int:
        return stats.get(name, [0, 0, 0, 0])[0]

    def total(*names: str) -> float:
        return sum(stats.get(n, [0, 0, 0, 0])[1] for n in names) / 1e9

    def outer(*names: str) -> float:
        return sum(stats.get(n, [0, 0, 0, 0])[3] for n in names) / 1e9

    def self_time(layer: str) -> float:
        return sum(e[2] for n, e in stats.items() if n.split(".", 1)[0] == layer) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    events, proposals = count("sampler.events"), count("sampler.proposals")
    grad_points = count("objectives.grad_points")
    opt_steps, bps_steps = count("optimizer.chain_steps"), count("bps.chain_steps")
    opt_ens, opt_single = total("optimizer.run_poisson_sgd_ensemble"), total("optimizer.run_poisson_sgd")
    bps_ens, bps_single = total("bps.run_bps_ensemble"), total("bps.run_bps")
    metric_spans = [n for n in stats if n.startswith("metrics.")]
    return {
        "sampler.events": events,
        "sampler.proposals": proposals,
        "sampler.rounds": count("sampler.rounds"),
        "sampler.accept_fraction": ratio(events, proposals),
        "sampler.self_s": self_time("sampler"),
        "sampler.us_per_event": 1e6 * ratio(total("sampler.thin_first_arrivals"), events),
        "objectives.grad_calls": calls("objectives.grad"),
        "objectives.sample_grads": count("objectives.sample_grads"),
        "objectives.self_s": self_time("objectives"),
        "objectives.ns_per_point": 1e9 * ratio(total("objectives.grad"), grad_points),
        "objectives.field_build_s": total("objectives.grad_field"),
        "domain.wrap_calls": calls("domain.wrap"),
        "domain.wrap_s": total("domain.wrap"),
        "optimizer.chain_steps": opt_steps,
        "optimizer.ensemble_s": opt_ens,
        "optimizer.single_chain_s": opt_single,
        "optimizer.self_s": self_time("optimizer"),
        "optimizer.us_per_chain_step": 1e6 * ratio(opt_ens + opt_single, opt_steps),
        "optimizer.reflect_s": total("optimizer.reflect"),
        "bps.chain_steps": bps_steps,
        "bps.ensemble_s": bps_ens,
        "bps.self_s": self_time("bps"),
        "bps.us_per_chain_step": 1e6 * ratio(bps_ens + bps_single, bps_steps),
        "bps.refresh_fraction": ratio(count("bps.refresh_steps"), bps_steps),
        "stationary.grid_s": total("stationary.grid", "stationary.grid_mean_risk"),
        "stationary.grid_points": count("stationary.grid_points"),
        "stationary.sample_s": total("stationary.sample"),
        "stationary.oracle_points": count("stationary.oracle_points"),
        "stationary.oracle_accept_fraction": ratio(
            count("stationary.oracle_accepted"), count("stationary.oracle_points")
        ),
        "metrics.calls": sum(calls(n) for n in metric_spans),
        "metrics.s": outer(*metric_spans),
        "records.appends": calls("records.append"),
        "records.rows": count("records.rows"),
        "records.write_s": outer(*RECORD_WRITE_SPANS),
        "records.bytes": count("records.bytes"),
        "experiments.analyze_s": total("experiments.analyze_experiment"),
        "experiments.self_s": self_time("experiments"),
    }
