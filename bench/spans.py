"""Span recorder for the traced benchmark run.

The tracer wraps finpop's public entry points at the names its modules call
them by (``finpop.montecarlo.draw``, ``finpop.functionals.estimate_mean``,
...), so no library code changes.  Every wrapped call records a span: name,
start, end and the span that was open when it began.  Spans stay in memory
until the run ends; a layer's self time is the duration of its spans minus
the time their direct child spans cover.

Rao-Sampford draws receive a counting proxy of the ``numpy`` generator; the
rejective sampler calls ``random`` twice per attempt, which gives the
attempts per accepted draw without touching the sampler.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import finpop
from finpop import cli, estimators, functionals, inference, montecarlo, oracle

# population is reported as population.generate_s, the other layers as self time
SELF_TIME_LAYERS = (
    "designs", "estimators", "functionals", "inference", "montecarlo", "oracle", "cli",
)
RS_N = (75, 100, 125)
ESTIMATOR_KEYS = ("ht", "hajek", "ratio", "greg", "peml", "rhc")
DESIGN_KEYS = ("srswor", "lms", "rs", "rhc")


class CountingGenerator:
    """Delegates to a ``numpy`` generator and counts calls to ``random``."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # flat records of (name id, start ns, end ns, parent index or -1)
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans) // 4
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((nid, time.perf_counter_ns(), -1, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[4 * idx + 2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, namer):
        def traced(*args, **kwargs):
            idx = self._open(namer(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _patch_span(self, module, attr: str, namer) -> None:
        if isinstance(namer, str):
            label = namer
            namer = lambda args: label  # noqa: E731
        self._patch(module, attr, self._wrap(getattr(module, attr), namer))

    # ------------------------------------------------------------ patches

    def install(self) -> None:
        by_kind = lambda prefix: lambda args: f"{prefix}.{args[0].value}"  # noqa: E731
        self._patch_span(finpop, "generate_univariate", "population.generate")
        self._patch_span(finpop, "Population", "population.generate")
        self._patch_span(cli, "main", "cli.main")
        self._patch_span(cli, "generate_univariate", "population.generate")
        self._patch_span(cli, "run_experiment", "montecarlo.run_experiment")
        self._patch_span(finpop, "run_experiment", "montecarlo.run_experiment")
        self._patch_span(finpop, "exact_moments", "oracle.exact_moments")
        self._patch_span(montecarlo, "population_value", "functionals.population_value")
        self._patch_span(oracle, "population_value", "functionals.population_value")
        for module in (montecarlo, oracle, inference):
            self._patch_span(module, "plug_in", "functionals.plug_in")
        for module in (functionals, inference):
            self._patch_span(module, "estimate_mean", by_kind("estimators.estimate_mean"))
        self._patch_span(estimators, "peml_weights", "estimators.peml_weights")
        self._patch_span(montecarlo, "variance_estimate", "inference.variance_estimate")
        self._patch_span(montecarlo, "confidence_interval", "inference.confidence_interval")
        self._patch_span(montecarlo, "jackknife_bc", "inference.jackknife_bc")
        self._patch(montecarlo, "draw", self._counted_draw(montecarlo.draw))
        self._patch(oracle, "enumerate_design", self._counted_enumerate(oracle.enumerate_design))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _counted_draw(self, draw):
        def traced(design, pop, n, rng):
            idx = self._open(f"designs.draw.{design.value}")
            try:
                if design is not finpop.DesignKind.RAO_SAMPFORD:
                    return draw(design, pop, n, rng)
                counting = CountingGenerator(rng)
                sample = draw(design, pop, n, counting)
                self.counts[f"rs_draws.n{n}"] += 1
                self.counts[f"rs_attempts.n{n}"] += counting.random_calls // 2
                return sample
            finally:
                self._close(idx)

        return traced

    def _counted_enumerate(self, enumerate_design):
        def traced(design, pop, n):
            idx = self._open("designs.enumerate")
            try:
                support = enumerate_design(design, pop, n)
                self.counts["support_points"] += len(support)
                return support
            finally:
                self._close(idx)

        return traced

    # ------------------------------------------------------------ summary

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        dur = (rec[:, 2] - rec[:, 1]).astype(float) * 1e-9
        child = np.zeros(len(rec))
        has_parent = rec[:, 3] >= 0
        np.add.at(child, rec[has_parent, 3], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            mask = rec[:, 0] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float((dur[mask] - child[mask]).sum()),
            }
        return out

    def save(self, path) -> None:
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=rec[:, 0],
            start_ns=rec[:, 1], end_ns=rec[:, 2], parent=rec[:, 3],
        )


def layer_metrics(table: dict, counts: Counter, reports: int) -> dict[str, float]:
    """The per-layer metrics; per-call times are means, the rest per report.

    A time per call reads 0 where the workload never makes that call; the
    matching count says so.
    """

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def mean(name, scale):
        row = table.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    layer_self = defaultdict(float)
    for name, row in table.items():
        layer_self[name.split(".")[0]] += row["self_s"]

    m: dict[str, float] = {}
    for d in DESIGN_KEYS:
        m[f"designs.draw_us.{d}"] = mean(f"designs.draw.{d}", 1e6)
    m["designs.draw_calls"] = sum(calls(f"designs.draw.{d}") for d in DESIGN_KEYS) / reports
    draws = sum(counts[f"rs_draws.n{n}"] for n in RS_N)
    attempts = sum(counts[f"rs_attempts.n{n}"] for n in RS_N)
    m["designs.rs_attempts_per_draw"] = attempts / draws if draws else 0.0
    m["designs.rs_acceptance"] = draws / attempts if attempts else 0.0
    for n in RS_N:
        a = counts[f"rs_attempts.n{n}"]
        m[f"designs.rs_acceptance.n{n}"] = counts[f"rs_draws.n{n}"] / a if a else 0.0
    points = counts["support_points"]
    enum = table.get("designs.enumerate")
    m["designs.enumerate_us_per_point"] = enum["total_s"] / points * 1e6 if enum else 0.0
    for k in ESTIMATOR_KEYS:
        m[f"estimators.estimate_mean_us.{k}"] = mean(f"estimators.estimate_mean.{k}", 1e6)
    m["estimators.peml_weights_us"] = mean("estimators.peml_weights", 1e6)
    m["estimators.peml_calls"] = calls("estimators.peml_weights") / reports
    m["functionals.plug_in_us"] = mean("functionals.plug_in", 1e6)
    m["functionals.plug_in_calls"] = calls("functionals.plug_in") / reports
    m["inference.confidence_interval_us"] = mean("inference.confidence_interval", 1e6)
    m["inference.variance_estimate_us"] = mean("inference.variance_estimate", 1e6)
    m["inference.jackknife_bc_ms"] = mean("inference.jackknife_bc", 1e3)
    m["oracle.support_points"] = points / reports
    m["population.generate_s"] = mean("population.generate", 1.0)
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / reports
    return m
