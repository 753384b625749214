"""finpop benchmark: one command, four study workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload re_grid --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout this file sits in; a
checkout without it is an error (exit 2, no result).  Everything runs in one
process and one thread, with BLAS capped at one thread.

With ``--trace 0`` the run measures the end-to-end metrics:

* ``setup_s`` -- import of finpop plus building the workload's populations
  and configs, timed in fresh child processes and scaled like ``report_s``;
  median of several;
* ``report_s`` -- median time of one finished report (study): its wall
  time scaled by REF_NOMINAL_S over the wall time of a fixed reference loop
  run right after it (see ``_reference_seconds``), which cancels the
  host's speed drift; the raw wall times go to the record;
* ``evals_per_s`` -- estimator evaluations per scaled second, median over
  the timed reports (cell x n x replicate results, or support points);
* ``peak_rss_mb`` -- peak resident memory of the process.

With ``--trace 1`` it first times reports untraced, then wraps finpop's
entry points (``spans.py``) and times them traced; the per-layer metrics
come from the traced spans, and the difference of the two medians is the
tracing overhead.

Both modes run the workload's correctness gate over every study, require
each repeated study to reproduce its output digest byte for byte, and print
the manifest, the gate and the digests before the final line, which is the
JSON result.  Its ``attempted`` and ``failed`` count the operations of each
distinct study once, so they depend on the seed alone and not on how many
repeats fit into ``--seconds``.  A record of the run goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# cap BLAS threads before numpy is imported anywhere in this process
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
# the reference loop's wall time on one unloaded core of a 2-vCPU Intel Xeon
# x86-64 container with Python 3.11 and numpy 2.4
REF_NOMINAL_S = 0.016
UNTRACED_SHARE = 0.3
NOT_MEASURED = {
    "rs_n500_default_population": "left out: the rejective Rao-Sampford sampler "
    "accepted 0 of 400 attempts there, so a draw runs into its 1e6-attempt cap",
    "tier1_suite": "a correctness gate, not a workload: over a minute per run",
}
# a prediction "dominates" above half the report, is "visible" above 5 %
PREDICTIONS = {
    "re_grid": [("inference.confidence_interval", "cli.main", 0.05)],
    "pps_skewed": [("designs.draw.rs", "montecarlo.run_experiment", 0.5)],
    "jackknife_var": [
        ("inference.jackknife_bc", "montecarlo.run_experiment", 0.5),
        ("estimators.peml_weights", "montecarlo.run_experiment", 0.5),
    ],
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in _spec()["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload once and print the set-up seconds")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_finpop():
    if not (SRC / "finpop" / "__init__.py").is_file():
        _die(f"no finpop sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import finpop

    if Path(finpop.__file__).resolve().parent != SRC / "finpop":
        _die(f"imported finpop from {finpop.__file__}, not {SRC}")


def _build(args):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, OUT)


def _setup_seconds(args) -> list[tuple[float, float]]:
    """(wall, scaled) set-up seconds of fresh processes: import plus
    building the inputs, scaled like the reports by the reference loop."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _die(f"set-up child failed: {proc.stderr.strip()}")
        wall, scaled = proc.stdout.split()
        out.append((float(wall), float(scaled)))
    return out


def _reference_seconds() -> float:
    """Wall time of a fixed loop of Python and small numpy calls, without finpop.

    It stands for the host's speed on this kind of code at that moment: on
    a shared host a neighbour's load can slow everything by a fifth for
    minutes, and scaling each report by the reference run right after it
    removes that drift while leaving any change to finpop's own speed.
    """
    import numpy as np

    x = np.linspace(0.5, 3.0, 128)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(1500):
        idx = np.arange(i % 7, 128, 3)
        v = x[idx]
        acc += float(v @ v) / (1.0 + np.unique(idx).size)
    return time.perf_counter() - t0


@dataclass
class Timed:
    """Per timed report: wall seconds, seconds scaled to the reference's
    nominal speed, and evaluations per scaled second."""

    wall: list[float]
    scaled: list[float]
    rates: list[float]


class Runner:
    """Runs studies and keeps the first result of each; a repeat must match it."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.mismatches: list[int] = []
        self.next_k = 0

    def report(self, k: int):
        st = self.wl.run(k)
        ref = self.first.setdefault(k, st)
        if st.digest != ref.digest:
            self.mismatches.append(k)
        return st

    def timed(self, seconds: float) -> Timed:
        """Report after report for ``seconds``, each followed by the reference."""
        out = Timed([], [], [])
        end = time.perf_counter() + seconds
        while True:
            st = self.report(self.next_k % self.wl.studies)
            self.next_k += 1
            scaled = st.seconds * REF_NOMINAL_S / _reference_seconds()
            out.wall.append(st.seconds)
            out.scaled.append(scaled)
            out.rates.append(st.evals / scaled)
            if time.perf_counter() >= end:
                return out

    def gate(self):
        """(checks, output digest, attempted, failed) over every study once."""
        for k in range(self.wl.studies):
            if k not in self.first:
                self.report(k)
        results = [self.first[k] for k in range(self.wl.studies)]
        digest = hashlib.sha256(
            "".join(st.digest for st in results).encode()
        ).hexdigest()
        attempted = sum(st.attempted for st in results)
        failed = sum(st.failed for st in results)
        return self.wl.check(results), digest, attempted, failed


def _tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of the highest percentile with >= 10 samples above."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    i = len(ordered) - 11
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def _manifest(args) -> dict:
    import numpy
    import scipy

    sha = "unavailable (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "finpop").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
        "finpop_source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _declared_units(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}


def _predictions(table: dict, workload: str) -> list[dict]:
    out = []
    for part, whole, share_min in PREDICTIONS.get(workload, []):
        share = (table.get(part, {}).get("total_s", 0.0)
                 / table[whole]["total_s"])
        out.append({"part": part, "of": whole, "share": share,
                    "predicted_min": share_min, "holds": share >= share_min})
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_only:
        t0 = time.perf_counter()
        _import_finpop()
        _build(args)
        wall = time.perf_counter() - t0
        ref = statistics.median(_reference_seconds() for _ in range(3))
        print(repr(wall), repr(wall * REF_NOMINAL_S / ref))
        return 0

    _import_finpop()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()  # the in-process set-up feeds population.generate_s
        wl = _build(args)
        tracer.uninstall()
    else:
        setups = _setup_seconds(args)
        wl = _build(args)
    runner = Runner(wl)
    runner.report(0)  # warm-up, untimed: lazy imports and first-call costs
    runner.next_k = 1

    record: dict = {"manifest": _manifest(args), "not_measured": NOT_MEASURED}
    if args.trace:
        untraced = runner.timed(args.seconds * UNTRACED_SHARE)
        tracer.install()
        try:
            timed = runner.timed(args.seconds * (1.0 - UNTRACED_SHARE))
        finally:
            tracer.uninstall()
        table = tracer.table()
        metrics = spans.layer_metrics(table, tracer.counts, len(timed.wall))
        t_med = statistics.median(timed.scaled)
        u_med = statistics.median(untraced.scaled)
        metrics["trace.report_s"] = t_med
        metrics["trace.untraced_report_s"] = u_med
        metrics["trace.overhead_share"] = (t_med - u_med) / u_med
        predictions = _predictions(table, args.workload)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
        record["trace"] = {"spans": table, "counts": dict(tracer.counts),
                           "traced_reports": len(timed.wall),
                           "untraced_reports": len(untraced.wall),
                           "predictions": predictions}
    else:
        timed = runner.timed(args.seconds)
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "report_s": statistics.median(timed.scaled),
            "evals_per_s": statistics.median(timed.rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_runs_s"] = setups

    units = _declared_units(args.trace)
    if set(units) != set(metrics):
        _die(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    checks, digest, attempted, failed = runner.gate()
    correct = not runner.mismatches and all(c.ok for c in checks)
    tail = _tail(timed.scaled)
    record.update({
        "reports": len(timed.wall),
        "report_wall_s": timed.wall,
        "report_scaled_s": timed.scaled,
        "report_tail": tail,
        "checks": [c.__dict__ for c in checks],
        "digest_mismatches": runner.mismatches,
        "output_sha256": digest,
        "study_sha256": [runner.first[k].digest for k in range(wl.studies)],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )

    m = record["manifest"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"cpus {m['cpu_count']}, BLAS threads {BLAS_THREADS}, git {m['git_sha']}")
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "n/a (< 11 reports)"
    print(f"reports {len(timed.wall)}: scaled median {statistics.median(timed.scaled):.4f} s, "
          f"highest percentile with >= 10 beyond: {tail_text}; "
          f"wall median {statistics.median(timed.wall):.4f} s")
    print(f"failed_share {failed}/{attempted}")
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    if runner.mismatches:
        print(f"FAIL repeated studies changed their output: {runner.mismatches}")
    for p in record.get("trace", {}).get("predictions", []):
        verdict = "holds" if p["holds"] else "REFUTED"
        print(f"prediction {p['part']} >= {p['predicted_min']:.0%} of {p['of']}: "
              f"{p['share']:.1%}, {verdict}")
    print(f"output_sha256 {digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
