"""Benchmark four poisson-sgd experiments end to end, with a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads one after the other, each
printing its own metrics and JSON result line.

The workload seed N generates the experiment config (``workloads.py``). One
run repeats rounds of ``poisson-sgd run`` on that config, each in a fresh
interpreter, until S seconds have passed (at least three rounds); their
median gives the end-to-end metrics. One more round runs traced and gives
the per-layer metrics and ``grad_evals``. The outputs of every round are
checked (``checks.py``), every round must write the same bytes, and
``poisson-sgd analyze`` must rebuild the summaries byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. One operation is
one round. The exit code is 0 only if every check passed; a run in which no
untraced or no traced round completed prints ``correct`` false, the
operation counts and whatever metrics it has, and exits with 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
# a run must end within 180 s; stop starting rounds well before that
DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "chain_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "grad_evals": "count",
}


def child_env() -> dict:
    """One single-threaded process per round: BLAS pinned, serial experiments."""
    env = dict(os.environ)
    env.pop("POISSON_SGD_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(config: Path, out_dir: Path, mode: str, deadline: float) -> dict | None:
    """One ``poisson-sgd run`` in a fresh interpreter; None if it failed.

    ``mode`` is ``untraced`` or ``traced`` (see ``child.py``).
    """
    result_path = out_dir.with_suffix(".json")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(config), str(out_dir), str(result_path), mode]
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - launch),
        )
    except subprocess.TimeoutExpired:
        print(f"round {out_dir.name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"round {out_dir.name} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    r = json.loads(result_path.read_text())
    r["setup_s"] = r["first_step"] - launch
    r["wall_s"] = r["end"] - launch
    r["chain_steps_per_s"] = r["chain_steps"] / (r["end"] - r["first_step"])
    r["peak_rss_mb"] = r["peak_rss_kb"] / 1024.0
    return r


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def analyze_rebuilds(run_dir: Path, reference: Path) -> bool:
    """``poisson-sgd analyze`` on a copy without summaries restores the same bytes."""
    from poisson_sgd import cli

    copy = run_dir / "analyze"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(reference, copy)
    for name in ("summary.json", "summary.csv", "plot.py"):
        (copy / name).unlink()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["analyze", str(copy)])
    return code == 0 and tree_digest(copy) == tree_digest(reference)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "poisson_sgd" / "__init__.py").is_file():
        print(f"error: no poisson_sgd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args) for name in names)


def run_workload(name: str, args: argparse.Namespace) -> int:
    """One run of workload ``name``; prints its metrics and the JSON result."""
    from checks import check_outputs
    from tracer import PER_LAYER_UNITS, layer_metrics
    from workloads import make_config

    cfg = make_config(name, args.seed)
    run_dir = HERE / "out" / f"{name}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.json"
    config.write_text(json.dumps(cfg, indent=1) + "\n")

    start = time.monotonic()
    deadline = start + DEADLINE_S
    rounds: list[tuple[Path, dict]] = []
    attempted = failed = 0
    for i in itertools.count(1):
        began = time.monotonic()
        out_dir = run_dir / f"round_{i}"
        r = run_round(config, out_dir, "untraced", deadline)
        attempted += 1
        if r is None:
            failed += 1
        else:
            rounds.append((out_dir, r))
        now = time.monotonic() - start
        last = time.monotonic() - began
        if (now >= args.seconds and i >= MIN_ROUNDS) or now + 3 * last > DEADLINE_S:
            break
    traced_dir = run_dir / "traced"
    traced = run_round(config, traced_dir, "traced", deadline)
    attempted += 1
    if traced is None:
        failed += 1

    problems: list[str] = []
    end_to_end: dict[str, float] = {}
    per_layer: dict[str, float] = {}
    if rounds:
        reference = rounds[0][0]
        problems += check_outputs(cfg, reference, args.seed)
        digest = tree_digest(reference)
        others = [d for d, _ in rounds[1:]] + ([traced_dir] if traced is not None else [])
        for out_dir in others:
            if tree_digest(out_dir) != digest:
                problems.append(f"{out_dir.name} artifacts differ from {reference.name}")
        if not analyze_rebuilds(run_dir, reference):
            problems.append("poisson-sgd analyze does not rebuild the summaries byte for byte")
        for key in ("wall_s", "setup_s", "chain_steps_per_s", "peak_rss_mb"):
            end_to_end[key] = statistics.median(r[key] for _, r in rounds)
    else:
        problems.append("no untraced round completed")
    if traced is not None:
        trace = traced["trace"]
        end_to_end["grad_evals"] = trace["counts"].get("objectives.grad_points", 0)
        per_layer = layer_metrics(trace)
        files = [p for p in traced_dir.rglob("*") if p.is_file()]
        per_layer["experiments.artifact_bytes"] = sum(p.stat().st_size for p in files)
        per_layer["experiments.artifact_files"] = len(files)
        if rounds:
            per_layer["trace.overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]
        (run_dir / "trace.json").write_text(json.dumps({"per_layer": per_layer, **trace}) + "\n")
    else:
        problems.append("the traced round did not complete")

    (run_dir / "rounds.json").write_text(json.dumps([r for _, r in rounds], indent=1) + "\n")
    for path in run_dir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
        elif path.name not in ("config.json", "rounds.json", "trace.json"):
            path.unlink()

    print(f"workload {name}  seed {args.seed}  rounds {len(rounds)} untraced + {int(traced is not None)} traced")
    for metric, value in end_to_end.items():
        print(f"  {metric:<36} {value:>16.6g} {END_TO_END_UNITS[metric]}")
    if args.trace:
        for metric, value in per_layer.items():
            print(f"  {metric:<36} {value:>16.6g} {PER_LAYER_UNITS[metric]}")
    print(f"  attempted {attempted}  failed {failed}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    chosen = per_layer if args.trace else end_to_end
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in chosen.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
