"""Opt-in false-fail calibration of the acceptance battery's statistical gates.

Reruns the protocols and gates of criteria 3 (its one-step oracle), 4, 5,
8, 9 and 10 (the ``*_gate`` helpers of ``tests/test_acceptance.py``) at
reduced cost over extra seeds and reports how often each gate fails. It is
not part of Tier-1: at the default sizes one code version takes about half
an hour on two CPUs.

    PYTHONPATH=src python3 tools/calibrate_gates.py [--seeds 20] [--first 1] \
        [--criteria 3,4,5,8,9,10] [--full] [--json out.json]

Extra seed ``s`` (1, 2, ...) replaces a criterion's pinned seed ``p`` with
``p + 1000 * s``; the pinned runs themselves are not repeated. ``REDUCED``
lists the sizes and ``--full`` restores the battery's own (criterion 3
runs at its own size either way: it takes a few seconds). Fewer chains or
trials add sampling noise, so a gate whose failures come from noise fails
at least as often reduced as at full size. Criterion 5 runs fewer steps,
which checks the same invariance claim over a shorter time. Point
``PYTHONPATH`` at another checkout's ``src`` to calibrate that version
against the same gates.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_acceptance as battery  # noqa: E402

# the size argument of each gate helper: reduced, and as in the battery
REDUCED = {3: 30_000, 4: 10_000, 5: 50_000, 8: 25, 9: 20, 10: 10}
FULL = {3: 30_000, 4: 100_000, 5: 1_000_000, 8: 100, 9: 50, 10: 50}
UNIT = {3: "chains", 4: "chains", 5: "steps", 8: "trials", 9: "trials", 10: "trials"}


def run_gate(criterion: int, extra: int, size: int, scratch: Path) -> tuple[bool, str]:
    """One run of a criterion's gate at extra seed ``extra`` and ``size``."""
    shift = 1000 * extra
    if criterion == 3:
        problems, worst = battery.one_step_oracle_gate(n_chains=size, seed=904 + shift)
        return not problems, "; ".join(problems) or f"one-step W1 at most {worst:.2f} of its limit"
    if criterion == 4:
        problems, detail = battery.sampler_stationarity_gate(n_chains=size, seed=41 + shift)
        return not problems, "; ".join(problems) or detail
    if criterion == 5:
        passed, w1, limit = battery.optimizer_stationarity_gate(n_steps=size, seed=51 + shift)
        return passed, f"sliced W1 {w1:.3f} (limit {limit:.2f})"
    if criterion == 8:
        passed, frac = battery.escape_gate(scratch, trials=size, seed=2026 + shift)
        return passed, f"SGD {frac['sgd']:.2f}, Poisson SGD {frac['poisson_sgd']:.2f}"
    if criterion == 9:
        problems, summary = battery.beta_sweep_gate(scratch, trials=size, seed=501 + shift)
        return not problems, "; ".join(problems) or summary
    problems, gaps = battery.generalization_gate(scratch, trials=size, seed=601 + shift)
    return not problems, "; ".join(problems) or f"gaps {gaps}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20, help="extra seeds per criterion")
    parser.add_argument("--first", type=int, default=1, help="first extra seed")
    parser.add_argument("--criteria", default="3,4,5,8,9,10", help="comma-separated numbers")
    parser.add_argument("--full", action="store_true", help="run at the battery's own sizes")
    parser.add_argument("--json", type=Path, help="also write every run to this file")
    args = parser.parse_args(argv)
    sizes = FULL if args.full else REDUCED
    criteria = [int(c) for c in args.criteria.split(",")]
    unknown = sorted(set(criteria) - set(REDUCED))
    if unknown:
        parser.error(f"no calibrated gate for criteria {unknown}")

    runs = []
    for criterion in criteria:
        for extra in range(args.first, args.first + args.seeds):
            started = time.perf_counter()
            with tempfile.TemporaryDirectory() as scratch:
                passed, detail = run_gate(criterion, extra, sizes[criterion], Path(scratch))
            seconds = time.perf_counter() - started
            runs.append(
                {"criterion": criterion, "seed": extra, "passed": passed, "detail": detail, "s": seconds}
            )
            verdict = "pass" if passed else "FAIL"
            print(f"criterion {criterion:2d} seed {extra:2d} {verdict} {seconds:6.1f}s  {detail}", flush=True)

    print("\ncriterion  fails/runs  rate   size")
    for criterion in criteria:
        mine = [r for r in runs if r["criterion"] == criterion]
        fails = sum(not r["passed"] for r in mine)
        size = f"{sizes[criterion]:g} {UNIT[criterion]} ({FULL[criterion]:g} in the battery)"
        print(f"{criterion:9d}  {fails:5d}/{len(mine):<4d}  {fails / len(mine):.2f}   {size}")
    if args.json is not None:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
