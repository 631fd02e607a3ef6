"""One round of a workload in a fresh interpreter.

Usage: ``python3 child.py ROOT CONFIG OUT_DIR RESULT MODE``

Runs ``poisson-sgd run CONFIG --out OUT_DIR`` through the package's own CLI
entry point, imported from ``ROOT/src``, and writes RESULT (JSON) with the
round's clock readings, chain-steps, peak resident memory and, in MODE
``traced``, the span trace; MODE ``untraced`` adds no spans. Clock readings
are ``time.monotonic()``, which all processes on the machine share, so the
parent can subtract its launch time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.

    ``VmHWM`` starts afresh at exec; ``getrusage``'s ``ru_maxrss`` does not,
    it keeps the parent's resident size at fork as a floor.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    root, config, out_dir, result_path, mode = argv
    src = Path(root).resolve() / "src"
    sys.path.insert(0, str(src))
    import poisson_sgd
    from poisson_sgd import cli

    if Path(poisson_sgd.__file__).resolve().parent != src / "poisson_sgd":
        raise SystemExit(f"imported poisson_sgd from {poisson_sgd.__file__}, not from {src}")

    from tracer import Clock, Tracer

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    clock = Clock()
    clock.install()
    code = cli.main(["run", config, "--out", out_dir])
    end = time.monotonic()
    result = {
        "exit_code": code,
        "first_step": clock.first_step,
        "end": end,
        "chain_steps": clock.chain_steps,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
