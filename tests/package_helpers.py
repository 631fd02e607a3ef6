"""Test-side helpers around package objects that nothing in ``poisson_sgd``
needs: a central-difference gradient check, the reader of the NDJSON that
``RunRecord.to_ndjson`` writes, a record's last point and the torus box's
membership test. ``test_objectives``, ``test_records``, ``test_domain``,
``test_optimizer`` and ``test_bps`` use them.
"""

import json
from pathlib import Path

import numpy as np

from poisson_sgd.records import _SCHEMA, RunRecord


def check_gradient(obj, theta, step: float | None = None) -> float:
    """Central-difference check of the full-batch gradient.

    Returns the maximum per-coordinate error, measured relative to the
    analytic component where it exceeds 1 in magnitude and absolutely below
    (so critical points do not inflate the ratio).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape != (obj.domain.dim,):
        raise ValueError("theta must be a single point")
    analytic = np.asarray(obj.grad(theta), dtype=float)
    worst = 0.0
    for i in range(theta.size):
        h = step if step is not None else 1e-6 * max(1.0, abs(theta[i]))
        probe = np.zeros_like(theta)
        probe[i] = h
        fd = (obj.empirical_risk(theta + probe) - obj.empirical_risk(theta - probe)) / (2.0 * h)
        err = abs(fd - analytic[i]) / max(1.0, abs(analytic[i]))
        worst = max(worst, float(err))
    return worst


def read_record(path) -> RunRecord:
    """The record ``RunRecord.to_ndjson`` wrote to ``path``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty record file")
    head = json.loads(lines[0])
    if head.get("schema") != _SCHEMA:
        raise ValueError(f"{path}: unknown schema {head.get('schema')!r}")
    rec = RunRecord(kind=head["kind"], config=head["config"], stride=head["stride"])
    for row in (json.loads(line) for line in lines[1:] if line):
        rec.append(row.pop("k"), row.pop("theta"), row.pop("v"), **row)
    return rec


def final_theta(rec: RunRecord) -> np.ndarray:
    """The point of a record's last row."""
    return np.asarray(rec.rows[-1]["theta"], dtype=float)


def box_contains(domain, points) -> np.ndarray:
    """Whether each point lies in the domain's box ``[0, s_i)``."""
    points = np.asarray(points, dtype=float)
    return np.all((points >= 0.0) & (points < domain.sides), axis=-1)
