"""Trajectory records with a canonical, replay-stable on-disk encoding.

Records accumulate in memory as columns and serialize as NDJSON: one header
object, then one object per retained step, every line canonical JSON (sorted
keys, no whitespace, no NaN). Identical runs therefore produce byte-identical
files; in-memory diagnostics are never written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["canonical_json", "RunRecord"]

_SCHEMA = "poisson-sgd/run-record/1"


def canonical_json(obj) -> str:
    """Deterministic JSON encoding: sorted keys, compact, finite numbers only.

    Numpy scalars and arrays are converted to their Python equivalents first,
    so summaries assembled from array math serialize the same as hand-written
    literals.
    """
    return json.dumps(_jsonify(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _jsonify(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


@dataclass
class RunRecord:
    """Stride-thinned trajectory of one chain.

    ``append`` keeps every row it is given; the chain loop decides which
    steps to keep (multiples of ``stride`` plus the final step), and
    ``stride`` is written in the header so a reader knows the spacing.
    """

    kind: str
    config: dict
    stride: int = 1
    # in-memory diagnostic only; never serialized
    max_norm_deviation: float | None = None
    _rows: list[dict] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        self.config = _jsonify(self.config)

    def append(self, k: int, theta, velocity, eta: float | None = None, **extras) -> None:
        row = {
            "k": int(k),
            "theta": np.asarray(theta, dtype=float).tolist(),
            "v": np.asarray(velocity, dtype=float).tolist(),
        }
        if eta is not None:
            row["eta"] = float(eta)
        for key, value in extras.items():
            row[key] = _jsonify(value)
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[dict]:
        return self._rows

    def column(self, name: str) -> np.ndarray:
        """Stack one field across retained steps into an array."""
        if not self._rows:
            raise ValueError("record is empty")
        return np.asarray([row[name] for row in self._rows])

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def header(self) -> dict:
        return {
            "schema": _SCHEMA,
            "kind": self.kind,
            "config": self.config,
            "stride": self.stride,
        }

    def to_ndjson(self, path) -> None:
        lines = [canonical_json(self.header())]
        lines.extend(canonical_json(row) for row in self._rows)
        Path(path).write_text("\n".join(lines) + "\n")

    def to_csv(self, path) -> None:
        """Flat export for plotting: k, theta_*, v_*, then any scalar extras."""
        if not self._rows:
            raise ValueError("record is empty")
        d = len(self._rows[0]["theta"])
        scalar_keys = sorted(
            k
            for k in self._rows[0]
            if k not in ("k", "theta", "v") and not isinstance(self._rows[0][k], list)
        )
        cols = (
            ["k"]
            + [f"theta_{i}" for i in range(d)]
            + [f"v_{i}" for i in range(d)]
            + scalar_keys
        )
        out = [",".join(cols)]
        for row in self._rows:
            cells = [repr(row["k"])]
            cells += [repr(x) for x in row["theta"]]
            cells += [repr(x) for x in row["v"]]
            cells += [
                row[k] if isinstance(row[k], str) else repr(row[k]) for k in scalar_keys
            ]
            out.append(",".join(cells))
        Path(path).write_text("\n".join(out) + "\n")
