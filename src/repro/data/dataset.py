"""Dataset containers used across the library.

A :class:`Dataset` wraps an ``(n, d)`` float64 array of records normalised to
the unit hyper-cube ``[0, 1]^d``, exactly as assumed by the paper
(Section 3.1). Records are addressed by integer ids ``0 .. n-1`` which are
stable across all index and query structures.

:class:`PointTable` is the *mutable* counterpart backing the dynamic
serving engine: record ids stay append-only and stable (an insert returns
the next fresh rid; a delete tombstones its row rather than renumbering),
so every structure keyed by rid — the R*-tree, cached GIRs — remains
addressable across updates.
"""

from __future__ import annotations

import numpy as np
from repro.core.tolerances import MEMBERSHIP_TOL

__all__ = ["Dataset", "PointTable", "grow_rows"]


def grow_rows(buf: np.ndarray, used: int) -> np.ndarray:
    """Return a buffer with room for at least one more row past ``used``,
    doubling capacity when full (contents of the first ``used`` rows are
    preserved). Shared by :class:`PointTable` and any parallel per-row
    image a caller maintains in lockstep (e.g. the engine's g-space
    buffer), so both follow the same growth policy.
    """
    if used < buf.shape[0]:
        return buf
    grown = np.empty((max(4, 2 * buf.shape[0]), *buf.shape[1:]), dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


class Dataset:
    """An immutable collection of ``n`` records with ``d`` numeric attributes.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``. Values are expected in ``[0, 1]``; use
        :meth:`from_raw` to min-max normalise arbitrary data first.
    name:
        Human-readable label used in benchmark reports.
    """

    __slots__ = ("points", "name")

    def __init__(self, points: np.ndarray, name: str = "dataset") -> None:
        points = np.array(points, dtype=np.float64, copy=True)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-dimensional, got shape {points.shape}")
        if points.shape[0] == 0 or points.shape[1] == 0:
            raise ValueError(f"dataset must be non-empty, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        if points.min() < -MEMBERSHIP_TOL or points.max() > 1 + MEMBERSHIP_TOL:
            raise ValueError(
                "points must lie in [0, 1]^d; use Dataset.from_raw to normalise"
            )
        np.clip(points, 0.0, 1.0, out=points)
        points.setflags(write=False)
        self.points = points
        self.name = str(name)

    # -- basic geometry -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of records."""
        return int(self.points.shape[0])

    @property
    def d(self) -> int:
        """Dimensionality (number of attributes)."""
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rid: int) -> np.ndarray:
        return self.points[rid]

    # -- scoring ------------------------------------------------------------

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Dot-product scores of every record under query vector ``weights``."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.d,):
            raise ValueError(f"expected weight vector of shape ({self.d},)")
        return self.points @ weights

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_raw(cls, raw: np.ndarray, name: str = "dataset") -> "Dataset":
        """Min-max normalise ``raw`` per attribute into ``[0, 1]^d``.

        Constant attributes (zero spread) map to 0.5 so they carry no
        preference signal but stay inside the unit cube.
        """
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2:
            raise ValueError("raw data must be 2-dimensional")
        lo = raw.min(axis=0)
        hi = raw.max(axis=0)
        spread = hi - lo
        constant = spread <= 0
        safe_spread = np.where(constant, 1.0, spread)
        normalised = (raw - lo) / safe_spread
        normalised[:, constant] = 0.5
        return cls(normalised, name=name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset(name={self.name!r}, n={self.n}, d={self.d})"


class PointTable:
    """A growable point table with stable rids and tombstoned deletes.

    The dynamic engine's record store. Rows live in a capacity-doubling
    buffer; ``insert`` appends at the next fresh rid, ``delete`` marks the
    row dead without renumbering, so rids handed to the R*-tree and to
    cached GIRs stay valid for the table's lifetime. The raw row array
    (including dead rows) is exposed through :attr:`rows` for algorithms
    that index by rid; live-only views come from :meth:`live_ids` /
    :attr:`live_mask`.

    Parameters
    ----------
    points:
        Initial ``(n, d)`` records in ``[0, 1]^d`` (all live).
    name:
        Label used in reports.
    """

    __slots__ = ("_buf", "_live", "_n", "_n_live", "name")

    def __init__(self, points: np.ndarray, name: str = "table") -> None:
        points = np.array(points, dtype=np.float64, copy=True)
        if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] == 0:
            raise ValueError(f"need a non-empty (n, d) array, got {points.shape}")
        _check_unit_cube(points)
        self._buf = points
        self._live = np.ones(points.shape[0], dtype=bool)
        self._n = points.shape[0]
        #: Live-row count, kept in step with ``_live`` so the serving
        #: path's per-batch ``k <= n_live`` check is O(1), not a mask sum.
        self._n_live = self._n
        self.name = str(name)

    @classmethod
    def from_dataset(cls, data: "Dataset") -> "PointTable":
        return cls(data.points, name=data.name)

    # -- views ----------------------------------------------------------------

    @property
    def d(self) -> int:
        return int(self._buf.shape[1])

    @property
    def n_allocated(self) -> int:
        """Rows ever allocated (live + tombstoned); rids are ``0 .. n_allocated-1``."""
        return self._n

    @property
    def n_live(self) -> int:
        return self._n_live

    def __len__(self) -> int:
        return self.n_live

    @property
    def rows(self) -> np.ndarray:
        """Read-only ``(n_allocated, d)`` view of every row, dead ones
        included — index by rid. Re-fetch after inserts (growth reallocates)."""
        view = self._buf[: self._n]
        view.setflags(write=False)
        return view

    @property
    def live_mask(self) -> np.ndarray:
        """Read-only boolean mask over :attr:`rows` (True = live)."""
        view = self._live[: self._n]
        view.setflags(write=False)
        return view

    def live_ids(self) -> np.ndarray:
        """Rids of the live records, ascending."""
        return np.flatnonzero(self._live[: self._n])

    def is_live(self, rid: int) -> bool:
        return 0 <= rid < self._n and bool(self._live[rid])

    def point(self, rid: int) -> np.ndarray:
        """The record's point (read-only view); the row may be tombstoned."""
        if not 0 <= rid < self._n:
            raise KeyError(f"rid {rid} was never allocated")
        view = self._buf[rid]
        view.setflags(write=False)
        return view

    # -- mutation -------------------------------------------------------------

    def insert(self, point: np.ndarray) -> int:
        """Append a record; returns its (fresh, stable) rid."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.d,):
            raise ValueError(f"expected point of shape ({self.d},)")
        _check_unit_cube(point)
        if self._n == self._buf.shape[0]:
            self._buf = grow_rows(self._buf, self._n)
            live_grown = np.zeros(self._buf.shape[0], dtype=bool)
            live_grown[: self._n] = self._live[: self._n]
            self._live = live_grown
        rid = self._n
        self._buf[rid] = np.clip(point, 0.0, 1.0)
        self._live[rid] = True
        self._n += 1
        self._n_live += 1
        return rid

    def delete(self, rid: int) -> np.ndarray:
        """Tombstone a live record; returns a copy of its point (the tree
        needs the coordinates to locate the leaf entry)."""
        if not self.is_live(rid):
            raise KeyError(f"rid {rid} is not a live record")
        self._live[rid] = False
        self._n_live -= 1
        return self._buf[rid].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PointTable(name={self.name!r}, live={self.n_live}, "
            f"allocated={self._n}, d={self.d})"
        )


def _check_unit_cube(points: np.ndarray) -> None:
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    if points.min() < -MEMBERSHIP_TOL or points.max() > 1 + MEMBERSHIP_TOL:
        raise ValueError("points must lie in [0, 1]^d")
