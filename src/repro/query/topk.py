"""Top-k result containers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from repro.core.tolerances import EXACT_TOL

__all__ = ["TopKResult"]


@dataclass(frozen=True)
class TopKResult:
    """An ordered top-k answer.

    Attributes
    ----------
    ids:
        Record ids sorted by decreasing score (``ids[0]`` is the top-1).
    scores:
        Matching scores, decreasing.
    weights:
        The query vector the result was computed for.
    """

    ids: tuple[int, ...]
    scores: tuple[float, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.scores):
            raise ValueError("ids and scores must have equal length")
        if any(
            self.scores[i] < self.scores[i + 1] - EXACT_TOL
            for i in range(len(self.scores) - 1)
        ):
            raise ValueError("scores must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.ids)

    @cached_property
    def rid_array(self) -> np.ndarray:
        """``ids`` as a read-only int64 array, made once per result: a
        cache hit gathers its answer's rows through it."""
        arr = np.array(self.ids, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @property
    def kth_id(self) -> int:
        """Id of the k-th (lowest ranked) result record — the paper's p_k."""
        return self.ids[-1]

    @property
    def kth_score(self) -> float:
        return self.scores[-1]

    def __contains__(self, rid: int) -> bool:
        return rid in self.ids
