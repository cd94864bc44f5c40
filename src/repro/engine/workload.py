"""Query- and update-stream generators for the serving layer.

A workload is an ordered stream of operations: top-k :class:`Request`\\ s,
optionally interleaved with :class:`InsertOp` / :class:`DeleteOp` updates.
Four stream shapes cover the interesting ends of the caching spectrum:

* :func:`uniform_workload` — every user has independent taste; query
  vectors are i.i.d. uniform over the (interior of the) weight space.
  The worst case for GIR caching: hits happen only when GIRs are large.
* :func:`zipf_clustered_workload` — users form preference archetypes
  ("clusters") whose popularity is Zipf-distributed, each user being an
  archetype plus a small personal tweak. This is the situation Section 1's
  result-caching application exploits — most traffic lands in a few hot
  regions of weight space.
* :func:`flash_crowd_workload` — sudden duplicate-heavy bursts over a
  tiny pool of hot vectors, on a thin uniform background. The separating
  regime for the serving front door's single-flight coalescing: most of
  a burst is *the same request*, concurrently in flight, so a tier that
  coalesces serves the burst with one engine pass where a plain proxy
  pays one per request.
* :func:`mixed_workload` — a read stream of either shape with an update
  stream (inserts of fresh records, deletes of live ones) blended in, in
  bursts. This is the scenario where caching strategies are really
  stress-tested (cf. the LDBC mixed read/write analyses): every update
  *may* disturb cached results, and the engine's invalidation policy
  decides how much of the cache survives.

Update streams rely on the engine's rid contract: record ids are
append-only, so the ``i``-th insert of a stream lands at rid
``base_n + i``. :func:`mixed_workload` tracks its own live-id set under
that contract, which lets it emit deletes for records it inserted earlier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "frozen_array",
    "as_generator",
    "Request",
    "InsertOp",
    "DeleteOp",
    "Workload",
    "uniform_workload",
    "zipf_clustered_workload",
    "flash_crowd_workload",
    "mixed_workload",
]

def as_generator(rng: "int | np.integer | np.random.Generator | None") -> np.random.Generator:
    """Normalise a seed-or-generator argument into a ``Generator``.

    All workload generators accept either form, so call sites can pass a
    plain int seed (``uniform_workload(3, 100, rng=7)``) without first
    constructing ``np.random.default_rng(7)`` themselves, while callers
    that thread one generator through several generators keep doing so. A
    ``Generator`` instance is returned unchanged (no reseeding).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is not None and not isinstance(rng, (int, np.integer)):
        raise TypeError(
            f"rng must be an int seed, a numpy Generator or None, "
            f"got {type(rng).__name__}"
        )
    return np.random.default_rng(rng)


def frozen_array(value: np.ndarray, shape_name: str) -> np.ndarray:
    """Defensive read-only copy for frozen dataclass fields.

    Storing the caller's array directly would alias it: a caller mutating
    its query vector in place afterwards would silently corrupt recorded
    accounting and workload replay.

    What this function returns — a read-only float64 vector that owns its
    data — is shared, not copied again: a request's one frozen copy is
    the same array in every response and log entry made from it.
    """
    if (
        type(value) is np.ndarray
        and value.dtype == np.float64
        and value.ndim == 1
        and value.flags.owndata
        and not value.flags.writeable
    ):
        return value
    arr = np.array(value, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{shape_name} must be a 1-d vector")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Request:
    """One top-k request in a workload stream.

    The ``weights`` vector is copied and frozen on construction, so the
    request stays replayable even if the caller reuses its buffer.
    """

    weights: np.ndarray
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", frozen_array(self.weights, "weights")
        )


@dataclass(frozen=True)
class InsertOp:
    """Insert a new record at ``point`` (the engine assigns the rid)."""

    point: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", frozen_array(self.point, "point"))


@dataclass(frozen=True)
class DeleteOp:
    """Delete the live record ``rid``."""

    rid: int


@dataclass
class Workload:
    """An ordered stream of serving operations (reads and/or updates)."""

    requests: list
    #: How the stream was generated (``uniform``, ``zipf_clustered``, ...).
    kind: str = "custom"
    params: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    @property
    def reads(self) -> int:
        return sum(isinstance(op, Request) for op in self.requests)

    @property
    def updates(self) -> int:
        return sum(isinstance(op, (InsertOp, DeleteOp)) for op in self.requests)


def _interior(q: np.ndarray) -> np.ndarray:
    """Clip a query vector to the open interior of the unit box — zero or
    negative weights are degenerate for ranking (see GIRCache docs)."""
    return np.clip(q, 0.01, 1.0)


def uniform_workload(
    d: int,
    count: int,
    k: int = 10,
    rng: "int | np.random.Generator | None" = None,
) -> Workload:
    """I.i.d. uniform query vectors away from the query-space walls.

    ``rng`` accepts an int seed or a ready generator (:func:`as_generator`).
    """
    rng = as_generator(rng)
    requests = [
        Request(weights=rng.random(d) * 0.8 + 0.1, k=k) for _ in range(count)
    ]
    return Workload(
        requests=requests,
        kind="uniform",
        params={"d": float(d), "count": float(count), "k": float(k)},
    )


def zipf_clustered_workload(
    d: int,
    count: int,
    k: int = 10,
    clusters: int = 8,
    zipf_s: float = 1.1,
    spread: float = 0.01,
    rng: "int | np.random.Generator | None" = None,
) -> Workload:
    """Zipf-popular preference archetypes with per-user Gaussian tweaks.

    Parameters
    ----------
    clusters:
        Number of archetype centres, drawn uniform in ``[0.15, 0.85]^d``.
    zipf_s:
        Skew of the (truncated) Zipf law over archetype popularity;
        ``P(rank r) ∝ r^{-s}``. Higher values concentrate traffic.
    spread:
        Standard deviation of the per-query tweak around the archetype.
    rng:
        Int seed or ready generator (:func:`as_generator`).
    """
    if clusters <= 0:
        raise ValueError("clusters must be positive")
    rng = as_generator(rng)
    centres = rng.random((clusters, d)) * 0.7 + 0.15
    ranks = np.arange(1, clusters + 1, dtype=np.float64)
    probs = ranks**-zipf_s
    probs /= probs.sum()
    picks = rng.choice(clusters, size=count, p=probs)
    requests = [
        Request(
            weights=_interior(centres[c] + rng.normal(0.0, spread, d)), k=k
        )
        for c in picks
    ]
    return Workload(
        requests=requests,
        kind="zipf_clustered",
        params={
            "d": float(d),
            "count": float(count),
            "k": float(k),
            "clusters": float(clusters),
            "zipf_s": float(zipf_s),
            "spread": float(spread),
        },
    )


def flash_crowd_workload(
    d: int,
    count: int,
    k: int = 10,
    hot: int = 4,
    burst_len: int = 24,
    duplicate_fraction: float = 0.85,
    spread: float = 0.004,
    background_fraction: float = 0.25,
    rng: "int | np.random.Generator | None" = None,
) -> Workload:
    """Duplicate-heavy request bursts over a small hot weight set.

    The stream alternates between single *background* reads (i.i.d.
    uniform, the cold traffic) and *bursts*: ``burst_len`` consecutive
    requests aimed at one of ``hot`` fixed hot vectors, of which a
    ``duplicate_fraction`` are byte-exact duplicates of the hot vector
    and the rest tiny Gaussian tweaks (``spread``) around it. A burst
    models a flash crowd — many users issuing the *same* preference at
    once — which is precisely the traffic the GIR invariant collapses:
    every request in the burst is certified by the one region the first
    request computes.

    Parameters
    ----------
    hot:
        Number of distinct hot vectors bursts draw from.
    burst_len:
        Requests per burst (the last burst may be truncated by ``count``).
    duplicate_fraction:
        Fraction of a burst that repeats the hot vector exactly.
    spread:
        Std-dev of the tweak applied to the non-duplicate remainder.
    background_fraction:
        Approximate fraction of the stream that is background singles.
    rng:
        Int seed or ready generator (:func:`as_generator`).
    """
    if hot <= 0:
        raise ValueError("hot must be positive")
    if burst_len <= 0:
        raise ValueError("burst_len must be positive")
    if spread < 0.0:
        raise ValueError("spread must be non-negative")
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError("duplicate_fraction must be in [0, 1]")
    if not 0.0 <= background_fraction < 1.0:
        raise ValueError("background_fraction must be in [0, 1)")
    rng = as_generator(rng)
    hot_vectors = rng.random((hot, d)) * 0.7 + 0.15
    # One background single "costs" 1 op, one burst costs burst_len; emit
    # singles at the rate that makes their realised share match.
    p_single = (
        background_fraction
        * burst_len
        / (1.0 - background_fraction + background_fraction * burst_len)
    )
    requests: list = []
    while len(requests) < count:
        if rng.random() < p_single:
            requests.append(Request(weights=rng.random(d) * 0.8 + 0.1, k=k))
            continue
        centre = hot_vectors[int(rng.integers(hot))]
        for _ in range(min(burst_len, count - len(requests))):
            if rng.random() < duplicate_fraction:
                weights = centre
            else:
                weights = _interior(centre + rng.normal(0.0, spread, d))
            requests.append(Request(weights=weights, k=k))
    return Workload(
        requests=requests,
        kind="flash_crowd",
        params={
            "d": float(d),
            "count": float(count),
            "k": float(k),
            "hot": float(hot),
            "burst_len": float(burst_len),
            "duplicate_fraction": float(duplicate_fraction),
            "spread": float(spread),
            "background_fraction": float(background_fraction),
        },
    )


def mixed_workload(
    d: int,
    count: int,
    base_n: int,
    k: int = 10,
    update_fraction: float = 0.2,
    insert_ratio: float = 0.5,
    batch_size: int = 4,
    read_kind: str = "zipf_clustered",
    clusters: int = 8,
    zipf_s: float = 1.1,
    spread: float = 0.01,
    rng: "int | np.random.Generator | None" = None,
) -> Workload:
    """A read stream with update bursts blended in.

    Reads follow ``read_kind`` (``"zipf_clustered"`` default, or
    ``"uniform"``); roughly ``update_fraction`` of the ``count`` operations
    are updates, emitted in bursts of up to ``batch_size`` consecutive ops
    (mimicking batched ingest). Each update is an insert of a fresh
    uniform record with probability ``insert_ratio``, else a delete of a
    uniformly chosen live rid. The generator tracks liveness itself under
    the engine's sequential-rid contract (``base_n`` initial records;
    the ``i``-th insert lands at rid ``base_n + i``) and never shrinks the
    table below ``max(2k, 1)`` live records.

    Parameters
    ----------
    base_n:
        Number of live records in the table the stream will be served
        against (rids ``0 .. base_n-1``).
    update_fraction:
        Target fraction of operations that are updates, in ``[0, 1)``.
    insert_ratio:
        Fraction of updates that are inserts (the rest are deletes).
    batch_size:
        Maximum length of one update burst.
    rng:
        Int seed or ready generator (:func:`as_generator`).
    """
    if not 0.0 <= update_fraction < 1.0:
        raise ValueError("update_fraction must be in [0, 1)")
    if not 0.0 <= insert_ratio <= 1.0:
        raise ValueError("insert_ratio must be in [0, 1]")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if base_n <= 2 * k:
        raise ValueError("base_n must exceed 2k so deletes stay safe")
    rng = as_generator(rng)
    if read_kind == "uniform":
        reads = uniform_workload(d, count, k=k, rng=rng).requests
    elif read_kind == "zipf_clustered":
        reads = zipf_clustered_workload(
            d, count, k=k, clusters=clusters, zipf_s=zipf_s,
            spread=spread, rng=rng,
        ).requests
    else:
        raise ValueError(
            f"unknown read_kind {read_kind!r}; "
            "expected 'uniform' or 'zipf_clustered'"
        )

    live = list(range(base_n))
    next_rid = base_n
    min_live = max(2 * k, 1)
    ops: list = []
    read_iter = iter(reads)
    # A burst emits ~(1+batch_size)/2 updates; start bursts at the rate
    # that makes the realised update share match `update_fraction`.
    mean_burst = (1 + batch_size) / 2.0
    p_burst = update_fraction / (
        mean_burst * (1.0 - update_fraction) + update_fraction
    )
    while len(ops) < count:
        if rng.random() < p_burst:
            burst = int(rng.integers(1, batch_size + 1))
            for _ in range(burst):
                if len(ops) >= count:
                    break
                if rng.random() < insert_ratio or len(live) <= min_live:
                    ops.append(InsertOp(point=rng.random(d)))
                    live.append(next_rid)
                    next_rid += 1
                else:
                    idx = int(rng.integers(len(live)))
                    live[idx], live[-1] = live[-1], live[idx]
                    ops.append(DeleteOp(rid=live.pop()))
        else:
            ops.append(next(read_iter))
    return Workload(
        requests=ops,
        kind=f"mixed_{read_kind}",
        params={
            "d": float(d),
            "count": float(count),
            "k": float(k),
            "base_n": float(base_n),
            "update_fraction": float(update_fraction),
            "insert_ratio": float(insert_ratio),
            "batch_size": float(batch_size),
            "clusters": float(clusters),
            "zipf_s": float(zipf_s),
            "spread": float(spread),
        },
    )
