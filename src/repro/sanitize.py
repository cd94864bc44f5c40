"""Runtime concurrency sanitizer: ownership tokens on single-owner structures.

The program's structures that hold no lock of their own — one shard
engine, its GIR cache, the cache's region index — are single-owner: the
sharded router's serve lock (or a shard's worker process) serializes
every path that reaches them. :class:`AccessToken` checks that on real
executions: every instrumented method enters its owner's token for its
duration, and two threads inside the same token at the same time, at
least one of them mutating, is a data race by definition and raises
:class:`OwnershipViolation` carrying the stacks of both participants.

There is no lock-order check. The serve lock is the only lock the
program constructs (besides the trace collector's leaf guard, which
never calls out while held), and an acquisition-order inversion needs
two.

Production wiring is **zero-overhead when disabled**: the
:func:`mutates` / :func:`reads` decorators return the function object
untouched unless ``REPRO_SANITIZE=1`` was set at import time. The token
itself always works when constructed directly, so tests can exercise it
in-process without the environment flag.

Costs when enabled are kept proportional: a token access appends a
``(kind, frame)`` pair — stack *formatting* happens only on violation.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import traceback
from types import FrameType
from typing import Any, Callable, Iterator, TypeVar
from contextlib import contextmanager

__all__ = [
    "ENABLED",
    "OwnershipViolation",
    "AccessToken",
    "mutates",
    "reads",
]

#: Frozen at import: flipping the env var later must not half-instrument
#: a process (decorated classes would disagree with live instances).
ENABLED = os.environ.get("REPRO_SANITIZE", "") == "1"

F = TypeVar("F", bound=Callable[..., Any])


class OwnershipViolation(RuntimeError):
    """Two threads were inside one thread-owned structure at once, at
    least one of them mutating."""


def _format_frame(frame: FrameType | None) -> str:
    if frame is None:  # pragma: no cover - frames are always captured
        return "  <no stack captured>"
    return "".join(traceback.format_stack(frame)).rstrip()


# -- ownership tokens ----------------------------------------------------------


class AccessToken:
    """Reentrant, per-structure ownership tag.

    ``access("mutate")`` / ``access("read")`` bracket an instrumented
    method. Concurrent brackets from different threads are legal only
    when *all* of them are reads; any read/mutate or mutate/mutate
    overlap raises :class:`OwnershipViolation` with both stacks. The
    same thread may nest freely (methods call methods).
    """

    __slots__ = ("name", "_guard", "_active")

    def __init__(self, name: str) -> None:
        self.name = name
        self._guard = threading.Lock()
        #: thread id → list of ``(kind, frame)`` currently inside.
        self._active: dict[int, list[tuple[str, FrameType]]] = {}

    @contextmanager
    def access(self, kind: str) -> Iterator[None]:
        me = threading.get_ident()
        frame = sys._getframe(2)  # caller of the with-statement
        with self._guard:
            for tid, entries in self._active.items():
                if tid == me or not entries:
                    continue
                other_kind, other_frame = entries[-1]
                if kind == "mutate" or other_kind == "mutate":
                    raise OwnershipViolation(
                        f"thread-owned structure {self.name!r} touched "
                        f"by two threads at once "
                        f"({kind} in thread {me} vs {other_kind} in "
                        f"thread {tid})\n"
                        f"--- this thread ({kind}) ---\n"
                        f"{_format_frame(frame)}\n"
                        f"--- other thread ({other_kind}) ---\n"
                        f"{_format_frame(other_frame)}"
                    )
            self._active.setdefault(me, []).append((kind, frame))
        try:
            yield
        finally:
            with self._guard:
                entries = self._active[me]
                entries.pop()
                if not entries:
                    del self._active[me]


# -- method instrumentation ----------------------------------------------------

_TOKEN_ATTR = "__repro_sanitize_token__"
_TOKEN_CREATE = threading.Lock()


def _token_of(obj: Any) -> AccessToken:
    token = obj.__dict__.get(_TOKEN_ATTR)
    if token is None:
        with _TOKEN_CREATE:
            token = obj.__dict__.get(_TOKEN_ATTR)
            if token is None:
                token = AccessToken(
                    f"{type(obj).__name__}@{id(obj):#x}"
                )
                obj.__dict__[_TOKEN_ATTR] = token
    return token


def _instrument(kind: str, fn: F) -> F:
    if not ENABLED:
        return fn

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        with _token_of(self).access(kind):
            return fn(self, *args, **kwargs)

    return wrapper  # type: ignore[return-value]


def mutates(fn: F) -> F:
    """Instrument a method as a *mutating* access to its thread-owned
    instance. Identity (zero overhead) when the sanitizer is disabled."""
    return _instrument("mutate", fn)


def reads(fn: F) -> F:
    """Instrument a method as a *read-only* access."""
    return _instrument("read", fn)
