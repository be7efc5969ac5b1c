"""The package's one timing mechanism: ``phase(name)`` adds its block's
wall time to the *name* key of the dict the enclosing ``recording()``
yields, and does nothing outside one."""

import time
from contextlib import contextmanager
from contextvars import ContextVar

_active: ContextVar[dict[str, float] | None] = ContextVar("phases", default=None)


@contextmanager
def recording():
    seconds: dict[str, float] = {}
    token = _active.set(seconds)
    try:
        yield seconds
    finally:
        _active.reset(token)


@contextmanager
def phase(name: str):
    seconds, t0 = _active.get(), time.perf_counter()
    try:
        yield
    finally:
        if seconds is not None:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
