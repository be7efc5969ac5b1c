"""Span and counter recorder for the benchmark's traced runs.

The recorder wraps curie's public functions from outside the package:
each wrapped call opens a span (name, start, end, parent) and may add to
named counters.  Nothing under ``src/`` is edited; the wrappers are
installed for one traced operation and removed afterwards.

A function imported by name into another curie module (``from
curie.engine import negotiate_consortium`` in the harness, say) is a
second binding of the same object, so every binding in every loaded
curie module is replaced, not only the defining one.  Methods are
replaced on their class.

Spans read the process CPU clock, the clock the benchmark's timings
use (see ``run.py``).

Per-row helpers (``predict``, ``encode_row``, ``add_raw``,
``encode_fixed``) are deliberately not wrapped: wrapping a call that
costs about a microsecond would distort the split it is meant to
measure.  Their time counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cpl", "data", "engine", "ddstats", "crypto", "ring",
          "regression", "harness", "transport")


def _rows_scanned(args, kwargs, result):
    ds = args[0] if args else kwargs["ds"]
    filters = args[1] if len(args) > 1 else kwargs["filters"]
    return {"data.select_rows": ds.n if filters else 0}


def _design_rows(args, kwargs, result):
    return {"data.design_rows": result.X.shape[0]}


def _rows_scored(args, kwargs, result):
    validation = args[1] if len(args) > 1 else kwargs["validation"]
    return {"regression.rows_scored": validation.n}


def _message_bytes(args, kwargs, result):
    return {f"transport.messages.{result.kind}": 1,
            f"transport.bytes.{result.kind}": len(result.payload)}


# (span name, module, attribute path, counter hook).  A span name's
# first component is its layer; several attributes may share one span
# name when one metric covers them.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cpl.parse", "curie.cpl.parser", "parse_policy", None),
    ("cpl.validate", "curie.cpl.validator", "validate", None),
    ("data.synth", "curie.data", "synth_members", None),
    ("data.split", "curie.data", "Dataset.split", None),
    ("data.concat", "curie.data", "concat", None),
    ("data.select", "curie.data", "apply_selections", _rows_scanned),
    ("data.normalize", "curie.data", "normalize_columns", None),
    ("data.design", "curie.data", "to_design_matrix", _design_rows),
    ("engine.negotiate", "curie.engine", "negotiate_consortium", None),
    ("engine.build_request", "curie.engine", "build_request", None),
    ("engine.encode", "curie.engine", "AcquireRequest.to_payload", None),
    ("engine.answer", "curie.engine", "answer_request", None),
    ("ddstats.blind", "curie.ddstats", "blind_column", None),
    ("ddstats.eval", "curie.ddstats", "evaluate_blinded", None),
    ("ddstats.eval", "curie.ddstats", "compute_statistic", None),
    ("crypto.keygen", "curie.crypto", "keygen", None),
    ("crypto.encrypt", "curie.crypto", "PublicKey.encrypt_raw", None),
    ("crypto.decrypt", "curie.crypto", "SecretKey.decrypt_raw", None),
    ("crypto.add", "curie.crypto", "add_cipher", None),
    ("crypto.matrix", "curie.crypto", "encode_matrix", None),
    ("crypto.matrix", "curie.crypto", "encrypt_encoded_matrix", None),
    ("crypto.matrix", "curie.crypto", "encrypt_residue_matrix", None),
    ("crypto.matrix", "curie.crypto", "decrypt_residue_matrix", None),
    ("crypto.codec", "curie.crypto", "serialize_cipher_matrix", None),
    ("crypto.codec", "curie.crypto", "parse_cipher_matrix", None),
    ("crypto.codec", "curie.crypto", "serialize_public_key", None),
    ("crypto.codec", "curie.crypto", "parse_public_key", None),
    ("ring.session", "curie.ring", "run_ring_session", None),
    ("ring.local_stats", "curie.ring", "local_stats", None),
    ("regression.solve", "curie.regression", "solve_ols_pruned", None),
    ("regression.fm", "curie.regression", "functional_mechanism", None),
    ("regression.score", "curie.regression", "clinical_metrics", _rows_scored),
    ("harness.run", "curie.harness", "run_scenario", None),
    ("harness.build", "curie.harness", "build_scenario", None),
    ("harness.dp_sweep", "curie.harness", "dp_sweep_from_stats", None),
    ("transport.send", "curie.transport", "MessageLog.send", _message_bytes),
)

MESSAGE_KINDS = ("acquire_request", "negotiation_output", "public_key",
                 "ring_accumulate")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0        # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans and counters while installed (a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            counts[name] += 1
            if hook is not None:
                counts.update(hook(args, kwargs, result))
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        curie_modules = [m for n, m in list(sys.modules.items())
                         if n == "curie" or n.startswith("curie.")]
        for name, module_name, path, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, hook)
            if classes:
                self._replace(owner, attr, wrapped)
                continue
            for module in curie_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # summaries

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, inclusive seconds)."""
        out: dict[str, list] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, [0, 0.0])
            entry[0] += 1
            entry[1] += s.duration
        return {k: (v[0], v[1]) for k, v in out.items()}

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[layer] += s.self_s
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced operation, by metric name."""
    totals = tracer.totals()
    counts = tracer.counts

    def secs(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    encryptions, decryptions = calls("crypto.encrypt"), calls("crypto.decrypt")
    blinded, evaluated = calls("ddstats.blind"), calls("ddstats.eval")
    m = {
        "cpl.parse_s": secs("cpl.parse"),
        "cpl.validate_s": secs("cpl.validate"),
        "cpl.policies": calls("cpl.parse"),
        "data.synth_s": secs("data.synth"),
        "data.split_s": secs("data.split"),
        "data.select_s": secs("data.select"),
        "data.select_rows": counts["data.select_rows"],
        "data.normalize_s": secs("data.normalize"),
        "data.design_s": secs("data.design"),
        "data.design_rows": counts["data.design_rows"],
        "engine.negotiate_s": secs("engine.negotiate"),
        "engine.build_request_s": secs("engine.build_request"),
        "engine.encode_s": secs("engine.encode"),
        "engine.answer_s": secs("engine.answer"),
        "engine.requests": calls("engine.build_request"),
        "ddstats.blind_s": secs("ddstats.blind"),
        "ddstats.columns_blinded": blinded,
        "ddstats.columns_evaluated": evaluated,
        "ddstats.eval_s": secs("ddstats.eval"),
        "ddstats.blind_useful_ratio": evaluated / blinded if blinded else 0.0,
        "crypto.keygen_s": secs("crypto.keygen"),
        "crypto.encrypt_s": secs("crypto.encrypt"),
        "crypto.encryptions": encryptions,
        "crypto.encrypt_ms_per_op": (1e3 * secs("crypto.encrypt") / encryptions
                                     if encryptions else 0.0),
        "crypto.decrypt_s": secs("crypto.decrypt"),
        "crypto.decryptions": decryptions,
        "crypto.decrypt_ms_per_op": (1e3 * secs("crypto.decrypt") / decryptions
                                     if decryptions else 0.0),
        "crypto.add_s": secs("crypto.add"),
        "crypto.codec_s": secs("crypto.codec"),
        "ring.session_s": secs("ring.session"),
        "ring.local_stats_s": secs("ring.local_stats"),
        "ring.local_stats_calls": calls("ring.local_stats"),
        "regression.solve_s": secs("regression.solve"),
        "regression.fm_s": secs("regression.fm"),
        "regression.fm_calls": calls("regression.fm"),
        "regression.score_s": secs("regression.score"),
        "regression.rows_scored": counts["regression.rows_scored"],
        "harness.build_s": secs("harness.build"),
        "harness.dp_sweep_s": secs("harness.dp_sweep"),
    }
    for kind in MESSAGE_KINDS:
        m[f"transport.messages.{kind}"] = counts[f"transport.messages.{kind}"]
        m[f"transport.bytes.{kind}"] = counts[f"transport.bytes.{kind}"]
    for layer, seconds in tracer.layer_self_times().items():
        m[f"{layer}.self_s"] = seconds
    return m
