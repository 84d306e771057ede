"""Outside-in span tracing of the library's layer modules.

``Tracer.install`` wraps every public function defined in a layer module
(plus ``MoveSeq.build``) and rebinds the wrapper under every name that any
``bottcert`` module, the package included, holds for it, so calls made
through ``from .iso import make_iso`` imports and closures that look up
module globals are recorded too.  ``Tracer.remove`` restores the originals;
the untraced runs never see a wrapper.

Spans are kept in flat arrays while the traced pass runs and written out
afterwards.  Each span has the id of the operation that caused it, its
parent span, its name and start/end in nanoseconds.  Self time is the span's
duration minus the durations of its direct children (calls are nested and
single-threaded, so the children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("ring", "structure", "iso", "moves", "stabilize", "serialize", "cli")
SEARCH = "iso.search_isos"
PRODUCT = "ring.pair_product"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self.stack
        op, parent, names, start, end, error = (
            self.op, self.parent, self.name, self.start, self.end, self.error
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            op.append(self.op_id)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            start.append(clock())
            end.append(0)
            error.append(0)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def _stabilize_hook(self, fn):
        """Always ask stabilize_full for its trace and tally the key steps."""

        @functools.wraps(fn)
        def call(phi, with_trace=False):
            cert, trace = fn(phi, with_trace=True)
            steps = []
            for rt in trace.raises:
                steps.extend(rt.phase1)
                if rt.odd is not None:
                    self.counts["odd_branches"] += 1
                    steps.extend(rt.odd.source_steps)
                    if rt.odd.final_step is not None:
                        steps.append(rt.odd.final_step)
            for step in steps:
                self.counts[f"key_steps.{step.case}"] += 1
            self.counts["certs"] += 1
            self.counts["cert_moves"] += len(cert.f_seq.moves) + len(cert.g_seq.moves)
            return (cert, trace) if with_trace else cert

        return call

    def _search_hook(self, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            found = fn(*args, **kwargs)
            self.counts["found"] += len(found)
            return found

        return call

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap the layer functions of the imported ``bottcert`` package."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"bottcert.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                fn = obj
                if f"{layer}.{attr}" == "stabilize.stabilize_full":
                    fn = self._stabilize_hook(obj)
                elif f"{layer}.{attr}" == SEARCH:
                    fn = self._search_hook(obj)
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", fn))
        modules = [m for key, m in list(sys.modules.items()) if key == "bottcert" or key.startswith("bottcert.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        move_seq = sys.modules["bottcert.moves"].MoveSeq
        build = move_seq.__dict__["build"]
        self._patches.append((move_seq, "build", build))
        move_seq.build = staticmethod(self._wrap("moves.MoveSeq.build", build.__func__))

    def remove(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ---------------------------------------------------------- results

    def stats(self, scale: float = 1.0) -> tuple[dict[str, dict[str, float]], int]:
        """({span name: calls, errors, self_s times ``scale``}, number of
        pair products made under search_isos)."""
        total = len(self.start)
        child = [0] * total
        in_search = bytearray(total)
        search_id = self._name_ids.get(SEARCH, -1)
        product_id = self._name_ids.get(PRODUCT, -1)
        products_in_search = 0
        out: dict[str, dict[str, float]] = {}
        self_ns = Counter()
        for sid in range(total):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            nid = self.name[sid]
            if p >= 0:
                child[p] += dur
                in_search[sid] = in_search[p]
            if nid == search_id:
                in_search[sid] = 1
            elif nid == product_id and in_search[sid]:
                products_in_search += 1
        calls, errors = Counter(), Counter()
        for sid in range(total):
            nid = self.name[sid]
            calls[nid] += 1
            errors[nid] += self.error[sid]
            self_ns[nid] += self.end[sid] - self.start[sid] - child[sid]
        for nid, name in enumerate(self.names):
            out[name] = {"calls": calls[nid], "errors": errors[nid], "self_s": self_ns[nid] * scale / 1e9}
        return out, products_in_search

    def write(self, path) -> None:
        """Gzipped JSON lines: the name table, then one line per span,
        [op, id, parent, name index, start_ns, end_ns, error]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"[{self.op[sid]},{sid},{self.parent[sid]},{self.name[sid]},"
                    f"{self.start[sid]},{self.end[sid]},{self.error[sid]}]\n"
                )
