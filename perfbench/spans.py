"""Spans around the public callables of each layer, recorded from outside.

``Tracer.installed()`` replaces every binding of every callable listed in
``layers.CALLABLES`` with a wrapper that records one span per call and puts
the originals back on exit.  Spans stay in memory; ``write`` stores them as
JSON lines once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

from layers import CALLABLES, IDLE

PACKAGE = "geogirth"


def _tag_optimize(args, kwargs, res):
    stats = args[_STATS_POS] if len(args) > _STATS_POS else kwargs["stats"]
    return (stats["decide_calls"], stats["base_calls"])


def _tag_solve_r1(args, kwargs, res):
    if res.is_crowded:
        return -1
    return int(sum(len(e) for e in res.edges))


def _tag_solve_r2(args, kwargs, res):
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    return (len(queries), res is not None)


# what each span keeps of its call's outcome, for the per-layer counts
TAGS = {
    "build_plane_or_witness": lambda a, k, r: r.plane,
    "find_triangle_disk": lambda a, k, r: r is not None,
    "decide_perimeter": lambda a, k, r: bool(r),
    "optimize": _tag_optimize,
    "find_directed_triangle": lambda a, k, r: r is not None,
    "decide_tx_perimeter": lambda a, k, r: bool(r),
    "solve_R1": _tag_solve_r1,
    "solve_R2": _tag_solve_r2,
    "SiteSet.subset": lambda a, k, r: len(r),
}

# positional index of optimize's `stats` parameter
_STATS_POS = 6

# span fields
NAME, START, END, PARENT, CALL, SELF, TAG = range(7)


class Tracer:
    """Records spans (name, start, end, parent span, call id, self time, tag)."""

    def __init__(self):
        self.names = [c.qualname for c in CALLABLES]
        self.spans: list[list] = []
        self.call_id = -1
        self._stack: list[list] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        tag = TAGS.get(name)
        inject_stats = name == "optimize"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inject_stats and len(args) <= _STATS_POS and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                self._close(frame, idx, t0, t1, parent, "raised")
                raise
            t1 = clock()
            self._close(frame, idx, t0, t1, parent,
                        tag(args, kwargs, res) if tag is not None else None)
            return res

        return wrapper

    def _close(self, frame, idx, t0, t1, parent, tag):
        self._stack.pop()
        d = t1 - t0
        if self._stack:
            self._stack[-1][1] += d
        self.spans[frame[0]] = [idx, t0, t1, parent, self.call_id, d - frame[1], tag]

    def _bindings(self):
        """(callable index, owner, attribute, original) per binding to replace."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        out = []
        for idx, c in enumerate(CALLABLES):
            home = sys.modules[f"{PACKAGE}.{c.layer}"]
            if "." in c.qualname:
                cls_name, meth = c.qualname.split(".")
                cls = getattr(home, cls_name)
                out.append((idx, cls, meth, cls.__dict__[meth]))
            elif isinstance(getattr(home, c.qualname), type):
                cls = getattr(home, c.qualname)
                out.append((idx, cls, "__init__", cls.__dict__["__init__"]))
            else:
                orig = getattr(home, c.qualname)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            out.append((idx, m, attr, orig))
        return out

    @contextmanager
    def installed(self, call_id: int):
        """Trace every listed callable; calls made inside carry `call_id`."""
        wrappers: dict[int, object] = {}
        saved = []
        for idx, owner, attr, orig in self._bindings():
            w = wrappers.get(id(orig))
            if w is None:
                w = wrappers[id(orig)] = self._wrap(idx, orig)
            setattr(owner, attr, w)
            saved.append((owner, attr, orig))
        self.call_id = call_id
        try:
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)
            self.call_id = -1

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_t = [0.0] * n
        by_name: dict[str, list] = {name: [] for name in self.names}
        for sp in self.spans:
            i = sp[NAME]
            calls[i] += 1
            total[i] += sp[END] - sp[START]
            self_t[i] += sp[SELF]
            by_name[self.names[i]].append(sp)

        out: dict[str, float] = {}
        for i, c in enumerate(CALLABLES):
            out[f"{c.qualname}.calls"] = calls[i]
            out[f"{c.qualname}.s"] = total[i]
            if c.nested:
                out[f"{c.qualname}.self_s"] = self_t[i]

        def frac(spans, pred):
            return sum(1 for sp in spans if pred(sp[TAG])) / len(spans) if spans else 0.0

        sweeps = by_name["build_plane_or_witness"]
        out["sweep.witness_frac"] = frac(sweeps, lambda t: t is False)
        out["decide_perimeter.true_frac"] = frac(by_name["decide_perimeter"], lambda t: t is True)
        opt = [sp[TAG] for sp in by_name["optimize"] if isinstance(sp[TAG], tuple)]
        out["chan.decide_calls"] = sum(t[0] for t in opt)
        out["chan.base_calls"] = sum(t[1] for t in opt)
        out["decide_tx_perimeter.true_frac"] = frac(by_name["decide_tx_perimeter"],
                                                    lambda t: t is True)
        r1 = by_name["solve_R1"]
        out["solve_R1.crowded_frac"] = frac(r1, lambda t: t == -1)
        out["solve_R1.edges"] = sum(sp[TAG] for sp in r1 if isinstance(sp[TAG], int) and sp[TAG] > 0)
        r2 = [sp for sp in by_name["solve_R2"] if isinstance(sp[TAG], tuple)]
        out["solve_R2.queries"] = sum(sp[TAG][0] for sp in r2)
        out["solve_R2.hit_frac"] = frac(r2, lambda t: t[1])
        out["SiteSet.subset.sites"] = sum(sp[TAG] for sp in by_name["SiteSet.subset"]
                                          if isinstance(sp[TAG], int))

        # defining properties, from the existence queries on whole instances
        top = {i for i, sp in enumerate(self.spans) if sp[PARENT] == -1 and sp[CALL] >= 0}
        exist_idx = {self.names.index("find_triangle_disk"),
                     self.names.index("find_directed_triangle")}
        whole = {i for i in top if self.spans[i][NAME] in exist_idx}
        out["workload.plane_frac"] = frac(
            [sp for sp in sweeps if sp[PARENT] in whole], lambda t: t is True)
        out["workload.crowded_frac"] = frac(
            [sp for sp in r1 if sp[PARENT] in whole], lambda t: t == -1)
        out["workload.triangle_free_frac"] = frac(
            [self.spans[i] for i in whole], lambda t: t is False)
        return out

    def coverage_errors(self, workload: str, summary: dict[str, float]) -> list[str]:
        """Callables required on `workload` that never ran, and idle layers
        that did."""
        errors = []
        for c in CALLABLES:
            calls = summary[f"{c.qualname}.calls"]
            if workload in c.required and calls < 1:
                errors.append(f"{c.qualname} recorded no call on {workload}")
            if workload in IDLE.get(c.layer, ()) and calls > 0:
                errors.append(f"{c.qualname} ({c.layer}) recorded {calls} calls "
                              f"on {workload}, where the layer must stay idle")
        return errors

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t_ref = min((sp[START] for sp in self.spans), default=0.0)
        with open(path, "w") as f:
            for i, sp in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": self.names[sp[NAME]],
                    "start": sp[START] - t_ref, "end": sp[END] - t_ref,
                    "parent": sp[PARENT], "call": sp[CALL],
                    "self": sp[SELF], "tag": sp[TAG]}) + "\n")
