"""Answer checks: witnesses against their instance, answers of one instance
against each other, and oracle agreement on small instances.

Every check returns an error string, or None when the answer passes.
"""

from __future__ import annotations

from geogirth import GeneratorSpec, generate
from geogirth.graphs import (ORACLE_CAP, Cycle, Triangle, brute_directed_triangle,
                             brute_girth_unweighted, brute_min_weight_cycle,
                             brute_shortest_directed_triangle, brute_shortest_triangle,
                             brute_triangle, build_disk_graph_brute, build_tx_graph_brute,
                             triangle_is_valid_disk, triangle_is_valid_tx)
from geogirth.sites import disk_edge, dist, triangle_perimeter
from workloads import instance_seed

REL_TOL = 1e-9

DISK_ENTRIES = ("find_triangle_disk", "shortest_triangle_disk")
TX_ENTRIES = ("find_directed_triangle", "shortest_triangle_tx")
CYCLE_ENTRIES = ("weighted_girth_disk",)
GIRTH_ENTRIES = ("girth_unweighted",)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_triangle(S, t, valid) -> str | None:
    if t is None:
        return None
    if not isinstance(t, Triangle):
        return f"expected a Triangle, got {type(t).__name__}"
    if not valid(S, t):
        return f"{t.ids} is not a triangle of the graph"
    i, j, k = t.sorted_ids
    if not _close(t.perimeter, triangle_perimeter(S[i], S[j], S[k])):
        return f"{t.ids} reports perimeter {t.perimeter!r}, not its own"
    return None


def check_cycle(S, c) -> str | None:
    if c is None:
        return None
    if not isinstance(c, Cycle):
        return f"expected a Cycle, got {type(c).__name__}"
    vs = c.vertices
    if len(vs) < 3 or len(set(vs)) != len(vs):
        return f"cycle {vs} is not simple"
    total = 0.0
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if not disk_edge(S[a], S[b]):
            return f"cycle step {a}-{b} is not an edge"
        total += dist(S[a], S[b])
    if not _close(total, c.length):
        return f"cycle length {c.length!r} differs from its edge sum {total!r}"
    return None


def check_girth(g) -> str | None:
    if g is None or (isinstance(g, int) and g >= 3):
        return None
    return f"girth {g!r} is not None or an integer >= 3"


def check_answer(entry: str, S, res) -> str | None:
    """Is `res` a valid answer of `entry` on instance `S`?"""
    if entry in DISK_ENTRIES:
        return check_triangle(S, res, triangle_is_valid_disk)
    if entry in TX_ENTRIES:
        return check_triangle(S, res, triangle_is_valid_tx)
    if entry in CYCLE_ENTRIES:
        return check_cycle(S, res)
    if entry in GIRTH_ENTRIES:
        return check_girth(res)
    raise ValueError(f"no check for entry point {entry!r}")


def answer_key(res):
    """What two calls on one instance must agree on."""
    if isinstance(res, (Triangle, Cycle)):
        return res.key()
    return res


def check_consistent(answers: dict) -> str | None:
    """Answers of different entry points on one disk instance must agree:
    a triangle exists iff the girth is 3, the shortest triangle exists iff
    some triangle does, and the weighted girth is no longer than it."""
    missing = object()
    tri = answers.get("find_triangle_disk", missing)
    girth = answers.get("girth_unweighted", missing)
    short = answers.get("shortest_triangle_disk", missing)
    cyc = answers.get("weighted_girth_disk", missing)
    if tri is not missing and girth is not missing and (tri is not None) != (girth == 3):
        return f"triangle {tri} but girth {girth}"
    if tri is not missing and short is not missing:
        if (tri is None) != (short is None):
            return f"triangle {tri} but shortest triangle {short}"
        if short is not None and short.perimeter > tri.perimeter * (1 + REL_TOL):
            return f"shortest triangle {short.perimeter} longer than {tri.perimeter}"
    if cyc is not missing:
        bound = short if short is not missing else tri
        if bound is not missing and bound is not None and \
                (cyc is None or cyc.length > bound.perimeter * (1 + REL_TOL)):
            return f"weighted girth {cyc} exceeds a triangle of perimeter {bound.perimeter}"
        if girth is not missing and (cyc is None) != (girth is None):
            return f"weighted girth {cyc} but girth {girth}"
        if girth is not missing and cyc is not None and cyc.hops < girth:
            return f"weighted-girth cycle has {cyc.hops} hops, below the girth {girth}"
    return None


def _oracle(entry: str, S):
    """The brute-force answer of `entry` on a small instance."""
    if entry in ("find_triangle_disk", "shortest_triangle_disk", "girth_unweighted",
                 "weighted_girth_disk"):
        g = build_disk_graph_brute(S)
        if entry == "find_triangle_disk":
            return brute_triangle(g, S)
        if entry == "shortest_triangle_disk":
            return brute_shortest_triangle(g, S)
        if entry == "girth_unweighted":
            return brute_girth_unweighted(g)
        return brute_min_weight_cycle(g)
    g = build_tx_graph_brute(S)
    if entry == "find_directed_triangle":
        return brute_directed_triangle(g, S)
    return brute_shortest_directed_triangle(g, S)


def oracle_agrees(entry: str, fast, brute) -> str | None:
    """Exact agreement with the oracle: existence for the existence queries
    (any witness is valid), the optimum for the optimization queries."""
    if entry in ("find_triangle_disk", "find_directed_triangle"):
        ok = (fast is None) == (brute is None)
    elif entry in ("shortest_triangle_disk", "shortest_triangle_tx", "girth_unweighted"):
        ok = answer_key(fast) == answer_key(brute)
    else:
        ok = (fast is None) == (brute is None) and (
            fast is None or _close(fast.length, brute.length))
    return None if ok else f"{entry} gave {fast}, the oracle {brute}"


def oracle_instance(family, seed: int, workload: str):
    n = min(family.oracle_n, ORACLE_CAP)
    return generate(GeneratorSpec(n=n, seed=instance_seed(seed, workload, family.name, -1),
                                  **family.spec))


def run_oracles(gg, workload, seed: int) -> tuple[int, list[str]]:
    """Each entry point of the workload on one oracle-size instance of each
    of its families, compared with the brute-force oracle."""
    attempted, errors = 0, []
    for fam in workload.families:
        entries = sorted({c.entry for c in workload.calls if c.family == fam.name})
        if not entries:
            continue
        S = oracle_instance(fam, seed, workload.name)
        for entry in entries:
            attempted += 1
            try:
                fast = getattr(gg, entry)(S)
                err = check_answer(entry, S, fast) or oracle_agrees(entry, fast, _oracle(entry, S))
            except Exception as e:   # a raising call is a failed answer
                err = f"{entry} raised {e!r}"
            if err:
                errors.append(f"oracle {fam.name} n={len(S)}: {err}")
    return attempted, errors
