"""Randomized reduction from geometric optimization to its decision problem.

The driver recurses on r subproblems in uniformly random order, carrying the
best value found so far and asking the decision oracle whether a subproblem
can still improve on it.  The returned optimum is exact and independent of
the seed; only the running time is randomized.

The shortest triangle of a disk graph and the shortest directed triangle of
a transmission graph are both this reduction applied to a perimeter
decision; ``shortest_triangle`` runs it for either graph.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Protocol

from .graphs import Triangle, better_triangle
from .sites import InvariantViolation, SiteSet, triangle_perimeter

# instances of at most N0 sites are solved by brute force
N0 = 16


class ChanInconsistencyError(InvariantViolation):
    """decide() and split()/base_solve() disagree about the optimum."""


class OptProblem(Protocol):
    def size(self) -> int: ...

    def decide(self, t: float) -> bool:
        """Whether the optimum of this subproblem beats t (w(P) < t under the
        tie-perturbed order; t may be math.inf, meaning: any solution at all)."""
        ...

    def split(self) -> list["OptProblem"]:
        """At most r subproblems, each of size <= ceil(alpha * size), whose
        minimum optimum equals this problem's optimum."""
        ...

    def base_solve(self) -> Optional[float]:
        """Exact optimum for small instances (None = no feasible solution)."""
        ...


def optimize(problem: OptProblem, alpha: float, r: int, n0: int,
             rng_seed: int, initial: Optional[float] = None,
             stats: Optional[dict] = None) -> Optional[float]:
    """Exact optimum of `problem`; None when no solution exists.

    `initial` may carry a known achievable value (an upper bound realized by
    an actual solution); passing it skips the open-ended existence decisions
    at the top of the recursion.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if r < 1:
        raise ValueError("r must be >= 1")
    if math.ceil(alpha * (n0 + 1)) > n0:
        raise ValueError(f"n0={n0} too small for alpha={alpha}: recursion would stall")

    rng = random.Random(rng_seed)
    best: Optional[float] = initial
    decide_calls = 0
    base_calls = 0

    def solve(p: OptProblem) -> None:
        nonlocal best, decide_calls, base_calls
        if p.size() <= n0:
            base_calls += 1
            val = p.base_solve()
            if val is not None and (best is None or val < best):
                best = val
            return
        subs = p.split()
        if len(subs) > r:
            raise ChanInconsistencyError(f"split produced {len(subs)} > r={r} subproblems")
        cap = math.ceil(alpha * p.size())
        for sp in subs:
            if sp.size() > cap:
                raise ChanInconsistencyError(
                    f"subproblem size {sp.size()} exceeds ceil(alpha*n) = {cap}")
        order = list(range(len(subs)))
        rng.shuffle(order)
        for k in order:
            sp = subs[k]
            t_entry = best
            decide_calls += 1
            if sp.decide(math.inf if t_entry is None else t_entry):
                solve(sp)
                if best is None:
                    raise ChanInconsistencyError(
                        "decide reported a solution but none was found")
                if t_entry is not None and best >= t_entry:
                    raise ChanInconsistencyError(
                        "decide claimed an improvement the recursion did not find")

    solve(problem)
    if stats is not None:
        stats["decide_calls"] = decide_calls
        stats["base_calls"] = base_calls
    return best


def mod4_split_indices(n: int) -> list[list[int]]:
    """The four index subsets dropping every fourth position, offset 0..3.

    Any three positions survive together in at least one subset, so the
    minimum over subsets preserves a minimum-triangle optimum.
    """
    return [[i for i in range(n) if i % 4 != j] for j in range(4)]


class _TriangleProblem:
    """The shortest triangle among the sites `ids` of `S` (original ids kept).

    `decide(sub, W)` tells whether `sub` has a triangle of perimeter at most
    W; `base(sub)` is the shortest triangle of a small site set.  `best` is a
    one-item list shared by every subproblem: the best triangle found so far.
    """

    def __init__(self, S: SiteSet, ids: list[int], decide, base, best: list):
        self.S = S
        self.ids = ids
        self._decide = decide
        self._base = base
        self.best = best
        self._sub: Optional[SiteSet] = None

    def size(self) -> int:
        return len(self.ids)

    def _subset(self) -> SiteSet:
        if self._sub is None:
            self._sub = self.S.subset(self.ids)
        return self._sub

    def decide(self, t: float) -> bool:
        # the framework needs the strict "w < t"; the decisions answer
        # "<= W", and on float values "< t" is "<= nextafter(t, -inf)"
        return self._decide(self._subset(), math.nextafter(t, -math.inf))

    def split(self):
        return [_TriangleProblem(self.S, [self.ids[i] for i in part],
                                 self._decide, self._base, self.best)
                for part in mod4_split_indices(len(self.ids))]

    def base_solve(self) -> Optional[float]:
        tri = self._base(self._subset())
        if tri is None:
            return None
        orig = tuple(sorted(self.ids[i] for i in tri.ids))
        mapped = Triangle(orig, triangle_perimeter(*(self.S[i] for i in orig)))
        self.best[0] = better_triangle(self.best[0], mapped)
        return mapped.perimeter


def shortest_triangle(S: SiteSet, find: Callable[[SiteSet], Optional[Triangle]],
                      decide: Callable[[SiteSet, float], bool],
                      base: Callable[[SiteSet], Optional[Triangle]],
                      rng_seed: int = 0) -> Optional[Triangle]:
    """Minimum-perimeter triangle of a graph on the sites `S`, or None.

    `find` returns some triangle, `decide` answers the perimeter decision
    "<= W" and `base` is the brute-force shortest triangle.  A first triangle
    from `find` seeds the upper bound, then the randomized framework
    (alpha=3/4, r=4, mod-4 split) closes the gap.
    """
    n = len(S)
    if n < 3:
        return None
    if n <= N0:
        return base(S)
    first = find(S)
    if first is None:
        return None
    best = [first]
    optimize(_TriangleProblem(S, list(range(n)), decide, base, best),
             alpha=0.75, r=4, n0=N0, rng_seed=rng_seed, initial=first.perimeter)
    return best[0]
