"""Workload definitions: instance families, the calls of one round, sizes.

A workload is a closed loop with one client: a single thread calls the
package's public entry points back to back.  One round calls every entry of
``Workload.calls`` once, each on the next instance of its family; rounds
repeat until the measuring time is over.  All instances come from
``geogirth.generate`` during set-up, seeded from the workload seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def derive(*parts) -> int:
    """A 31-bit seed determined by `parts` (stable across processes)."""
    h = hashlib.blake2b(repr(parts).encode(), digest_size=4).digest()
    return int.from_bytes(h, "little") & 0x7FFFFFFF


@dataclass(frozen=True)
class Family:
    name: str
    n: int                      # sites per instance
    instances: int              # instances generated in set-up
    spec: dict = field(default_factory=dict)   # other GeneratorSpec fields
    oracle_n: int = 128         # size of the oracle-checked instances


@dataclass(frozen=True)
class Call:
    entry: str                  # public entry point of the package
    group: str                  # "exist" or "opt"
    family: str


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple
    calls: tuple
    trace_rounds: int           # rounds of the traced run (fixed, so counts repeat)

    def family(self, name: str) -> Family:
        return next(f for f in self.families if f.name == name)

    def instance_of(self, rnd: int, pos: int) -> int:
        """Index of the instance that the call at `pos` of round `rnd` uses.

        All entry points of a round share one instance per family; a call
        repeated within a round moves on to the next instances."""
        same = [j for j, c in enumerate(self.calls) if c == self.calls[pos]]
        k = rnd * len(same) + same.index(pos)
        return k % self.family(self.calls[pos].family).instances


def _calls(entries, families):
    return tuple(Call(e, g, f) for f in families for e, g in entries)


# tiny radii for plane disk graphs: expected degree well below one
_PLANE = {"r_min": 0.05, "r_max": 0.12}
_CLUSTERED = {"centers": "clustered"}
_POWER = {"radius_law": "power"}
# radii from 0.01 to 0.1 (times 1/sqrt(n)): a few arcs toward disks more
# than twice as large reach the lifted-polytope batch, but no directed
# triangle closes, so the batch runs to the end
_TINY = {"r_min": 0.01, "r_max": 0.1}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="disk-plane",
        families=(Family("plane", 1024, 256, _PLANE, oracle_n=256),),
        calls=_calls((("find_triangle_disk", "exist"), ("girth_unweighted", "exist"),
                      ("weighted_girth_disk", "opt")), ("plane",)),
        trace_rounds=24,
    ),
    Workload(
        name="disk-dense",
        families=(Family("uniform", 384, 48), Family("clustered", 384, 48, _CLUSTERED),
                  Family("power", 384, 48, _POWER)),
        calls=_calls((("find_triangle_disk", "exist"), ("girth_unweighted", "exist"),
                      ("shortest_triangle_disk", "opt"), ("weighted_girth_disk", "opt")),
                     ("uniform", "clustered", "power")),
        trace_rounds=6,
    ),
    Workload(
        name="tx",
        # existence at a size where clustered centers crowd a square; the
        # optimization costs far more per site, so it runs five times a
        # round on small clustered instances
        families=(Family("uniform", 16384, 8), Family("clustered", 16384, 8, _CLUSTERED),
                  Family("tiny", 16384, 8, _TINY),
                  Family("clustered-opt", 128, 128, _CLUSTERED, oracle_n=96)),
        calls=(_calls((("find_directed_triangle", "exist"),), ("uniform", "clustered", "tiny"))
               + 5 * _calls((("shortest_triangle_tx", "opt"),), ("clustered-opt",))),
        trace_rounds=3,
    ),
)}


def instance_seed(seed: int, workload: str, family: str, k: int) -> int:
    return derive("instance", seed, workload, family, k)


def rng_seed(seed: int, workload: str, rnd: int, pos: int) -> int:
    """The optimization seed of the call at position `pos` of round `rnd`."""
    return derive("rng", seed, workload, rnd, pos)


def scaled(n: int, scale: float) -> int:
    return max(8, int(round(n * scale)))
