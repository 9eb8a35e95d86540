"""Seeded random instance generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sites import SiteSet, coincident_centers


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random instance; deterministic given the seed.

    centers: "uniform" in the unit square or "clustered" (Gaussian blobs
    around sqrt(n) uniform cluster centers).
    radius_law: "uniform" on [r_min, r_max] or "power" with tail exponent
    gamma > 1 above r_min.
    Radii are scaled by 1/sqrt(n) by default so expected degree stays flat
    across sizes.
    """

    n: int
    centers: str = "uniform"
    radius_law: str = "uniform"
    r_min: float = 0.25
    r_max: float = 0.55
    gamma: float = 2.5
    seed: int = 0
    scale_by_sqrt_n: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.centers not in ("uniform", "clustered"):
            raise ValueError(f"unknown center distribution {self.centers!r}")
        if self.radius_law not in ("uniform", "power"):
            raise ValueError(f"unknown radius law {self.radius_law!r}")
        if not (self.r_min > 0):
            raise ValueError("r_min must be positive")
        if self.radius_law == "uniform" and self.r_max < self.r_min:
            raise ValueError("r_max must be >= r_min")
        if self.radius_law == "power" and self.gamma <= 1.0:
            raise ValueError("power law needs gamma > 1")


def generate(spec: GeneratorSpec) -> SiteSet:
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.centers == "uniform":
        xs = rng.random(n)
        ys = rng.random(n)
    else:
        k = max(1, int(round(np.sqrt(n))))
        cx = rng.random(k)
        cy = rng.random(k)
        which = rng.integers(0, k, size=n)
        sigma = 0.5 / max(np.sqrt(n), 2.0)
        xs = cx[which] + rng.normal(0.0, sigma, size=n)
        ys = cy[which] + rng.normal(0.0, sigma, size=n)
    if spec.radius_law == "uniform":
        rs = rng.uniform(spec.r_min, spec.r_max, size=n)
    else:
        u = rng.random(n)
        rs = spec.r_min * (1.0 - u) ** (-1.0 / (spec.gamma - 1.0))
    if spec.scale_by_sqrt_n:
        rs = rs / np.sqrt(n)

    # coincident centers would violate general position; perturb
    # determinately.  The last coincidence test serves the site check.
    order, same = coincident_centers(xs, ys)
    for _ in range(16):
        if not same.any():
            break
        dup = np.zeros(n, dtype=bool)
        dup[order[1:][same]] = True
        k = int(dup.sum())
        xs[dup] = rng.random(k)
        ys[dup] = rng.random(k)
        order, same = coincident_centers(xs, ys)

    S = SiteSet._from_arrays(xs, ys, rs)
    S._check((order, same))
    return S
