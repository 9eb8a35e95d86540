"""The traced callables of each layer, what they should move, and where.

Every entry names one public callable of the package.  The tracer wraps it
on every module that binds it (functions imported with ``from .x import f``
live in several namespaces) or, for methods and constructors, on its class.

``MOVES`` records, before any optimization is measured, which end-to-end
metric on which workload a faster layer should improve.  ``required`` lists
the workloads on which a callable must record at least one call in the
traced run; ``IDLE`` lists, per layer, the workloads on which the layer must
record none.
"""

from __future__ import annotations

from dataclasses import dataclass

PLANE, DENSE, TX = "disk-plane", "disk-dense", "tx"
DISK = (PLANE, DENSE)
ALL = (PLANE, DENSE, TX)


@dataclass(frozen=True)
class Traced:
    layer: str             # also the package module that defines the callable
    qualname: str          # "f", "Class.method", or "Class" for the constructor
    required: tuple        # workloads that must record >= 1 call
    nested: bool = False   # calls other traced callables: report self time too


CALLABLES = (
    Traced("sweep", "build_plane_or_witness", DISK, nested=True),
    Traced("sweep", "find_segment_crossing", DISK),
    Traced("disk_triangle", "find_triangle_disk", DISK, nested=True),
    Traced("disk_triangle", "planar_triangle", DISK),
    Traced("disk_triangle", "decide_perimeter", (DENSE,), nested=True),
    Traced("disk_triangle", "shortest_triangle_disk", DISK, nested=True),
    Traced("chan", "optimize", (DENSE, TX), nested=True),
    Traced("grids", "GridIndex", (DENSE, TX)),
    # block_sites and close_pairs are only used by the disk decision and the
    # weighted girth; the tx decision reads neighbor blocks directly
    Traced("grids", "GridIndex.neighbor_keys", (DENSE, TX)),
    Traced("grids", "GridIndex.lookup_many", (DENSE, TX)),
    Traced("grids", "GridIndex.sites_of_runs", (DENSE, TX)),
    Traced("grids", "GridIndex.block_sites", (DENSE,), nested=True),
    Traced("grids", "close_pairs", (DENSE,)),
    Traced("girth", "girth_unweighted", DISK, nested=True),
    Traced("girth", "weighted_girth_disk", DISK, nested=True),
    Traced("girth", "shortest_cycle_through", DISK),
    # on dense graphs every site is large relative to the shortest triangle,
    # so the plane search over small sites has nothing to do
    Traced("girth", "planar_weighted_girth", (PLANE,), nested=True),
    # a non-plane graph has girth 3 without any plane search
    Traced("girth", "planar_girth_unweighted", (PLANE,), nested=True),
    Traced("graphs", "brute_shortest_triangle", (DENSE,)),
    Traced("graphs", "brute_shortest_directed_triangle", (TX,)),
    Traced("graphs", "build_disk_graph_brute", (DENSE,)),
    Traced("graphs", "build_tx_graph_brute", (TX,)),
    Traced("graphs", "brute_girth_unweighted", (PLANE,)),
    Traced("tx", "find_directed_triangle", (TX,), nested=True),
    Traced("tx", "decide_tx_perimeter", (TX,), nested=True),
    Traced("tx", "shortest_triangle_tx", (TX,), nested=True),
    Traced("range_search", "solve_R1", (TX,), nested=True),
    Traced("range_search", "solve_R2", (TX,), nested=True),
    Traced("range_search", "build_query_hulls", (TX,)),
    # needs > 16 lifted queries on one canonical node; triangle-free
    # generated instances give a handful, so no workload is required to reach it
    Traced("range_search", "upper_envelope_faces", ()),
    Traced("radius_tree", "RadiusTree", (TX,)),
    Traced("zorder", "build_compressed_quadtree_from_codes", (TX,)),
    Traced("zorder", "ZKeys.point_codes", (TX,)),
    Traced("sites", "SiteSet.subset", (DENSE, TX)),
    Traced("sites", "SiteSet.normalized", (TX,)),
    Traced("generator", "generate", ALL),
)

# layers that must stay idle on a workload: the sweep never runs on
# transmission graphs, range searching never on disk graphs
IDLE = {"sweep": (TX,), "range_search": DISK}

# layer -> ((end-to-end metric, workloads it should move it on), ...)
MOVES = {
    "sweep": (("exist_p50_ms", DISK), ("opt_p50_ms", (DENSE,))),
    "disk_triangle": (("opt_p50_ms", (DENSE,)),),
    "chan": (("opt_p50_ms", (DENSE, TX)),),
    "grids": (("opt_p50_ms", (TX, DENSE)),),
    "girth": (("opt_p50_ms", DISK),),
    "graphs": (("opt_p50_ms", (DENSE, TX)), ("exist_p50_ms", (PLANE,))),
    "tx": (("exist_p50_ms", (TX,)), ("opt_p50_ms", (TX,))),
    "range_search": (("exist_p50_ms", (TX,)),),
    "radius_tree": (("exist_p50_ms", (TX,)),),
    "zorder": (("exist_p50_ms", (TX,)),),
    "sites": (("opt_p50_ms", (TX, DENSE)),),
    "generator": (("setup_s", ALL),),
}

# counts and ratios measured at the layer boundaries, with their units
EXTRAS = (
    ("sweep", "sweep.witness_frac", "ratio"),
    ("disk_triangle", "decide_perimeter.true_frac", "ratio"),
    ("chan", "chan.decide_calls", "count"),
    ("chan", "chan.base_calls", "count"),
    ("tx", "decide_tx_perimeter.true_frac", "ratio"),
    ("range_search", "solve_R1.crowded_frac", "ratio"),
    ("range_search", "solve_R1.edges", "count"),
    ("range_search", "solve_R2.queries", "count"),
    ("range_search", "solve_R2.hit_frac", "ratio"),
    ("sites", "SiteSet.subset.sites", "count"),
    # each workload's defining property, from the top-level calls
    ("workload", "workload.plane_frac", "ratio"),
    ("workload", "workload.crowded_frac", "ratio"),
    ("workload", "workload.triangle_free_frac", "ratio"),
    ("trace", "trace.overhead_s", "s"),
    ("trace", "trace.overhead_frac", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(layer, metric name, unit) for every per-layer metric, in print order."""
    layers = list(dict.fromkeys([c.layer for c in CALLABLES] + [e[0] for e in EXTRAS]))
    out = []
    for layer in layers:
        for c in CALLABLES:
            if c.layer == layer:
                out.append((layer, f"{c.qualname}.calls", "count"))
                out.append((layer, f"{c.qualname}.s", "s"))
                if c.nested:
                    out.append((layer, f"{c.qualname}.self_s", "s"))
        out.extend(e for e in EXTRAS if e[0] == layer)
    return out
