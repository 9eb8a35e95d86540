"""Triangles and girth of disk graphs, and directed triangles of
transmission graphs, in near-linear time, with brute-force oracles."""

from .chan import ChanInconsistencyError, OptProblem, optimize
from .disk_triangle import (ShiftedGrids, decide_perimeter, find_triangle_disk,
                            planar_triangle, shortest_triangle_disk)
from .generator import GeneratorSpec, generate
from .girth import (ShortestPathTree, dijkstra_tree, girth_unweighted,
                    planar_girth_unweighted, planar_weighted_girth,
                    shortest_cycle_through, weighted_girth_disk)
from .graphs import (Cycle, DirectedGraph, Triangle, UndirectedGraph,
                     brute_directed_triangle, brute_girth_unweighted,
                     brute_min_weight_cycle, brute_shortest_directed_triangle,
                     brute_shortest_triangle, brute_triangle,
                     build_disk_graph_brute, build_tx_graph_brute)
from .radius_tree import RadiusTree
from .range_search import (ALPHA, CrowdedSquare, QueryTripleR2, R1Outcome,
                           build_query_hulls, solve_R1, solve_R2,
                           upper_envelope_faces)
from .sites import (GeogirthError, InstanceError, InvariantViolation, Site,
                    SiteSet, circle_circle_points, disk_edge, dist,
                    read_instance, triangle_perimeter, tx_edge, write_instance)
from .sweep import (SweepOutcome, build_plane_or_witness,
                    find_segment_crossing, triangle_from_crossing)
from .tx import (TxDecisionContext, decide_tx_perimeter, find_directed_triangle,
                 shortest_triangle_tx)
from .zorder import CompressedQuadtree, GridCell, build_compressed_quadtree

__version__ = "0.1.0"
