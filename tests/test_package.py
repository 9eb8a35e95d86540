"""The package's public surface: what the traced benchmark wraps, what
``geogirth/__init__.py`` re-exports, and the one error base."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import geogirth
from geogirth.chan import ChanInconsistencyError, optimize
from geogirth.sites import Site, SiteSet
from geogirth.sweep import _witness_from_edges
from geogirth.zorder import build_compressed_quadtree

ROOT = Path(__file__).resolve().parent.parent


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers", ROOT / "perfbench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod      # dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_traced_callable_resolves_on_its_layer():
    layers = _load_layers()
    assert layers.CALLABLES
    for c in layers.CALLABLES:
        obj = importlib.import_module(f"geogirth.{c.layer}")
        for part in c.qualname.split("."):
            assert hasattr(obj, part), f"geogirth.{c.layer}.{c.qualname}"
            obj = getattr(obj, part)
        assert callable(obj), f"geogirth.{c.layer}.{c.qualname}"


def test_every_reexported_name_exists():
    tree = ast.parse((Path(geogirth.__file__)).read_text())
    names = [(node.module, a.asname or a.name) for node in tree.body
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert len(names) > 20
    for module, name in names:
        assert hasattr(geogirth, name), f"{module}.{name}"


class _TooManyParts:
    def size(self):
        return 100

    def decide(self, t):
        return True

    def split(self):
        return [self] * 5

    def base_solve(self):
        return None


def _raise_instance_error():
    SiteSet([Site(0, 0.0, 0.0, -1.0)])


def _raise_invariant_violation():
    build_compressed_quadtree([.25, .25, .5], [.25, .25, .5])


def _raise_chan_inconsistency():
    optimize(_TooManyParts(), 0.75, 4, 3, rng_seed=0)


def _raise_sweep_invariant():
    # two disjoint edges that do not cross: no witness where one must exist
    S = SiteSet([Site(i, x, 0.0, 1.0) for i, x in enumerate((0.0, 1.0, 5.0, 6.0))])
    _witness_from_edges(S, [(0, 1), (2, 3)])


@pytest.mark.parametrize("raise_it, cls, std", [
    (_raise_instance_error, geogirth.InstanceError, ValueError),
    (_raise_invariant_violation, geogirth.InvariantViolation, AssertionError),
    (_raise_chan_inconsistency, ChanInconsistencyError, AssertionError),
    (_raise_sweep_invariant, geogirth.InvariantViolation, AssertionError),
])
def test_package_errors_share_one_base(raise_it, cls, std):
    for catch in (geogirth.GeogirthError, cls, std):
        with pytest.raises(catch):
            raise_it()
