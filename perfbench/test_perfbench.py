"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
from geogirth import (GeneratorSpec, find_directed_triangle, find_triangle_disk,  # noqa: E402
                      generate, weighted_girth_disk)
from geogirth.graphs import Cycle, Triangle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_prints_every_declared_metric_with_its_unit(workload, trace):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
               "--trace", str(trace), "--scale", "0.2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    text = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in text
        line = next(ln for ln in lines if ln.startswith(f"{m['name']} = "))
        assert line.split()[3] == m["unit"]


def test_workloads_match_the_declared_ones():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(WORKLOADS)
    assert all(w["why"].startswith("closed loop, 1 client") for w in BENCH["workloads"])


def _swap_to_invalid(S, t: Triangle, valid) -> Triangle:
    """`t` with its last id replaced so that it is no longer a triangle."""
    i, j, _ = t.ids
    for v in range(len(S)):
        bad = Triangle((i, j, v), t.perimeter)
        if v not in (i, j) and not valid(S, bad):
            return bad
    raise AssertionError("every vertex closes a triangle")


def test_check_flags_a_corrupted_disk_triangle():
    S = generate(GeneratorSpec(n=200, seed=3))
    t = find_triangle_disk(S)
    assert t is not None
    assert check.check_answer("find_triangle_disk", S, t) is None
    bad = _swap_to_invalid(S, t, check.triangle_is_valid_disk)
    assert check.check_answer("find_triangle_disk", S, bad) is not None
    assert check.check_answer("find_triangle_disk", S,
                              Triangle(t.ids, t.perimeter * 1.5)) is not None


def test_check_flags_a_corrupted_tx_triangle():
    S = generate(GeneratorSpec(n=400, seed=3))
    t = find_directed_triangle(S)
    assert t is not None
    assert check.check_answer("find_directed_triangle", S, t) is None
    bad = _swap_to_invalid(S, t, check.triangle_is_valid_tx)
    assert check.check_answer("find_directed_triangle", S, bad) is not None


def test_check_flags_a_corrupted_cycle():
    S = generate(GeneratorSpec(n=200, seed=3))
    c = weighted_girth_disk(S, rng_seed=1)
    assert check.check_answer("weighted_girth_disk", S, c) is None
    assert check.check_answer("weighted_girth_disk", S,
                              Cycle(c.vertices, c.length * 1.01)) is not None
    far = max(range(len(S)), key=lambda v: abs(S[v].x - S[c.vertices[0]].x))
    assert check.check_answer("weighted_girth_disk", S,
                              Cycle(c.vertices[:-1] + (far,), c.length)) is not None


def test_corrupted_answer_counts_as_failed_call():
    w = WORKLOADS["disk-dense"]
    S = generate(GeneratorSpec(n=200, seed=3))
    t = find_triangle_disk(S)
    bad = _swap_to_invalid(S, t, check.triangle_is_valid_disk)
    call = Call("find_triangle_disk", "exist", "uniform")
    good = run.Record(call, 0, 0, S, 0.1, t, None)
    assert run.check_records(check, w, [good]) == {}
    assert list(run.check_records(check, w, [run.Record(call, 0, 0, S, 0.1, bad, None)])) == [0]
    # the same instance answering differently on a later call also fails
    other = run.Record(call, 1, 0, S, 0.1, None, None)
    assert list(run.check_records(check, w, [good, other])) == [1]


def test_tracer_restores_every_binding():
    import geogirth
    import geogirth.girth
    import geogirth.grids
    before = (geogirth.find_triangle_disk, geogirth.girth.build_plane_or_witness,
              geogirth.grids.GridIndex.__init__)
    tracer = Tracer()
    with tracer.installed(0):
        assert geogirth.find_triangle_disk is not before[0]
        assert geogirth.girth.build_plane_or_witness is not before[1]
        S = geogirth.generate(GeneratorSpec(n=300, seed=2))
        traced = geogirth.find_triangle_disk(S), geogirth.weighted_girth_disk(S, rng_seed=4)
    assert (geogirth.find_triangle_disk, geogirth.girth.build_plane_or_witness,
            geogirth.grids.GridIndex.__init__) == before
    assert (find_triangle_disk(S), geogirth.weighted_girth_disk(S, rng_seed=4)) == traced
    summary = tracer.summary()
    assert summary["find_triangle_disk.calls"] >= 1
    assert summary["weighted_girth_disk.calls"] == 1
    assert summary["generate.calls"] == 1
    assert summary["build_plane_or_witness.calls"] >= 1


def test_stripped_checkout_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "tx", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
