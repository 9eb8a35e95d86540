"""Generator determinism and the command line interface."""

import os
import subprocess
import sys

import numpy as np
import pytest

import geogirth
from geogirth.cli import main as cli_main
from geogirth.generator import GeneratorSpec, generate
from geogirth.sites import read_instance, write_instance

# the CLI subprocess imports the same package as these tests
PACKAGE_ROOT = os.path.dirname(os.path.dirname(geogirth.__file__))


def run_cli(args, env=None):
    e = dict(os.environ)
    e.pop("GEOGIRTH_SEED", None)
    e["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, e.get("PYTHONPATH")]))
    if env:
        e.update(env)
    proc = subprocess.run([sys.executable, "-m", "geogirth.cli", *args],
                          capture_output=True, text=True, env=e)
    return proc.returncode, proc.stdout, proc.stderr


def test_generate_basics(tmp_path):
    spec = GeneratorSpec(n=1, seed=5)
    assert len(generate(spec)) == 1
    s1 = generate(GeneratorSpec(n=200, seed=9))
    s2 = generate(GeneratorSpec(n=200, seed=9))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_instance(p1, s1)
    write_instance(p2, s2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_power_law_min_radius():
    spec = GeneratorSpec(n=10_000, radius_law="power", gamma=2.5, r_min=0.1,
                         seed=4, scale_by_sqrt_n=False)
    ss = generate(spec)
    assert float(ss.rs.min()) >= 0.1
    ss2 = generate(spec)
    assert np.array_equal(ss.rs, ss2.rs) and np.array_equal(ss.xs, ss2.xs)


def test_generate_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=5, radius_law="power", gamma=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=5, centers="ring")


def test_cli_generate_and_run(tmp_path):
    inst = tmp_path / "i.txt"
    code, out, err = run_cli(["generate", "--n", "40", "--seed", "7",
                              "--out", str(inst)])
    assert code == 0, err
    code, out, err = run_cli(["triangle", str(inst), "--verify"])
    assert code == 0, err
    assert "oracle-agreement: true" in out
    assert "answer:" in out and "seconds:" in out


def test_cli_girth_forest_none(tmp_path):
    inst = tmp_path / "forest.txt"
    inst.write_text("3\n0 0 1\n10 0 1\n20 0 1\n")
    code, out, err = run_cli(["girth", str(inst)])
    assert code == 0
    assert "answer: none" in out


def test_cli_all_commands_verify(tmp_path):
    inst = tmp_path / "i.txt"
    run_cli(["generate", "--n", "48", "--seed", "3", "--out", str(inst)])
    code, out, err = run_cli(["verify", str(inst)])
    assert code == 0, out + err
    assert out.count(": ok") == 6


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0 1\nnot a line\n")
    code, out, err = run_cli(["triangle", str(bad)])
    assert code == 1
    assert "error" in err.lower()
    bad.write_text("1\n0 0 -2\n")
    code, out, err = run_cli(["girth", str(bad)])
    assert code == 1


def test_cli_env_seed(tmp_path):
    inst = tmp_path / "e.txt"
    code, out, err = run_cli(["generate", "--n", "10", "--out", str(inst)],
                             env={"GEOGIRTH_SEED": "123"})
    assert code == 0
    assert "seed=123" in out


def test_cli_bench_csv(tmp_path):
    out_file = tmp_path / "bench.csv"
    code, out, err = run_cli(["tx-triangle", "--bench", "sizes=16..64,repeats=2",
                              "--out", str(out_file)])
    assert code == 0, err
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "n,repeat,seconds,answer"
    rows = [l.split(",") for l in lines[1:]]
    ns = [int(r[0]) for r in rows]
    assert ns == sorted(ns)
    assert set(ns) == {16, 32, 64}
    assert all(len(r) == 4 for r in rows)
    # standalone bench command does the same
    code, out, err = run_cli(["bench", "--command", "girth", "--sizes", "16..32",
                              "--repeats", "1"])
    assert code == 0
    assert out.splitlines()[0] == "n,repeat,seconds,answer"


def test_cli_oracle_mismatch_exit_code(tmp_path, monkeypatch):
    # force a fake mismatch by monkeypatching the oracle comparator
    import geogirth.cli as cli
    inst = tmp_path / "i.txt"
    write_instance(inst, generate(GeneratorSpec(n=12, seed=1)))
    monkeypatch.setattr(cli, "_oracle_agrees", lambda *a, **k: False)
    assert cli_main(["triangle", str(inst), "--verify"]) == 2


def test_roundtrip_idempotent(tmp_path):
    inst = tmp_path / "r.txt"
    write_instance(inst, generate(GeneratorSpec(n=33, seed=2)))
    ss = read_instance(inst)
    inst2 = tmp_path / "r2.txt"
    write_instance(inst2, ss)
    assert inst.read_bytes() == inst2.read_bytes()
