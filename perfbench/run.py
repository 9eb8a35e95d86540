"""Benchmark of the geogirth entry points: one workload, one seed, one result.

    python3 perfbench/run.py --workload disk-plane --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: rounds of
calls run back to back for ``--seconds``, then every answer is checked.
``--trace 1`` runs the workload's fixed number of rounds untraced and traced
in turn, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is the result as one JSON object.  The package
is imported from the ``src`` directory beside this one; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# one thread per process, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from layers import MOVES, per_layer_metrics
from spans import Tracer
from workloads import WORKLOADS, Call, instance_seed, rng_seed, scaled

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"

SETUP_PROBES = 2            # extra fresh-process set-ups; setup_s is the median of 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10            # samples a tail percentile must leave above it

END_TO_END = {
    "setup_s": "s", "exist_p50_ms": "ms", "exist_tail_ms": "ms", "opt_p50_ms": "ms",
    "opt_tail_ms": "ms", "sites_per_s": "sites/s", "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The package cannot be imported from the checkout."""


@dataclass
class Record:
    call: Call
    rnd: int
    k: int                  # instance index within the call's family
    S: object
    seconds: float
    result: object
    error: str | None


def import_package():
    if not (SRC / "geogirth" / "__init__.py").is_file():
        raise SetupError(f"no package sources at {SRC / 'geogirth'}")
    sys.path.insert(0, str(SRC))
    import geogirth
    if Path(geogirth.__file__).resolve().parent != (SRC / "geogirth").resolve():
        raise SetupError(f"geogirth imported from {geogirth.__file__}, not from {SRC}")
    return geogirth


def setup(w, seed: int, scale: float, tracer: Tracer | None = None):
    """Import, generate every instance, and make one untimed warm-up call
    per entry point."""
    gg = import_package()
    with tracer.installed(-1) if tracer else nullcontext():
        instances = {
            f.name: [gg.generate(gg.GeneratorSpec(
                n=scaled(f.n, scale), seed=instance_seed(seed, w.name, f.name, k), **f.spec))
                for k in range(f.instances)]
            for f in w.families}
    warmed = set()
    for pos, call in enumerate(w.calls):
        if call.entry not in warmed:
            warmed.add(call.entry)
            kwargs = {"rng_seed": rng_seed(seed, w.name, -1, pos)} if call.group == "opt" else {}
            getattr(gg, call.entry)(instances[call.family][0], **kwargs)
    # the instances live for the whole run: keep them out of every later
    # collection, so gc cost inside a call does not grow with their number
    gc.collect()
    gc.freeze()
    return gg, instances


def run_round(gg, w, instances, seed: int, rnd: int, tracer: Tracer | None = None):
    """One call of every entry of the round; gc runs between calls, outside
    the timed region, and stays enabled inside them."""
    out = []
    for pos, call in enumerate(w.calls):
        k = w.instance_of(rnd, pos)
        S = instances[call.family][k]
        kwargs = {"rng_seed": rng_seed(seed, w.name, rnd, pos)} if call.group == "opt" else {}
        fn = getattr(gg, call.entry)
        if tracer is not None:
            tracer.call_id = rnd * len(w.calls) + pos
        gc.collect()
        t0 = time.perf_counter()
        try:
            res, err = fn(S, **kwargs), None
        except Exception as e:   # a raising call counts as failed
            res, err = None, f"{call.entry} raised {e!r}"
        dt = time.perf_counter() - t0
        out.append(Record(call, rnd, k, S, dt, res, err))
    return out


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter on the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", repr(args.scale), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# checks


def check_records(check, w, records) -> dict[int, str]:
    """Failed timed calls, by index: raised, invalid witness, an answer that
    changed between calls on one instance, or answers of one round that
    disagree (which fails every call of that round on the instance)."""
    failed: dict[int, str] = {}
    first: dict = {}
    rounds: dict = defaultdict(dict)
    for i, rec in enumerate(records):
        err = rec.error or check.check_answer(rec.call.entry, rec.S, rec.result)
        if err is None:
            key = (rec.call.entry, rec.call.family, rec.k)
            if first.setdefault(key, check.answer_key(rec.result)) != check.answer_key(rec.result):
                err = f"{rec.call.entry}: answer changed between calls on one instance"
        if err is None:
            rounds[(rec.rnd, rec.call.family, rec.k)][rec.call.entry] = (i, rec.result)
        else:
            failed[i] = f"round {rec.rnd} {rec.call.family} #{rec.k}: {err}"
    for (rnd, fam, k), answers in rounds.items():
        err = check.check_consistent({e: res for e, (_, res) in answers.items()})
        if err:
            for i, _ in answers.values():
                failed[i] = f"round {rnd} {fam} #{k}: {err}"
    return failed


# ---------------------------------------------------------------------------
# statistics


def tail(xs: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    that leaves at least TAIL_BEYOND samples above it (nearest rank); the
    median when too few samples leave none."""
    xs = sorted(xs)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND or best is None:
            best = (p, xs[rank - 1], n - rank)
    return best


def environment() -> str:
    import numpy
    import scipy
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


# ---------------------------------------------------------------------------
# the two modes


def measure(args, w) -> int:
    t0 = time.perf_counter()
    gg, instances = setup(w, args.seed, args.scale)
    setup_main = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    import check
    setups = [setup_main] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    records: list[Record] = []
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    while rnd == 0 or time.perf_counter() < deadline:
        records.extend(run_round(gg, w, instances, args.seed, rnd))
        rnd += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = list(check_records(check, w, records).values())
    oracle_calls, oracle_errors = check.run_oracles(gg, w, args.seed)
    attempted = len(records) + oracle_calls
    failed = len(errors) + len(oracle_errors)

    ms = {g: [r.seconds * 1e3 for r in records if r.call.group == g] for g in ("exist", "opt")}
    tails = {g: tail(ms[g]) for g in ms}
    metrics = {
        "setup_s": statistics.median(setups),
        "exist_p50_ms": statistics.median(ms["exist"]),
        "exist_tail_ms": tails["exist"][1],
        "opt_p50_ms": statistics.median(ms["opt"]),
        "opt_tail_ms": tails["opt"][1],
        "sites_per_s": sum(len(r.S) for r in records) / sum(r.seconds for r in records),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"# workload {w.name}: closed loop, 1 client, seed {args.seed}, "
          f"{rnd} rounds of {len(w.calls)} calls in {sum(r.seconds for r in records):.3f} s")
    print(f"# {environment()}")
    for f in w.families:
        print(f"# family {f.name}: n={scaled(f.n, args.scale)} x {f.instances} {f.spec}")
    for call in dict.fromkeys(w.calls):
        xs = [r.seconds * 1e3 for r in records if r.call == call]
        print(f"# {call.group} {call.entry} on {call.family}: median "
              f"{statistics.median(xs):.3f} ms of {len(xs)} calls")
    print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for name, value in metrics.items():
        note = ""
        group = name.split("_")[0]
        if name.endswith("_p50_ms"):
            note = f"  (median of {len(ms[group])} calls)"
        elif name.endswith("_tail_ms"):
            p, _, beyond = tails[group]
            note = f"  (p{p} of {len(ms[group])} calls, {beyond} beyond)"
        print(f"{name} = {value:.6g} {END_TO_END[name]}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} failed of {attempted} "
          f"attempted: {len(records)} timed calls, {oracle_calls} oracle checks)")
    for e in (errors + oracle_errors)[:20]:
        print(f"# FAILED {e}")
    emit(failed == 0, attempted, failed, metrics, END_TO_END)
    return 0


def traced(args, w) -> int:
    tracer = Tracer()
    gg, instances = setup(w, args.seed, args.scale, tracer)
    import check

    plain: list[Record] = []
    spanned: list[Record] = []
    for rnd in range(w.trace_rounds):
        plain.extend(run_round(gg, w, instances, args.seed, rnd))
        with tracer.installed(rnd * len(w.calls)):
            spanned.extend(run_round(gg, w, instances, args.seed, rnd, tracer))

    metrics = tracer.summary()
    t_plain = sum(r.seconds for r in plain)
    t_spanned = sum(r.seconds for r in spanned)
    metrics["trace.overhead_s"] = t_spanned - t_plain
    metrics["trace.overhead_frac"] = (t_spanned - t_plain) / t_plain

    coverage = tracer.coverage_errors(w.name, metrics)
    for a, b in zip(plain, spanned):
        if check.answer_key(a.result) != check.answer_key(b.result) or a.error != b.error:
            coverage.append(f"tracing changed the answer of {a.call.entry} "
                            f"on {a.call.family} in round {a.rnd}")
    errors = (list(check_records(check, w, plain).values())
              + list(check_records(check, w, spanned).values()))
    oracle_calls, oracle_errors = check.run_oracles(gg, w, args.seed)
    attempted = len(plain) + len(spanned) + oracle_calls
    failed = len(errors) + len(oracle_errors)

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{w.name}.jsonl"
    tracer.write(spans_path)

    print(f"# workload {w.name}: traced run, seed {args.seed}, {w.trace_rounds} rounds "
          f"untraced and traced in turn; set-up generation traced")
    print(f"# {environment()}")
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    units = {}
    layer = None
    for lay, name, unit in per_layer_metrics():
        if lay != layer:
            layer = lay
            moves = "; ".join(f"{m} on {', '.join(ws)}" for m, ws in MOVES.get(lay, ()))
            print(f"## layer {lay}" + (f" (should move {moves})" if moves else ""))
        units[name] = unit
        v = metrics[name]
        print(f"{name} = {v:.6g} {unit}")
    print(f"# tracing overhead: {t_spanned:.4f} s traced - {t_plain:.4f} s untraced")
    print(f"# wrapper coverage: {'pass' if not coverage else 'FAIL'}")
    for e in coverage:
        print(f"# COVERAGE {e}")
    for e in (errors + oracle_errors)[:20]:
        print(f"# FAILED {e}")
    emit(failed == 0 and not coverage, attempted, failed,
         {k: metrics[k] for k in units}, units)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every instance size (small runs for the benchmark's tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        return traced(args, w) if args.trace else measure(args, w)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
