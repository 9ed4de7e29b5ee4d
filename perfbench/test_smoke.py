"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks BENCHMARK.json against its schema and against the code, that every
workload emits every listed metric in both modes, and that a corrupted
output or a raising call is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wls  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

TINY = {  # package -> workload
    "phase_sweep": lambda pkg: wls.PhaseSweep(pkg, cells=2, trace_ops=1),
    "certify_bnb": lambda pkg: wls.CertifyBnb(pkg, strata=((4, 0.30, 0.8, True),)),
    "lattice_oracle": lambda pkg: wls.LatticeOracle(pkg, granularity=0.1),
    "equilibrium_audit": lambda pkg: wls.EquilibriumAudit(pkg, samples=2000, sizes=(3, 5)),
}


def _bump_first_value(out):
    code, text = out
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)
    lines[1] = ",".join(cells)
    return code, "".join(lines)


CORRUPT = {
    "phase_sweep": _bump_first_value,
    "certify_bnb": lambda out: {k: (dataclasses.replace(res, value=res.value - 1e-2), t)
                                for k, (res, t) in out.items()},
    "lattice_oracle": lambda res: dataclasses.replace(res, value=res.value + 1e-6),
    "equilibrium_audit": lambda out: (out[0], out[1].replace(
        '"empirical_welfare": "', '"empirical_welfare": "1')),
}


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_schema(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert len(bench["command"]) <= 32 and all(len(c) <= 200 for c in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = bench["end_to_end"] + bench["per_layer"]
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for group in (bench["workloads"], metrics):
        names = [m["name"] for m in group]
        assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_schema_matches_code(bench):
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(wls.WORKLOADS) == set(run.SEED_SETUP_S)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(
        worker.END_TO_END, setup_s="s")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == worker.PER_LAYER


def tiny_run(name, trace, corrupt=None):
    return worker.run_workload(TINY[name](wls.Package()), seed=3, seconds=0, trace=trace,
                               corrupt=corrupt, base=TINY[name](wls.Package.seed()))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted(bench, name, trace):
    result, lines = tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    listed = bench["per_layer"] if trace else [
        m for m in bench["end_to_end"] if m["name"] != "setup_s"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, float) and math.isfinite(value)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


def test_seed_copy_is_a_separate_package():
    src, seed = wls.Package(), wls.Package.seed()
    assert src.opt.__name__ == "contest_opt.optimizer"
    assert seed.opt.__name__ == "contest_opt_seed.optimizer"
    assert Path(seed.opt.__file__).is_relative_to(HERE / "seed")
    assert seed.cli.opt is seed.opt
    # operation 4 is the cheapest certify stratum
    assert 0 < worker.seed_cpu(wls.CertifyBnb(seed), 3, 4) < 10


@pytest.mark.parametrize("name", sorted(TINY))
def test_setup_probe(name):
    env = run.child_env()
    own, seed = run.setup_seconds(name, env, reps=1, deadline=time.monotonic() + 120)
    assert len(own) == len(seed) == 1 and 0 < own[0] and 0 < seed[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_is_a_failure(name):
    result, lines = tiny_run(name, False, CORRUPT[name])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("FAILED") for line in lines)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_lattice_points_match_the_package_count(n):
    points = wls.lattice_points(n, 20)
    assert len(points) == wls.Package().opt.count_lattice_policies(n, 20)
    assert (points.sum(axis=1) == 20).all() and (points[:, :-1] >= points[:, 1:]).all()
    assert len({tuple(p) for p in points}) == len(points)


def test_raising_call_is_a_failure():
    wl = TINY["phase_sweep"](wls.Package())
    good = wl.run

    def run_or_raise(op):
        if op.params["alpha_min"] < 0.055:
            raise MemoryError("over the address-space cap")
        return good(op)

    wl.run = run_or_raise
    samples = [worker.attempt(wl, wl.op(3, i)) for i in range(8)]
    raised = [s for s in samples if s.seconds is None]
    assert raised and all(s.problems for s in raised)
    assert any(not s.problems for s in samples)


def test_refuses_to_run_without_the_package():
    stripped = ROOT / ".perfbench" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "phase_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=60, check=False)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert proc.stdout == ""
