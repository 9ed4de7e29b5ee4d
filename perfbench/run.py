"""contest-opt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The workload runs in a child process of its own (so peak RSS is per
workload) under an address-space cap, with the package's worker pool and the
BLAS pinned to one thread each.  With ``--trace 0`` the set-up time
is measured first: fresh interpreters import the package and warm its
caches, each paired with one that does the same on the frozen seed copy.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROBE = HERE / "probe.py"
# the only bytecode cache the children read and write
PYCACHE = ROOT / ".perfbench" / "pycache"
WORKLOADS = ("phase_sweep", "certify_bnb", "lattice_oracle", "equilibrium_audit")

SETUP_REPS = 3
# CPU seconds the seed copy takes to set up each workload: medians of 30
# probes on a 2-core VM (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  The
# host's speed drifted by up to 40% between sets of runs there, so setup_s is
# the paired ratio (src probe over seed probe) in these seconds, and the raw
# figures are printed beside it.
SEED_SETUP_S = {"phase_sweep": 0.94, "certify_bnb": 0.84, "lattice_oracle": 1.14,
                "equilibrium_audit": 0.71}
# today's peak is ~0.8 GB RSS and ~1.2 GB of address space; a regression
# past the cap fails operations with MemoryError instead of exhausting the box
ADDRESS_SPACE_CAP = 4 << 30
# every run ends within this, set-up and all
RUN_DEADLINE_S = 170.0


# One pool worker: with two, the sweep's nested pools put four threads on two
# cores, and CPU time per operation wanders 4.4% between 24-s windows against
# 1.4% with one (150 s of 6x6 sweeps, 2-core VM).  The pool's wall-clock
# payoff is therefore not measured here.
POOL_WORKERS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "CONTEST_OPT_THREADS": str(POOL_WORKERS),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        # One malloc arena that is never trimmed, and a fixed mmap threshold,
        # so arrays under 32 MB reuse heap memory.  With glibc's defaults the
        # arena a pool thread lands in and the moving threshold differ from
        # run to run: a sweep's peak RSS landed anywhere from 114 to 154 MB,
        # and its paired CPU ratio spread by 0.06-0.09 over five seeds (2-core
        # VM).  With these, peak RSS repeats within 0.5 MB and the ratio
        # spread by 0.04.
        "MALLOC_ARENA_MAX": "1",
        "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
        "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
        # bytecode of every module, the package's and the libraries', is
        # cached here and nowhere else, so set-up does not depend on which
        # __pycache__ directories the tree happens to hold
        "PYTHONPYCACHEPREFIX": str(PYCACHE),
    })
    return env


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    # Every child on one CPU, so that an operation and its seed-code twin,
    # and the two probes of a pair, run on the same core: on a 2-core VM
    # whose cores were contended unevenly, the same operation on the two
    # cores differed by up to 20% in CPU time.  Operations run one at a
    # time, so nothing waits for the other core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_child(args: list[str], env: dict, timeout: float, capture: bool):
    return subprocess.run(
        [sys.executable, str(WORKER)] + args, env=env, cwd=ROOT, timeout=timeout,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True, preexec_fn=_limit_child, check=False)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, env: dict, reps: int, deadline: float):
    """CPU times of set-up probes on src/ and on the seed copy, in pairs.

    A probe is a fresh interpreter that imports the package and warms it.
    In a fresh tree, one discarded pair first writes the bytecode caches
    that every measured probe reads.  Each pair alternates which version
    goes first.
    """
    def probe(version: str) -> float:
        c0 = _children_cpu()
        proc = subprocess.run(
            [sys.executable, str(PROBE), workload, version], env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()), stdout=subprocess.DEVNULL,
            preexec_fn=_limit_child, check=False)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe exited %d" % proc.returncode)
        return _children_cpu() - c0

    if not PYCACHE.is_dir():
        probe("src")
        probe("seed")
    own, seed = [], []
    for r in range(reps):
        order = ("src", "seed") if r % 2 == 0 else ("seed", "src")
        cpu = {version: probe(version) for version in order}
        own.append(cpu["src"])
        seed.append(cpu["seed"])
    return own, seed


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    if not (ROOT / "src" / "contest_opt" / "__init__.py").is_file():
        sys.stderr.write("error: no package at %s; run from a full checkout\n"
                         % (ROOT / "src" / "contest_opt"))
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup_cpu, seed_cpu = (([], []) if args.trace else
                               setup_seconds(args.workload, env, SETUP_REPS, deadline))
        proc = run_child(worker_args, env, max(1.0, deadline - time.monotonic()),
                         capture=True)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("error: worker exited %d\n" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(), "src_sha256": source_digest(),
            "address_space_cap_bytes": ADDRESS_SPACE_CAP}
    print("run: " + json.dumps(info, sort_keys=True))
    for line in lines[:-1]:
        print(line)
    if setup_cpu:
        ratio = statistics.median(a / b for a, b in zip(setup_cpu, seed_cpu))
        value = ratio * SEED_SETUP_S[args.workload]
        result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        print("metric setup_s = %r s (CPU ratio %.4f, median of %d pairs, times the "
              "seed copy's %r s; raw CPU s: %s; seed code: %s)"
              % (value, ratio, len(setup_cpu), SEED_SETUP_S[args.workload],
                 ", ".join("%.4f" % t for t in setup_cpu),
                 ", ".join("%.4f" % t for t in seed_cpu)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
