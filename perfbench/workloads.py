"""The four benchmark workloads: inputs from a seed, the timed call, the check.

Each workload is a closed loop of operations.  Operation i of seed s is built
from ``numpy.random.default_rng([s, i])`` only, and belongs to stratum
``i % len(strata)``; a stratum is a fixed regime of the input space that the
seed jitters.  Metrics combine per-stratum medians, so a run that ends
part-way through a cycle reports the same mix as one that ends on a cycle
boundary.

A workload is bound to one copy of the package, a `Package`: the code under
``src/`` or the frozen seed copy that operations are timed against.  Every
call goes through a module attribute at call time (``pkg.cli.main``,
``pkg.opt.grid_search``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import importlib.util
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEED_PACKAGE = Path(__file__).resolve().parent / "seed" / "contest_opt"

# equilibrium estimates must lie within this many standard errors
SE_MULTIPLE = 6.0
# lattice candidates within this of the argmax are what screening must keep
NEAR_BEST_EPS = 1e-3
# a two-node rule: grid_search enumerates its lattice but evaluates almost nothing
ENUMERATE_ONLY_QUAD = {"m": 2, "rule": "trapezoid", "exclude_left_endpoint": False}


class Package:
    """The modules the workloads call, from one copy of contest-opt.

    ``Package()`` is the package importable as ``contest_opt``.
    ``Package.seed()`` is the frozen copy in ``seed/``, imported as
    ``contest_opt_seed`` so that both copies can run in one process.
    """

    def __init__(self, name: str = "contest_opt") -> None:
        def module(sub):
            return importlib.import_module(name + "." + sub)
        self.bernstein, self.cli = module("bernstein"), module("cli")
        self.eq, self.obj = module("equilibrium"), module("objective")
        self.opt, self.pol = module("optimizer"), module("policy")
        self.quad = module("quadrature")

    @classmethod
    def seed(cls) -> "Package":
        name = "contest_opt_seed"
        if name not in sys.modules:
            spec = importlib.util.spec_from_file_location(
                name, SEED_PACKAGE / "__init__.py",
                submodule_search_locations=[str(SEED_PACKAGE)])
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        return cls(name)


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass
class Op:
    stratum: int
    params: dict
    units: float


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    unit = ""  # what `units` counts, per operation
    strata: tuple = ()
    trace_ops = 0  # operations in the traced cycle
    # workload-specific names of the operation time and of the work rate
    timing_name = ""
    rate_name = ""

    def __init__(self, pkg: Package) -> None:
        self.pkg = pkg

    def op(self, seed: int, i: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def warmup(self, measure: bool) -> dict:
        """Fill the package's lazy caches; with `measure`, return set-up probes."""
        raise NotImplementedError

    def extras(self, op: Op, out) -> dict:
        """Per-operation layer figures that need work outside the timed call."""
        return {}

    def named(self, samples) -> list[tuple[str, list]]:
        """Further per-operation timings, as (name, [(stratum, seconds)])."""
        return []

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue()


# --- phase_sweep ------------------------------------------------------------

SWEEP_N = 5


class PhaseSweep(Workload):
    """`contest-opt sweep` in-process at n=5 with the CLI defaults."""

    name = "phase_sweep"
    unit = "cells"
    timing_name, rate_name = "sweep_s", "sweep_cells_per_s"

    def __init__(self, pkg, cells: int = 4, trace_ops: int = 3):
        super().__init__(pkg)
        self.cells = cells
        self.strata = ("grid",)
        self.trace_ops = trace_ops

    def op(self, seed, i):
        rng = _rng(seed, i)
        params = {
            "alpha_min": float(rng.uniform(0.03, 0.08)),
            "alpha_max": float(rng.uniform(0.92, 1.0)),
            "beta_min": float(rng.uniform(0.1, 0.3)),
            "beta_max": float(rng.uniform(4.5, 5.0)),
        }
        return Op(0, params, float(self.cells * self.cells))

    def _argv(self, cells, p):
        return ["sweep", "--n", str(SWEEP_N), "--cells", str(cells),
                "--alpha-min", repr(p["alpha_min"]), "--alpha-max", repr(p["alpha_max"]),
                "--beta-min", repr(p["beta_min"]), "--beta-max", repr(p["beta_max"])]

    def run(self, op):
        return self._cli(self._argv(self.cells, op.params))

    @staticmethod
    def _rows(text):
        return list(csv.DictReader(io.StringIO(text)))

    def check(self, op, out):
        code, text = out
        if code != 0:
            return ["sweep exited %d" % code]
        rows = self._rows(text)
        if len(rows) != self.cells ** 2:
            return ["%d rows, expected %d" % (len(rows), self.cells ** 2)]
        p = op.params
        alphas = np.linspace(p["alpha_min"], p["alpha_max"], self.cells)
        betas = np.linspace(p["beta_min"], p["beta_max"], self.cells)
        obj, pol = self.pkg.obj, self.pkg.pol
        quad = self.pkg.quad.QuadratureConfig(m=5000)  # the sweep's default rule
        problems = []
        for k, row in enumerate(rows):
            alpha, beta = float(row["alpha"]), float(row["beta"])
            value, p1 = float(row["value"]), float(row["p1"])
            if not (_close(alpha, alphas[k // self.cells], 1e-8)
                    and _close(beta, betas[k % self.cells], 1e-8)):
                problems.append("row %d is not cell (%g, %g)" % (k, alpha, beta))
                continue
            spec = obj.ConvexCombo(alpha)
            again = obj.evaluate(spec, beta, pol.two_level(SWEEP_N, p1), quad)
            if not _close(value, again, 1e-7):
                problems.append("row %d value %r != evaluate %r" % (k, value, again))
            floor = (obj.evaluate_hm_closed_form(alpha, beta, SWEEP_N)
                     - obj.evaluate_error_bound(spec, beta, pol.hm(SWEEP_N), quad) - 1e-8)
            if value < floor:
                problems.append("row %d value %r below the HM closed form" % (k, value))
        return problems

    def warmup(self, measure):
        op = self.op(0, 0)
        code, _ = self._cli(self._argv(1, op.params))
        if code != 0:
            raise RuntimeError("warm-up sweep exited %d" % code)
        return {}

    def extras(self, op, out):
        rows = self._rows(out[1])
        return {"optimizer.sweep.cells_per_beta":
                len(rows) / len({r["beta"] for r in rows})}


# --- certify_bnb ------------------------------------------------------------

# (n, alpha, beta, jitter).  Away from the anchor, node counts are smooth in
# (alpha, beta), so the jitter moves costs by a few percent.  The anchor is
# the draw ROADMAP item 3 quotes (901 nodes, ~0.8 GB at 1e-4); it sits on a
# knife edge (655 to 1981 nodes within alpha +-0.005), so it is not jittered.
BNB_STRATA = (
    (5, 0.24, 2.0, False),
    (4, 0.45, 2.6, True),
    (5, 0.50, 2.0, True),
    (6, 0.05, 2.5, True),
    (4, 0.30, 0.8, True),
)
LOOSE, TIGHT = 1e-3, 1e-4


class CertifyBnb(Workload):
    """Certified B&B at eps 1e-3 then 1e-4 on one (n, alpha, beta) draw."""

    name = "certify_bnb"
    unit = "solves"
    timing_name, rate_name = "draw_s", "solves_per_s"

    def __init__(self, pkg, strata=BNB_STRATA):
        super().__init__(pkg)
        self.strata = tuple(strata)
        self.trace_ops = len(self.strata)

    def op(self, seed, i):
        rng = _rng(seed, i)
        k = i % len(self.strata)
        n, alpha, beta, jitter = self.strata[k]
        if jitter:
            alpha += float(rng.uniform(-0.01, 0.01))
            beta += float(rng.uniform(-0.05, 0.05))
        # the certificate refuses draws whose quadrature error eats epsilon
        if not 2.0 * (alpha * n + 1.0 - alpha) / self.pkg.opt.BNB_QUAD.m < TIGHT:
            raise ValueError("draw %r is outside the quadrature budget" % ((n, alpha, beta),))
        return Op(k, {"n": n, "alpha": alpha, "beta": beta}, 2.0)

    def run(self, op):
        p, opt = op.params, self.pkg.opt
        out = {}
        for label, eps in (("loose", LOOSE), ("tight", TIGHT)):
            t0 = time.perf_counter()
            res = opt.branch_and_bound(p["n"], p["alpha"], p["beta"], opt.BnbConfig(eps))
            out[label] = (res, time.perf_counter() - t0)
        return out

    def check(self, op, out):
        p = op.params
        n, alpha, beta = p["n"], p["alpha"], p["beta"]
        obj, opt = self.pkg.obj, self.pkg.opt
        line = opt.two_level_line_search(obj.ConvexCombo(alpha), beta, n, steps=200)
        problems = []
        for label, eps in (("loose", LOOSE), ("tight", TIGHT)):
            res = out[label][0]
            if not res.certified or res.certified_gap is None or res.certified_gap > eps:
                problems.append("%s: not certified within %g (gap %r)"
                                % (label, eps, res.certified_gap))
                continue
            again = obj.evaluate(obj.ConvexCombo(alpha), beta, res.policy, opt.BNB_QUAD)
            if not _close(res.value, again, 1e-9):
                problems.append("%s: value %r != evaluate %r" % (label, res.value, again))
            if res.value < line.value - line.certified_gap - res.certified_gap:
                problems.append("%s: value %r below the certified line search %r"
                                % (label, res.value, line.value))
        return problems

    def warmup(self, measure):
        self.pkg.opt.branch_and_bound(4, 0.3, 0.8, self.pkg.opt.BnbConfig(LOOSE))
        return {}

    def named(self, samples):
        return [("solve_%s_s" % label,
                 [(s.op.stratum, s.out[label][1]) for s in samples if s.out is not None])
                for label in ("loose", "tight")]


# --- lattice_oracle ---------------------------------------------------------


def lattice_points(n: int, resolution: int) -> np.ndarray:
    """All non-increasing integer n-vectors summing to `resolution`."""
    vals = np.zeros((1, 0), dtype=np.int64)
    rem = np.array([resolution])
    cap = np.array([resolution])
    for j in range(n - 1):
        left = n - j
        lo = -(-rem // left)  # the largest share is at least the mean
        hi = np.minimum(rem, cap)
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(rem)), counts)
        offset = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        nxt = hi[parent] - offset
        vals = np.column_stack([vals[parent], nxt])
        rem, cap = rem[parent] - nxt, nxt
    keep = rem <= cap
    return np.column_stack([vals[keep], rem[keep]])


# the n of each stratum, one per family: convex, posynomial, orderstat, exp, social
LATTICE_SIZES = (5, 5, 6, 5, 5)
# values from two code paths agree to rounding; the exponential's Taylor
# remainder in objective.py is below 1e-12
VALUE_TOL = 1e-9


class LatticeOracle(Workload):
    """Exhaustive `grid_search`, rotating through the five objective families."""

    name = "lattice_oracle"
    unit = "candidates"
    timing_name, rate_name = "grid_search_s", "lattice_candidates_per_s"

    def __init__(self, pkg, granularity: float = 0.01):
        super().__init__(pkg)
        self.granularity = granularity
        self.resolution = round(1.0 / granularity)
        self.strata = LATTICE_SIZES
        self.trace_ops = len(self.strata)
        self._counts = {n: self.pkg.opt.count_lattice_policies(n, self.resolution)
                        for n in set(self.strata)}

    def two_level_points(self, n: int) -> list:
        """Lattice policies of the two-level shape (equal middle, zero bottom)."""
        out, resolution = [], self.resolution
        for top in range(resolution, -1, -1):
            rest = resolution - top
            if rest % (n - 2) == 0 and top >= rest // (n - 2):
                shares = [top] + [rest // (n - 2)] * (n - 2) + [0]
                out.append(self.pkg.pol.make_policy([v / resolution for v in shares]))
        return out

    def reference_value(self, spec, beta: float, policy) -> float:
        """The objective at any ordered policy, written out from the model.

        A reference for `lattice_value` that shares none of objective.py's term
        tables: quality powers act on g = h - p_n, the exponential is summed in
        closed form, and social welfare adds the contestants' rents n * p_n.
        """
        obj = self.pkg.obj
        x, w = self.pkg.opt.GRID_QUAD.nodes_weights()
        n, pn = policy.n, policy.values[-1]
        h = self.pkg.bernstein.h_eval(policy, x)
        q = np.clip(h - pn, 0.0, None) ** (1.0 / beta)  # quality: g^(1/beta)
        rent = 0.0
        if isinstance(spec, obj.ConvexCombo):
            f = spec.alpha * n * h * q + (1.0 - spec.alpha) * q
        elif isinstance(spec, obj.Posynomial):
            f = sum(e * q ** k for e, k in spec.terms)
        elif isinstance(spec, obj.MaxOrderStat):
            f = n * x ** (n - 1) * q
        elif isinstance(spec, obj.Exponential):
            f = sum(np.exp(lam * q) for lam in spec.lambdas)
        elif isinstance(spec, obj.SocialWelfare):
            f = n * h * q + sum(e * q ** k for e, k in spec.platform_terms)
            rent = n * pn
        else:
            raise TypeError("no reference for %r" % (spec,))
        return float(f @ w) + rent

    def _lattice_values(self, spec, beta, n, shares: np.ndarray) -> np.ndarray:
        x, w = self.pkg.opt.GRID_QUAD.nodes_weights()
        basis = self.pkg.bernstein.basis_matrix(n, x)
        out = []
        for start in range(0, len(shares), 8192):
            block = shares[start:start + 8192]
            out.append(self.pkg.obj.lattice_value(spec, beta, basis @ block.T, block[:, -1],
                                                  x, w, n))
        return np.concatenate(out)

    def op(self, seed, i):
        rng = _rng(seed, i)
        k = i % len(self.strata)
        n = self.strata[k]
        beta = float(rng.uniform(0.6, 2.8))
        obj = self.pkg.obj
        if k == 0:
            spec = obj.ConvexCombo(float(rng.uniform(0.1, 0.5)))
        elif k == 1:
            # two sign changes in e_j (k_j - beta): outside the covered class
            spec = obj.Posynomial(((float(rng.uniform(1.5, 2.5)), 1.0),
                                   (-float(rng.uniform(2.5, 3.5)), 2.0),
                                   (float(rng.uniform(1.5, 2.5)), 3.0)))
        elif k == 2:
            spec = obj.MaxOrderStat()
        elif k == 3:
            spec = obj.Exponential((float(rng.uniform(1.0, 1.6)),))
        else:
            spec = obj.SocialWelfare(((float(rng.uniform(0.2, 0.8)), 1.0),))
        return Op(k, {"n": n, "beta": beta, "spec": spec}, float(self._counts[n]))

    def run(self, op):
        p = op.params
        return self.pkg.opt.grid_search(p["spec"], p["beta"], p["n"], self.granularity)

    def check(self, op, out):
        p = op.params
        n, spec, beta = p["n"], p["spec"], p["beta"]
        if out.nodes_explored != op.units:
            return ["%d candidates, expected %d" % (out.nodes_explored, op.units)]
        shares = np.asarray(out.policy.values) * self.resolution
        ints = np.round(shares)
        if np.max(np.abs(shares - ints)) > 1e-9:
            return ["argmax %s is off the lattice" % out.policy]
        problems = []
        ref = self.reference_value(spec, beta, out.policy)
        if not _close(out.value, ref, VALUE_TOL):
            problems.append("value %r != reference %r" % (out.value, ref))
        # the best two-level point, scored by objective.evaluate (p_n = 0)
        two = self.two_level_points(n)
        scores = [self.pkg.obj.evaluate(spec, beta, p, self.pkg.opt.GRID_QUAD) for p in two]
        k = int(np.argmax(scores))
        ref = self.reference_value(spec, beta, two[k])
        if not _close(scores[k], ref, VALUE_TOL):
            problems.append("evaluate %r != reference %r at %s" % (scores[k], ref, two[k]))
        if out.value < scores[k] - VALUE_TOL:
            problems.append("argmax %r below the best two-level point %r"
                            % (out.value, scores[k]))
        return problems

    def warmup(self, measure):
        enumerate_s = 0.0
        quad = self.pkg.quad.QuadratureConfig(**ENUMERATE_ONLY_QUAD)
        for n in sorted(set(self.strata)):
            # the first call on a lattice enumerates it; a second one reuses it
            for sign in ((1.0, -1.0) if measure else (1.0,)):
                t0 = time.perf_counter()
                self.pkg.opt.grid_search(self.pkg.obj.MaxOrderStat(), 2.0, n,
                                         self.granularity, quad=quad)
                enumerate_s += sign * (time.perf_counter() - t0)
        return {"optimizer.grid_search.enumerate_s": enumerate_s} if measure else {}

    def extras(self, op, out):
        p = op.params
        values = self._lattice_values(p["spec"], p["beta"], p["n"],
                                      lattice_points(p["n"], self.resolution) / self.resolution)
        near = np.count_nonzero(values >= values.max() - NEAR_BEST_EPS)
        return {"optimizer.grid_search.near_best_frac": near / values.size}


# --- equilibrium_audit ------------------------------------------------------


class EquilibriumAudit(Workload):
    """`contest-opt equilibrium` in-process: CDF table, then the Monte Carlo audit."""

    name = "equilibrium_audit"
    unit = "rounds"
    timing_name, rate_name = "audit_s", "mc_rounds_per_s"

    # at 100k rounds an operation's CPU time wandered 3.6% between 24-s
    # windows; at 20k, fixed per-call costs dominate and it wandered 12.9%
    def __init__(self, pkg, samples: int = 100_000, sizes=(3, 5, 8, 12, 20)):
        super().__init__(pkg)
        self.samples = samples
        self.strata = tuple(sizes)
        self.trace_ops = len(self.strata)

    def op(self, seed, i):
        rng = _rng(seed, i)
        k = i % len(self.strata)
        n = self.strata[k]
        raw = np.sort(rng.dirichlet(np.ones(n - 1)))[::-1]
        shares = [float(v) for v in raw[1:]] + [0.0]
        shares.insert(0, 1.0 - math.fsum(shares))
        params = {"n": n, "beta": float(rng.uniform(0.8, 3.0)),
                  "policy": ",".join(repr(v) for v in shares),
                  "sim_seed": int(rng.integers(2**31))}
        return Op(k, params, float(self.samples))

    def _argv(self, p, samples):
        return ["equilibrium", "--n", str(p["n"]), "--beta", repr(p["beta"]),
                "--policy", p["policy"], "--simulate", str(samples),
                "--seed", str(p["sim_seed"])]

    def run(self, op):
        return self._cli(self._argv(op.params, self.samples))

    def check(self, op, out):
        code, text = out
        if code != 0:
            return ["equilibrium exited %d" % code]
        p = op.params
        lines = text.splitlines()
        report = json.loads(lines[-1])
        table = np.array([[float(v) for v in row]
                          for row in csv.reader(lines[1:-1])])
        policy = self.pkg.pol.parse_policy(p["policy"])
        problems = []
        q, f = table[:, 0], table[:, 1]
        if len(table) != 101 or f[0] != 0.0 or f[-1] != 1.0 or np.any(np.diff(f) < 0):
            problems.append("CDF table is not a 101-row CDF from 0 to 1")
        # indifference on the support: h(F(q)) = p_n + q^beta (p_n = 0)
        gap = np.max(np.abs(self.pkg.bernstein.h_eval(policy, f) - q ** p["beta"]))
        if gap > 1e-6:
            problems.append("indifference violated by %.3g" % gap)
        welfare, quality = self.pkg.eq.welfare_quality_analytic(policy, p["beta"])
        quad_err = (policy.n + 1.0) / self.pkg.obj.DEFAULT_QUAD.m
        for label, est, se, ref in (
                ("welfare", report["empirical_welfare"], report["welfare_se"], welfare),
                ("quality", report["empirical_quality"], report["quality_se"], quality)):
            if abs(float(est) - ref) > SE_MULTIPLE * float(se) + quad_err:
                problems.append("%s %s is %.1f SE from %r" % (
                    label, est, abs(float(est) - ref) / float(se), ref))
        if float(report["max_deviation_gain"]) > SE_MULTIPLE * float(report["deviation_se"]):
            problems.append("deviation gain %s exceeds %g SE"
                            % (report["max_deviation_gain"], SE_MULTIPLE))
        if report["samples"] != self.samples:
            problems.append("report covers %s samples" % report["samples"])
        return problems

    def warmup(self, measure):
        code, _ = self._cli(self._argv(self.op(0, 0).params, 1000))
        if code != 0:
            raise RuntimeError("warm-up equilibrium exited %d" % code)
        return {}

    def extras(self, op, out):
        # the draws simulate makes: the quantile map, then a per-round sort
        p = op.params
        eq = self.pkg.eq
        model = eq.EquilibriumModel(self.pkg.pol.parse_policy(p["policy"]), p["beta"])
        rng = np.random.default_rng(p["sim_seed"])
        t0 = time.perf_counter()
        draws = eq.quantile(model, rng.random(self.samples * p["n"]))
        np.sort(draws.reshape(self.samples, p["n"]), axis=1)
        return {"equilibrium.draws_s": time.perf_counter() - t0}



WORKLOADS = {w.name: w for w in (PhaseSweep, CertifyBnb, LatticeOracle, EquilibriumAudit)}
