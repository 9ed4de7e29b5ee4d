"""Command-line surface: evaluate, optimize, sweep, equilibrium, verify.

All numeric output is printed at 9 significant digits and contains no
timestamps, so identical invocations (seed included) produce byte-identical
files.  Exit codes: 0 ok, 1 usage, 2 verification failure, 3 budget/limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import equilibrium as eq
from . import objective as obj
from . import optimizer as opt
from . import verify as verify_mod
from .errors import BudgetExceededError, ContestOptError
from .policy import Policy, classify_structure, parse_policy
from .quadrature import QuadratureConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3


def _fmt(value: float) -> str:
    return "%.9g" % value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ContestOptError("cannot write %s: %s" % (output, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


def _quad_from_args(args, default: QuadratureConfig) -> QuadratureConfig:
    return QuadratureConfig(m=args.quad_m) if args.quad_m else default


def _objective_from_args(args) -> obj.ObjectiveSpec:
    if args.objective is not None:
        return obj.parse_objective_config(args.objective)
    return obj.ConvexCombo(alpha=0.0 if args.alpha is None else args.alpha)


def _refuse_unread(args, flags, where: str) -> None:
    """Refuse the first of `flags` that was given: `where` it is not read.

    Flags that only some paths read default to None, so a given one is
    told apart from one left out; each path that reads one sets its default.
    """
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ContestOptError("%s is not read %s" % (flag, where))


def _check_common(args) -> None:
    if getattr(args, "n", None) is not None and args.n < 2:
        raise ContestOptError("n must be >= 2")
    if getattr(args, "beta", None) is not None and args.beta <= 0:
        raise ContestOptError("beta must be positive")
    if getattr(args, "alpha", None) is not None and not 0 <= args.alpha <= 1:
        raise ContestOptError("alpha must lie in [0, 1]")


def _policy_from_args(args) -> Policy:
    """The --policy of evaluate and equilibrium.  A share list sets n itself,
    so a given --n must match its length; the named forms take n from --n,
    5 when it is left out."""
    policy = parse_policy(args.policy, 5 if args.n is None else args.n)
    if args.n is not None and policy.n != args.n:
        raise ContestOptError("--n %d does not match the %d shares of --policy"
                              % (args.n, policy.n))
    return policy


def cmd_evaluate(args) -> int:
    if args.objective is not None:
        _refuse_unread(args, ["--alpha"], "with --objective")
    _check_common(args)
    policy = _policy_from_args(args)
    spec = _objective_from_args(args)
    quad = _quad_from_args(args, obj.DEFAULT_QUAD)
    value = obj.evaluate(spec, args.beta, policy, quad)
    welfare, quality = eq.welfare_quality_analytic(policy, args.beta, quad)
    bound = obj.evaluate_error_bound(spec, args.beta, policy, quad)
    record = {
        "policy": str(policy),
        "objective": obj.format_objective_config(spec),
        "beta": args.beta,
        "value": value,
        "welfare": welfare,
        "quality": quality,
        "quadrature_error_bound": bound,
    }
    if classify_structure(policy, 1e-9).tag == "HM":
        record["closed_form"] = obj.hm_value(spec, args.beta, policy.n)
    if args.format == "json":
        text = json.dumps({k: (_fmt(v) if isinstance(v, float) else v)
                           for k, v in record.items()}, sort_keys=True) + "\n"
    else:
        text = "".join(
            "%s: %s\n" % (k, _fmt(v) if isinstance(v, float) else v)
            for k, v in record.items()
        )
    _emit(text, args.output)
    return EXIT_OK


def cmd_optimize(args) -> int:
    reads = {"bnb": "--epsilon", "grid": "--granularity", "line": "--steps"}
    _refuse_unread(args, [flag for method, flag in reads.items() if method != args.method],
                   "by --method %s" % args.method)
    if args.objective is not None:
        _refuse_unread(args, ["--alpha"], "with --objective")
    _check_common(args)
    if args.classify_tol is not None and not (args.classify_tol >= 0.0
                                              and math.isfinite(args.classify_tol)):
        raise ContestOptError("--classify-tol must be finite and >= 0, got %r"
                              % args.classify_tol)
    spec = _objective_from_args(args)
    if args.method == "bnb":
        cfg = opt.BnbConfig(epsilon=1e-3 if args.epsilon is None else args.epsilon,
                            quad=_quad_from_args(args, opt.BNB_QUAD))
        if args.n == 2:
            sys.stderr.write("note: n=2 admits only the winner-take-all split; "
                             "returning it directly\n")
        result = opt.branch_and_bound(args.n, spec, args.beta, cfg)
    elif args.method == "line":
        result = opt.two_level_line_search(
            spec, args.beta, args.n, steps=1000 if args.steps is None else args.steps,
            quad=_quad_from_args(args, opt.LINE_QUAD))
    elif args.method == "grid":
        granularity = 0.02 if args.granularity is None else args.granularity
        result = opt.grid_search(
            spec, args.beta, args.n, granularity,
            quad=_quad_from_args(args, opt.GRID_QUAD))
    else:  # pragma: no cover - argparse restricts choices
        raise ContestOptError("unknown method %r" % args.method)

    tol = args.classify_tol
    if tol is None:
        tol = 0.5 * granularity if args.method == "grid" else 1e-6
    shape = classify_structure(result.policy, tol)
    summary = {
        "policy": str(result.policy),
        "value": _fmt(result.value),
        "gap": _fmt(result.certified_gap) if result.certified_gap is not None else None,
        "certified": result.certified,
        "nodes": result.nodes_explored,
        "method": result.method,
        "structure": shape.tag,
        "p1": _fmt(shape.p1) if shape.p1 is not None else None,
    }
    if args.format == "json":
        text = result.to_json() + "\n"
    else:
        text = "".join("%s: %s\n" % (k, v) for k, v in summary.items())
    _emit(text, args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Write the alpha x beta portrait of optimal two-level policies as CSV.

    Each beta column is one `two_level_line_search_batch` over the column's
    alphas, so the column shares the grid points its line searches
    evaluate.  Rows are sorted by (alpha, beta).
    """
    if args.full:
        _refuse_unread(args, ["--cells", "--budget"], "with --full")
    _check_common(args)
    cells = 1000 if args.full else 50 if args.cells is None else args.cells
    budget = 10_000 if args.budget is None else args.budget
    if cells < 1:
        raise ContestOptError("sweep needs at least 1 cell per axis")
    opt.check_line_steps(args.steps)
    for flag, value in (("--alpha-min", args.alpha_min), ("--alpha-max", args.alpha_max)):
        if not 0.0 <= value <= 1.0:
            raise ContestOptError("%s must lie in [0, 1], got %r" % (flag, value))
    for flag, value in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ContestOptError("%s must be positive and finite, got %r" % (flag, value))
    if cells * cells > budget and not args.full:
        raise BudgetExceededError(
            "sweep of %d cells exceeds budget %d; pass --full for the "
            "overnight-scale run" % (cells * cells, budget)
        )
    alphas = np.linspace(args.alpha_min, args.alpha_max, cells)
    betas = np.linspace(args.beta_min, args.beta_max, cells)
    quad = _quad_from_args(args, QuadratureConfig(m=5000))
    spacing = (1.0 - 1.0 / (args.n - 1)) / (args.steps - 1)
    tol = max(1e-6, 0.5 * spacing)

    rows = []
    for beta in betas:
        results = opt.two_level_line_search_batch(
            [obj.ConvexCombo(alpha) for alpha in alphas], beta, args.n,
            steps=args.steps, quad=quad)
        for alpha, result in zip(alphas, results):
            p = result.policy.values
            tag = classify_structure(result.policy, tol).tag
            rows.append((alpha, beta, p[0], p[1], result.value, tag))
    rows.sort(key=lambda r: (r[0], r[1]))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha", "beta", "p1", "p2", "value", "structure_tag"])
    for alpha, beta, p1, p2, value, tag in rows:
        writer.writerow([_fmt(alpha), _fmt(beta), _fmt(p1), _fmt(p2), _fmt(value), tag])
    _emit(buf.getvalue(), args.output)
    return EXIT_OK


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ContestOptError("--seed must be >= 0, got %d" % seed)


def cmd_equilibrium(args) -> int:
    if not args.simulate:
        _refuse_unread(args, ["--seed", "--deviation-grid"], "without --simulate")
    _check_common(args)
    policy = _policy_from_args(args)
    model = eq.EquilibriumModel(policy, args.beta)
    seed = 0 if args.seed is None else args.seed
    grid = 50 if args.deviation_grid is None else args.deviation_grid
    if args.simulate:
        _check_seed(seed)
        # the audit's budgets, before the table takes any time
        eq.check_simulate(policy.n, args.simulate, seed, grid)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "F"])
    for q, f in eq.cdf_table(model, args.points):
        writer.writerow([_fmt(q), _fmt(f)])
    # simulate before writing, so a failed audit leaves no partial output
    report = eq.simulate(model, args.simulate, seed, deviation_grid=grid) if args.simulate else None
    _emit(buf.getvalue(), args.output)
    sys.stderr.write("q_max: %s\n" % _fmt(model.q_max))
    if report is not None:
        payload = {
            "empirical_welfare": _fmt(report.empirical_welfare),
            "empirical_quality": _fmt(report.empirical_quality),
            "welfare_se": _fmt(report.welfare_se),
            "quality_se": _fmt(report.quality_se),
            "max_deviation_gain": _fmt(report.max_deviation_gain),
            "deviation_se": _fmt(report.deviation_se),
            "samples": report.samples,
            "seed": report.seed,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ContestOptError("--trials must be at least 1, got %d" % args.trials)
    _check_seed(args.seed)
    results = verify_mod.run_checks(only=args.only, seed=args.seed, trials=args.trials)
    if not results:
        sys.stderr.write("error: no checks match %r\n" % args.only)
        return EXIT_USAGE
    lines = []
    for r in results:
        lines.append(json.dumps(
            {"name": r.name, "status": r.status,
             "worst_margin": _fmt(r.worst_margin), "seed": r.seed},
            sort_keys=True))
    text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    failed = [r for r in results if r.status != "pass"]
    if failed:
        sys.stderr.write("%d/%d checks failed\n" % (len(failed), len(results)))
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contest-opt",
        description="Optimal rank-based prize policies for contests with "
                    "power costs: evaluation, certified optimization, "
                    "equilibrium sampling and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *groups):
        """--n and --output, plus the named groups of flags the command reads."""
        if "policy" in groups:
            p.add_argument("--n", type=int, default=None,
                           help="number of contestants (default 5); a share list "
                                "sets its own, which a given --n must match")
        else:
            p.add_argument("--n", type=int, default=5, help="number of contestants")
        if "beta" in groups:
            p.add_argument("--beta", type=float, default=2.0, help="cost exponent")
        if "quad" in groups:
            p.add_argument("--quad-m", type=int, default=0,
                           help="quadrature size m, the trapezoid rule's m + 1 nodes "
                                "(0 = command default)")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        if "format" in groups:
            p.add_argument("--format", choices=["text", "json"], default="text")
        if "policy" in groups:
            p.add_argument("--policy", required=True,
                           help='shares "0.4,0.2,0.2,0.2,0" or hm | uni | two:<p1>')
        if "objective" in groups:
            p.add_argument("--alpha", type=float, default=None,
                           help="welfare weight of the convex objective (default 0); "
                                "not read with --objective")
            p.add_argument("--objective", default=None,
                           help='config string, e.g. "objective=posynomial terms=2:3,-3:2,2:1"')

    p_eval = sub.add_parser("evaluate", help="value, welfare and quality of a policy")
    common(p_eval, "beta", "quad", "format", "policy", "objective")

    p_opt = sub.add_parser("optimize", help="find an optimal policy")
    common(p_opt, "beta", "quad", "format", "objective")
    p_opt.add_argument("--method", choices=["bnb", "grid", "line"], default="bnb")
    p_opt.add_argument("--epsilon", type=float, default=None,
                       help="certified additive gap, bnb only (default 1e-3)")
    p_opt.add_argument("--granularity", type=float, default=None,
                       help="share lattice spacing, grid only (default 0.02)")
    p_opt.add_argument("--steps", type=int, default=None,
                       help="top-share grid points, line only (default 1000)")
    p_opt.add_argument("--classify-tol", type=float, default=None,
                       help="structure classification tolerance")

    p_sweep = sub.add_parser(
        "sweep",
        help="alpha x beta sweep of optimal two-level policies",
        description="Writes CSV with columns alpha, beta, p1, p2, value, "
                    "structure_tag; rows sorted by (alpha, beta).")
    common(p_sweep, "quad")
    p_sweep.add_argument("--cells", type=int, default=None,
                         help="cells per axis (default 50); not read with --full")
    p_sweep.add_argument("--alpha-min", type=float, default=0.05)
    p_sweep.add_argument("--alpha-max", type=float, default=1.0)
    p_sweep.add_argument("--beta-min", type=float, default=0.1)
    p_sweep.add_argument("--beta-max", type=float, default=5.0)
    p_sweep.add_argument("--steps", type=int, default=300,
                         help="line-search points per cell")
    p_sweep.add_argument("--budget", type=int, default=None,
                         help="maximum cell count (default 10000); not read with --full")
    p_sweep.add_argument("--full", action="store_true",
                         help="1000x1000 cells; overnight-scale")

    p_eq = sub.add_parser(
        "equilibrium",
        help="CDF table and Monte Carlo audit",
        description="Writes CSV with columns q, F (the equilibrium CDF on a "
                    "uniform grid over the support); q_max goes to stderr and "
                    "the optional simulation report to stdout as JSON.")
    common(p_eq, "beta", "policy")
    p_eq.add_argument("--points", type=int, default=101, help="CDF table rows")
    p_eq.add_argument("--simulate", type=int, default=0,
                      help="Monte Carlo sample count (0 = skip)")
    p_eq.add_argument("--seed", type=int, default=None,
                      help="sampler seed (default 0); read only with --simulate")
    p_eq.add_argument("--deviation-grid", type=int, default=None,
                      help="deviation qualities of the audit (default 50); read only "
                           "with --simulate")

    p_ver = sub.add_parser("verify", help="run the named invariant checks")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument("--only", default=None, help="substring filter on check names")
    p_ver.add_argument("--output", default=None)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` reuses: building it costs about 1.8 ms, and
    each parse starts from a fresh namespace.  It holds no command function,
    so `main` finds ``cmd_<command>`` in this module when the command runs."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()["cmd_" + args.command](args)
    except BudgetExceededError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_BUDGET
    except ContestOptError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
