"""Quadrature sums: `integrate`'s fixed blocks, and outputs that do not
depend on the BLAS thread count."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from contest_opt.errors import DomainError
from contest_opt.objective import (
    ConvexCombo,
    Exponential,
    MaxOrderStat,
    Posynomial,
    _plan,
    _term_values,
    evaluate,
    evaluate_error_bound,
    hm_value,
)
from contest_opt.optimizer import BNB_QUAD, _BatchSums, _family
from contest_opt.policy import hm
from contest_opt.quadrature import _SUM_BLOCK, QuadratureConfig, integrate

B = _SUM_BLOCK


def _arrays(m, batch=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (m,) if batch is None else (m, batch)
    return rng.random(shape), rng.random(m) / m


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestIntegrate:
    @pytest.mark.parametrize("m", [1, 2, 1000, B - 1, B])
    @pytest.mark.parametrize("batch", [None, 1, 7, 65])
    def test_one_block_is_the_plain_product(self, m, batch):
        """Up to one block, the sum is ``values.T @ w`` bit for bit."""
        values, w = _arrays(m, batch)
        assert _bits(integrate(values, w)) == _bits(values.T @ w)

    @pytest.mark.parametrize("m", [B + 1, 2 * B, 100_000])
    @pytest.mark.parametrize("batch", [None, 1, 5])
    def test_blocks_are_added_in_node_order(self, m, batch):
        """Past one block, the sum is the block products of `_SUM_BLOCK`
        nodes each, added first to last."""
        values, w = _arrays(m, batch, seed=m)
        expected = values[:B].T @ w[:B]
        for a in range(B, m, B):
            expected = expected + values[a:a + B].T @ w[a:a + B]
        assert _bits(integrate(values, w)) == _bits(expected)

    def test_a_strided_column_is_summed_block_by_block(self):
        """A column of a matrix, as `verify`'s moment check passes it: its
        blocks are strided, and BLAS sums a strided block in another order
        than a contiguous one, so the reference takes the same views."""
        values, w = _arrays(3 * B + 17, batch=4, seed=3)
        column = values[:, 2]
        expected = column[:B] @ w[:B]
        for a in range(B, len(w), B):
            expected = expected + column[a:a + B] @ w[a:a + B]
        assert _bits(integrate(column, w)) == _bits(expected)

    def test_shape_sums_integrate_each_half(self):
        """`shape_sums`' rise and fall halves, at `BNB_QUAD`, are `integrate`
        of each half of the shape's integrand on either side of the cut."""
        n, b, p1 = 5, 2.0, 0.6
        fam = _family(n, BNB_QUAD)
        assert BNB_QUAD.m > 2 * B and 0 < fam.cut < BNB_QUAD.m
        specs = [ConvexCombo(0.24), MaxOrderStat(), Exponential((1.5,), truncation_m=6)]
        plans = _BatchSums(fam, specs, b).plans
        h = fam.c1 * p1 + fam.c0
        got = fam.shape_sums(plans, p1)
        for plan, (rise, fall) in zip(plans, got):
            v = _term_values(plan, fam.x, h)
            assert _bits(rise) == _bits(integrate(v[fam.cut:], fam.w[fam.cut:]))
            assert _bits(fall) == _bits(integrate(v[:fam.cut], fam.w[:fam.cut]))


class TestMonotoneErrorBound:
    def test_allowance_is_half_the_range_over_m(self):
        """The trapezoid sum is the mean of the left and right Riemann sums,
        so half their gap bounds its error."""
        quad = QuadratureConfig(m=1000)
        assert quad.monotone_error_bound(0.0, 1.0) == 0.5 / 1000
        assert quad.monotone_error_bound(3.0, 1.0) == 1.0 / 1000

    @pytest.mark.parametrize("field", [{"rule": "right_riemann"},
                                       {"exclude_left_endpoint": True}])
    def test_only_the_trapezoid_with_its_node_at_zero_is_built(self, field):
        with pytest.raises(DomainError):
            QuadratureConfig(m=1000, **field)

    def test_the_benchmark_harness_config_builds(self):
        """perfbench/workloads.py's ENUMERATE_ONLY_QUAD names both fields."""
        quad = QuadratureConfig(**{"m": 2, "rule": "trapezoid", "exclude_left_endpoint": False})
        assert quad == QuadratureConfig(m=2)
        assert np.array_equal(quad.nodes_weights()[0], [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("m", [16, 256, 4096, 2**16])
    @pytest.mark.parametrize("spec", [
        ConvexCombo(0.24), MaxOrderStat(), Exponential((1.5,)),
        Posynomial(((-1.0, 1.0), (2.0, 3.0))),
    ])
    def test_half_allowance_covers_the_exact_value(self, spec, m):
        """At winner-take-all, whose value `hm_value` gives in closed form,
        the trapezoid sum lies within its half allowance of it."""
        quad = QuadratureConfig(m=m)
        for n in (3, 5, 8, 20):
            for beta in (0.3, 0.7, 1.0, 2.0, 5.0):
                error = abs(evaluate(spec, beta, hm(n), quad) - hm_value(spec, beta, n))
                assert error <= evaluate_error_bound(spec, beta, hm(n), quad), (n, beta)


# commands whose sums run over more than `_SUM_BLOCK` nodes, and the grid
# oracle, whose sums run over 1001 nodes in batches
THREAD_COMMANDS = (
    ("optimize", "--method", "bnb", "--n", "5", "--alpha", "0.24", "--beta", "2",
     "--epsilon", "1e-4", "--format", "json"),
    ("optimize", "--method", "line", "--n", "5", "--alpha", "0.24", "--beta", "2",
     "--format", "json"),
    ("optimize", "--method", "grid", "--n", "5", "--alpha", "0", "--beta", "2",
     "--granularity", "0.05", "--format", "json"),
    ("verify", "--seed", "42", "--trials", "200", "--only", "bernstein.moment_integral"),
    ("verify", "--seed", "42", "--trials", "200", "--only", "objective.gradient_fd"),
)


def test_outputs_do_not_depend_on_the_blas_thread_count():
    """One child interpreter per thread count runs every command; their
    stdout is the same bytes at one BLAS thread and at two.  OpenBLAS splits
    a long dot product over its threads, and the split moves the last bits
    of the sum, so this holds only while no sum reaches the BLAS in one call
    long enough to be split.  On a one-core machine both children run one
    thread, and the test cannot fail."""
    script = textwrap.dedent("""
        from contest_opt.cli import main
        for argv in %r:
            assert main(list(argv)) == 0, argv
    """ % (THREAD_COMMANDS,))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0].count(b"\n") == len(THREAD_COMMANDS)
    assert outputs[0] == outputs[1]
