"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import numpy as np
import pytest


@pytest.fixture
def child_peak_mb():
    """Run Python source in a fresh interpreter and return its peak RSS in MB.

    The child reads its own VmHWM, which, unlike ru_maxrss, is not carried
    over from the parent across exec.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak RSS from /proc")

    def run(code: str) -> float:
        code += "\nprint([l for l in open('/proc/self/status') if l.startswith('VmHWM')][0])\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        return int(proc.stdout.split()[-2]) / 1024  # "VmHWM:  85016 kB"

    return run


def _holder_constants(n: int, alpha: float, beta: float, quad=None) -> tuple[float, float]:
    """(C1, C2) with |G(p1 + s) - G(p1)| <= C1 s + C2 s^(1/beta) for the
    welfare/quality mix G on the two-level chain: a term coef * x^a * h^r
    moves h by c1 * s at each node, with h in [0, 1], so by at most
    |coef| r I[x^a |c1|] s for r > 1 (in C1) and |coef| I[x^a |c1|^r] s^r
    for 0 < r <= 1 (in C2); a term with r = 0 is constant.  A reference
    for the depth and contraction bounds that tests derive from it."""
    from contest_opt.objective import ConvexCombo, _terms
    from contest_opt.optimizer import BNB_QUAD, _family

    fam = _family(n, quad or BNB_QUAD)
    abs_c1 = np.abs(fam.c1)
    c1 = c2 = 0.0
    for t in _terms(ConvexCombo(alpha), beta, n):
        w = fam.w * fam.x ** t.x_pow if t.x_pow else fam.w
        if t.power > 1.0:
            c1 += abs(t.coef) * t.power * float(abs_c1 @ w)
        elif t.power > 0.0:
            c2 += abs(t.coef) * float((abs_c1 ** t.power) @ w)
    return c1, c2


@pytest.fixture
def holder_constants():
    """`_holder_constants`: the mix's step-move constants (C1, C2) on the chain."""
    return _holder_constants
