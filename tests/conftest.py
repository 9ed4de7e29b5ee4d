"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

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
