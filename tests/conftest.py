import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import rwre
from rwre.environment import Constant, IidDiscrete, IidParametric, QuasiPeriodic


@pytest.fixture
def constant_75():
    return Constant(p=0.75)


@pytest.fixture
def constant_90():
    return Constant(p=0.9)


@pytest.fixture
def two_point():
    return IidDiscrete(atoms=((0.8, 0.5), (0.6, 0.5)))


@pytest.fixture
def zero_speed():
    # drift negative but order-1 growth rate > 1: transient right at zero speed
    return IidDiscrete(atoms=((0.9, 0.5), (0.15, 0.5)))


@pytest.fixture
def golden_qp():
    return QuasiPeriodic(alpha=(math.sqrt(5.0) - 1.0) / 2.0, omega0=0.0, coeffs=(0.7, 0.1))


@pytest.fixture
def rational_qp():
    # two harmonics: a single cosine at alpha=1/4 has orbit mean equal to the
    # circle mean by symmetry, which would hide the non-ergodic plateau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return QuasiPeriodic(alpha=0.25, omega0=0.0, coeffs=(0.7, 0.1, 0.05))


@pytest.fixture
def uniform_parametric():
    return IidParametric(family="uniform", p_lo=0.55, p_hi=0.9)


@pytest.fixture
def run_fresh():
    """Run Python code in a fresh interpreter that imports this checkout's rwre
    and return its stdout; ``run_fresh.env`` is that interpreter's environment."""
    env = dict(os.environ)
    src = str(Path(rwre.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def run(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True).stdout

    run.env = env
    return run
