"""Fixed reference program that measures the machine's speed, not twistrank's.

    python3 bench/reference.py

Shared 2-core machines drift by 10-40 % over minutes, much more than the
changes the benchmark must see.  run.py alternates this program with the
workload's samples and scales the run's times by
``REFERENCE_S / median(reference wall)``: a slow phase of the machine slows
both, and the ratio keeps only what the program itself changed.

The work mirrors what the workloads spend time on, and imports nothing from
twistrank, so no change to the program can move it: the imports twistrank
pays (numpy, scipy.integrate, scipy.special), pure-Python integer loops
like the Kronecker symbol, numpy modular arithmetic like the a_p character
sum, and oscillatory QAWO quadrature with a Python integrand.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad


def integer_loop(n: int) -> int:
    acc = 0
    for a in range(1, n):
        m = 1_000_003
        while a:
            a, m = m % a, a
        acc += m
    return acc


def array_loop(p: int, rounds: int) -> int:
    x = np.arange(p, dtype=np.int64)
    acc = 0
    for k in range(rounds):
        acc += int((((x * x) % p + k) * x % p).sum())
    return acc


def quadrature(n: int) -> float:
    def f(t: float) -> float:
        if not 0.5 < t < 1.0:
            return 0.0
        return math.exp(-1.0 / ((t - 0.5) * (1.0 - t)))

    kw = dict(weight="cos", epsabs=1e-13, epsrel=1e-13, limit=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(quad(f, 0.5, 1.0, wvar=2.0 * math.pi * 40.0 * k, **kw)[0] for k in range(1, n))


if __name__ == "__main__":
    integer_loop(400_000)
    array_loop(50_021, 120)
    quadrature(10_000)
