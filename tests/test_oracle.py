"""An independent oracle for the four rotation-free base functions.

Scalar transcriptions of f1 (sphere), f2 (separable ellipsoid), f8
(original Rosenbrock) and f20 (Schwefel x*sin(x)) from the definitions of
Hansen et al., "Real-parameter black-box optimization benchmarking 2009:
noiseless functions definitions" (INRIA RR-6829), in pure Python ``math``.
The oracle builds each function from the instance's ``x_opt`` and ``f_opt``
only: it reads no ``aux`` entry and calls nothing of ``biobj`` but the
instance builder and the evaluator under test.
"""

import math

import numpy as np
import pytest

from biobj.base_functions import evaluate_base, instantiate_base
from biobj.suite import SUITE_DIMS

#: Relative tolerance of evaluate_base against the oracle, on f - f_opt.
RTOL = 1e-11


def t_osz(x):
    """RR-6829's oscillation map of one coordinate."""
    if x == 0.0:
        return 0.0
    xh = math.log(abs(x))
    c1, c2 = (10.0, 7.9) if x > 0.0 else (5.5, 3.1)
    return math.copysign(math.exp(xh + 0.049 * (math.sin(c1 * xh) + math.sin(c2 * xh))), x)


def f_pen(x):
    """RR-6829's boundary penalty: sum of max(0, |x_i| - 5)^2."""
    return sum(max(0.0, abs(v) - 5.0) ** 2 for v in x)


def sphere(x, x_opt):
    return sum((v - o) ** 2 for v, o in zip(x, x_opt))


def ellipsoid(x, x_opt):
    d = len(x)
    return sum(
        10.0 ** (6.0 * i / (d - 1)) * t_osz(v - o) ** 2
        for i, (v, o) in enumerate(zip(x, x_opt))
    )


def rosenbrock(x, x_opt):
    d = len(x)
    c = max(1.0, math.sqrt(d) / 8.0)
    z = [c * (v - o) + 1.0 for v, o in zip(x, x_opt)]
    return sum(100.0 * (z[i] ** 2 - z[i + 1]) ** 2 + (z[i] - 1.0) ** 2 for i in range(d - 1))


def schwefel(x, x_opt):
    # x_opt = 4.2096874633 / 2 * (+-1 per coordinate); 1+- is its sign vector.
    d = len(x)
    opt2 = [2.0 * abs(o) for o in x_opt]
    xhat = [2.0 * math.copysign(1.0, o) * v for v, o in zip(x, x_opt)]
    zhat = [xhat[0]] + [xhat[i] + 0.25 * (xhat[i - 1] - opt2[i - 1]) for i in range(1, d)]
    lam = [10.0 ** (0.5 * i / (d - 1)) for i in range(d)]
    z = [100.0 * (lam[i] * (zhat[i] - opt2[i]) + opt2[i]) for i in range(d)]
    core = -sum(v * math.sin(math.sqrt(abs(v))) for v in z) / (100.0 * d)
    return core + 4.189828872724339 + 100.0 * f_pen([v / 100.0 for v in z])


ORACLES = {1: sphere, 2: ellipsoid, 8: rosenbrock, 20: schwefel}


def points(x_opt, rng):
    """21 points: 7 in the box [-5, 5]^D, 7 outside it, the optimum, and 6
    next to it at distances 1e-1 down to 1e-6."""
    d = len(x_opt)
    inside = rng.uniform(-5.0, 5.0, (7, d))
    outside = rng.uniform(-50.0, 50.0, (7, d))
    outside[:, 0] = np.copysign(rng.uniform(5.5, 50.0, 7), outside[:, 0])
    u = rng.standard_normal((6, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    near = x_opt + 10.0 ** -np.arange(1.0, 7.0)[:, None] * u
    return np.vstack([inside, outside, x_opt[None], near])


@pytest.mark.parametrize("dim", SUITE_DIMS)
@pytest.mark.parametrize("fn", sorted(ORACLES))
def test_matches_oracle(fn, dim):
    oracle = ORACLES[fn]
    for k in range(1, 16):
        inst = instantiate_base(fn, k, dim)
        X = points(inst.x_opt, np.random.default_rng(1000 * fn + 100 * dim + k))
        values = evaluate_base(inst, X)
        x_opt = inst.x_opt.tolist()
        for x, f in zip(X.tolist(), values.tolist()):
            expected = oracle(x, x_opt) + inst.f_opt
            assert abs(f - expected) <= RTOL * max(1.0, abs(f - inst.f_opt)), (
                fn, dim, k, x
            )


def test_oracle_fixed_points():
    # The transcription itself at hand-computed points: the sphere at
    # x_opt + e_1 is 1, t_osz fixes 0 and 1, and each function is 0 at x_opt.
    assert sphere([1.0, 2.0], [0.0, 2.0]) == 1.0
    assert t_osz(0.0) == 0.0 and t_osz(1.0) == 1.0
    for oracle in (sphere, ellipsoid, rosenbrock):
        assert oracle([0.5, -1.0], [0.5, -1.0]) == 0.0
    assert abs(schwefel([2.1048437316, -2.1048437316], [2.1048437316, -2.1048437316])) < 1e-9
