"""An independent oracle for the 10 base functions and ``t_asy``.

Scalar transcriptions of the definitions of Hansen et al., "Real-parameter
black-box optimization benchmarking 2009: noiseless functions definitions"
(INRIA RR-6829), in pure Python ``math``.  The oracle builds each function
from the instance's ``x_opt`` and ``f_opt`` only, re-drawing its rotations R
and Q from their seeded streams through ``random_rotation`` and rebuilding
the conditioning Λ and Gallagher's peak layout itself: it reads no ``aux``
entry and calls nothing of ``biobj`` but the instance builder, the stream
primitives and the evaluator under test.

One departure of biobj from RR-6829 is followed here: RR-6829 permutes the
diagonal of each Gallagher peak's C_i at random, biobj keeps it in
ascending order (see ``gallagher``).
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from biobj import transforms
from biobj.base_functions import (
    _TAG_AUX,
    _TAG_ROT_Q,
    _TAG_ROT_R,
    evaluate_base,
    instantiate_base,
)
from biobj.suite import SUITE_DIMS
from biobj.transforms import derive_seed, random_rotation, uniform_stream

#: Relative tolerance of evaluate_base against the oracle, on f - f_opt.
RTOL = 1e-11


def t_osz(x):
    """RR-6829's oscillation map of one coordinate."""
    if x == 0.0:
        return 0.0
    xh = math.log(abs(x))
    c1, c2 = (10.0, 7.9) if x > 0.0 else (5.5, 3.1)
    return math.copysign(math.exp(xh + 0.049 * (math.sin(c1 * xh) + math.sin(c2 * xh))), x)


def t_asy(x, beta):
    """RR-6829's asymmetry map of one vector."""
    d = len(x)
    return [
        v ** (1.0 + beta * i / (d - 1) * math.sqrt(v)) if v > 0.0 else v
        for i, v in enumerate(x)
    ]


def f_pen(x):
    """RR-6829's boundary penalty: sum of max(0, |x_i| - 5)^2."""
    return sum(max(0.0, abs(v) - 5.0) ** 2 for v in x)


def lam(alpha, d):
    """The diagonal of RR-6829's Λ^α: alpha^((1/2) (i-1)/(D-1)), i = 1..D."""
    return [alpha ** (0.5 * i / (d - 1)) for i in range(d)]


def matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def diff(x, y):
    return [a - b for a, b in zip(x, y)]


@lru_cache(maxsize=16)
def rotations(fn, k, d):
    """R and Q of instance ``k`` of ``fn`` at dimension ``d``, as nested lists."""
    return tuple(
        random_rotation(derive_seed(fn, k, d, tag), d).tolist()
        for tag in (_TAG_ROT_R, _TAG_ROT_Q)
    )


def sphere(x, x_opt, k):
    return sum((v - o) ** 2 for v, o in zip(x, x_opt))


def ellipsoid(x, x_opt, k):
    d = len(x)
    return sum(
        10.0 ** (6.0 * i / (d - 1)) * t_osz(v - o) ** 2
        for i, (v, o) in enumerate(zip(x, x_opt))
    )


def attractive_sector(x, x_opt, k):
    # z = Q Λ^10 R (x - x_opt); s_i = 100 where z_i x_opt_i > 0, else 1
    r, q = rotations(6, k, len(x))
    z = matvec(q, [l * v for l, v in zip(lam(10.0, len(x)), matvec(r, diff(x, x_opt)))])
    s = [100.0 if v * o > 0.0 else 1.0 for v, o in zip(z, x_opt)]
    return t_osz(sum((si * v) ** 2 for si, v in zip(s, z))) ** 0.9


def rosenbrock(x, x_opt, k):
    d = len(x)
    c = max(1.0, math.sqrt(d) / 8.0)
    z = [c * (v - o) + 1.0 for v, o in zip(x, x_opt)]
    return sum(100.0 * (z[i] ** 2 - z[i + 1]) ** 2 + (z[i] - 1.0) ** 2 for i in range(d - 1))


def sharp_ridge(x, x_opt, k):
    # z = Q Λ^10 R (x - x_opt)
    r, q = rotations(13, k, len(x))
    z = matvec(q, [l * v for l, v in zip(lam(10.0, len(x)), matvec(r, diff(x, x_opt)))])
    return z[0] ** 2 + 100.0 * math.sqrt(sum(v * v for v in z[1:]))


def different_powers(x, x_opt, k):
    # z = R (x - x_opt)
    d = len(x)
    z = matvec(rotations(14, k, d)[0], diff(x, x_opt))
    return math.sqrt(sum(abs(v) ** (2.0 + 4.0 * i / (d - 1)) for i, v in enumerate(z)))


def rastrigin(x, x_opt, k):
    # z = R Λ^10 Q T_asy^0.2(T_osz(R (x - x_opt)))
    d = len(x)
    r, q = rotations(15, k, d)
    y = t_asy([t_osz(v) for v in matvec(r, diff(x, x_opt))], 0.2)
    z = matvec(r, [l * v for l, v in zip(lam(10.0, d), matvec(q, y))])
    return 10.0 * (d - sum(math.cos(2.0 * math.pi * v) for v in z)) + sum(v * v for v in z)


def schaffer(x, x_opt, k):
    # z = Λ^10 Q T_asy^0.5(R (x - x_opt)); s_i = sqrt(z_i^2 + z_{i+1}^2)
    d = len(x)
    r, q = rotations(17, k, d)
    z = [l * v for l, v in zip(lam(10.0, d), matvec(q, t_asy(matvec(r, diff(x, x_opt)), 0.5)))]
    s = [math.sqrt(z[i] ** 2 + z[i + 1] ** 2) for i in range(d - 1)]
    core = sum(math.sqrt(v) + math.sqrt(v) * math.sin(50.0 * v**0.2) ** 2 for v in s) / (d - 1)
    return core**2 + 10.0 * f_pen(x)


def schwefel(x, x_opt, k):
    # x_opt = 4.2096874633 / 2 * (+-1 per coordinate); 1+- is its sign vector.
    d = len(x)
    opt2 = [2.0 * abs(o) for o in x_opt]
    xhat = [2.0 * math.copysign(1.0, o) * v for v, o in zip(x, x_opt)]
    zhat = [xhat[0]] + [xhat[i] + 0.25 * (xhat[i - 1] - opt2[i - 1]) for i in range(1, d)]
    lam10 = lam(10.0, d)
    z = [100.0 * (lam10[i] * (zhat[i] - opt2[i]) + opt2[i]) for i in range(d)]
    core = -sum(v * math.sin(math.sqrt(abs(v))) for v in z) / (100.0 * d)
    return core + 4.189828872724339 + 100.0 * f_pen([v / 100.0 for v in z])


@lru_cache(maxsize=16)
def local_peaks(k, d):
    """(w_i, R y_i, diagonal of C_i) of Gallagher's peaks i = 2..101.

    RR-6829: w_i = 1.1 + 8 (i-2)/99; C_i = Λ^{α_i} / α_i^(1/4), with α_i a
    permutation of 1000^(2j/99), j = 0..99.  biobj draws the y_i uniformly
    in [-4.9, 4.9]^D from the instance's layout stream, and the permutation
    by sorting (stably) the 100 draws that follow them.
    """
    r = rotations(21, k, d)[0]
    u = uniform_stream(derive_seed(21, k, d, _TAG_AUX), 100 * d + 100).tolist()
    tail = u[100 * d :]
    order = sorted(range(100), key=tail.__getitem__)
    peaks = []
    for p in range(100):
        alpha = 1000.0 ** (2.0 * order[p] / 99.0)
        y = [9.8 * v - 4.9 for v in u[p * d : (p + 1) * d]]
        c = [v / alpha**0.25 for v in lam(alpha, d)]
        peaks.append((1.1 + 8.0 * p / 99.0, matvec(r, y), c))
    return peaks


def gallagher(x, x_opt, k):
    # R (x - y_i) is taken as R x - R y_i, which rotates x once, not 101
    # times.  The diagonal of each C_i stays ascending: biobj does not
    # permute it.
    d = len(x)
    r = rotations(21, k, d)[0]
    rx = matvec(r, x)
    best = 0.0
    global_peak = (10.0, matvec(r, x_opt), [v / 1000.0**0.25 for v in lam(1000.0, d)])
    for w, ry, c in [global_peak] + local_peaks(k, d):
        q = sum(ci * (a - b) ** 2 for ci, a, b in zip(c, rx, ry))
        best = max(best, w * math.exp(-q / (2.0 * d)))
    return t_osz(10.0 - best) ** 2 + f_pen(x)


ORACLES = {
    1: sphere,
    2: ellipsoid,
    6: attractive_sector,
    8: rosenbrock,
    13: sharp_ridge,
    14: different_powers,
    15: rastrigin,
    17: schaffer,
    20: schwefel,
    21: gallagher,
}


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


def instance_points(fn, k, dim):
    inst = instantiate_base(fn, k, dim)
    return inst, points(inst.x_opt, np.random.default_rng(1000 * fn + 100 * dim + k))


@pytest.mark.parametrize("dim", SUITE_DIMS)
@pytest.mark.parametrize("fn", sorted(ORACLES))
def test_matches_oracle(fn, dim):
    oracle = ORACLES[fn]
    for k in range(1, 16):
        inst, X = instance_points(fn, k, dim)
        values = evaluate_base(inst, X)
        x_opt = inst.x_opt.tolist()
        for x, f in zip(X.tolist(), values.tolist()):
            expected = oracle(x, x_opt, k) + inst.f_opt
            assert abs(f - expected) <= RTOL * max(1.0, abs(f - inst.f_opt)), (
                fn, dim, k, x
            )


@pytest.mark.parametrize("dim", SUITE_DIMS)
@pytest.mark.parametrize("fn, beta", [(15, 0.2), (17, 0.5)])
def test_t_asy_matches_oracle(fn, beta, dim):
    # Alone, at the points and with the beta of the functions that use it.
    for k in range(1, 16):
        X = instance_points(fn, k, dim)[1]
        for x, row in zip(X.tolist(), transforms.t_asy(X, beta).tolist()):
            for v, expected in zip(row, t_asy(x, beta)):
                assert abs(v - expected) <= RTOL * max(1.0, abs(expected)), (fn, dim, k, x)


def test_oracle_fixed_points():
    # The transcription itself at hand-computed points: the sphere at
    # x_opt + e_1 is 1, t_osz fixes 0 and 1, t_asy fixes its first and its
    # non-positive coordinates and raises a last 4 to 1 + 0.5 sqrt(4) = 2,
    # and each function is 0 at x_opt.
    assert sphere([1.0, 2.0], [0.0, 2.0], 1) == 1.0
    assert t_osz(0.0) == 0.0 and t_osz(1.0) == 1.0
    assert t_asy([4.0, -4.0, 4.0], 0.5) == [4.0, -4.0, 4.0**2.0]
    for oracle in (sphere, ellipsoid, rosenbrock):
        assert oracle([0.5, -1.0], [0.5, -1.0], 1) == 0.0
    opt = [2.1048437316, -2.1048437316]
    assert abs(schwefel(opt, opt, 1)) < 1e-9
