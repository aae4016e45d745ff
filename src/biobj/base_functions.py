"""The 10 single-objective base functions with per-instance optimum placement.

Functions keep their historical ids {1, 2, 6, 8, 13, 14, 15, 17, 20, 21};
an instance fixes the optimum location, the optimal value, and any rotation
matrices or peak layouts, all drawn from independent seeded streams.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import constants as C
from .transforms import (
    boundary_penalty,
    derive_seed,
    diagonal_scaling,
    random_rotation,
    t_asy,
    t_osz,
    uniform_stream,
)

BASE_FUNCTION_NAMES = {
    1: "Sphere",
    2: "Ellipsoid separable",
    6: "Attractive sector",
    8: "Rosenbrock original",
    13: "Sharp ridge",
    14: "Sum of different powers",
    15: "Rastrigin",
    17: "Schaffer F7, condition 10",
    20: "Schwefel x*sin(x)",
    21: "Gallagher 101 peaks",
}

#: Accepted function ids, in the ascending order used for pairing.
BASE_FUNCTION_IDS = tuple(BASE_FUNCTION_NAMES)

# Stream tags: every drawn quantity of an instance gets its own stream.
_TAG_X_OPT = 1
_TAG_F_OPT = 2
_TAG_ROT_R = 3
_TAG_ROT_Q = 4
_TAG_AUX = 5


class UnknownFunctionError(ValueError):
    """Raised for a function id outside the 10 supported ones."""


@dataclass(frozen=True, eq=False)
class BaseInstance:
    """One instantiated single-objective function.

    Immutable after construction (``aux`` is a read-only mapping, and
    ``x_opt`` and every ``aux`` array are read-only); evaluation is pure, so
    instances may be shared freely across threads.  ``x_opt`` and every
    per-coordinate ``aux`` vector have shape (D,).
    """

    fn: int
    instance_id: int
    dim: int
    x_opt: np.ndarray
    f_opt: float
    aux: Mapping


def _check_fn(fn: int) -> None:
    if fn not in BASE_FUNCTION_NAMES:
        raise UnknownFunctionError(
            f"unknown base function id {fn}; expected one of {BASE_FUNCTION_IDS}"
        )


def _draw_f_opt(fn: int, instance_id: int) -> float:
    u = uniform_stream(derive_seed(fn, instance_id, 0, _TAG_F_OPT), 1)[0]
    value = round(100.0 * math.tan(math.pi * (u - 0.5))) / 100.0
    return float(min(C.F_OPT_CLIP, max(-C.F_OPT_CLIP, value)))


def _draw_x_opt(fn: int, instance_id: int, dim: int) -> np.ndarray:
    seed = derive_seed(fn, instance_id, dim, _TAG_X_OPT)
    if fn == 20:
        # Sign pattern from an odd-multiplier bit schedule: patterns of two
        # instance ids differ whenever the ids differ mod 2^D.
        bits = (instance_id * C.SCHWEFEL_SIGN_MULTIPLIER) & C.MASK64
        signs = np.array(
            [1.0 if (bits >> i) & 1 else -1.0 for i in range(dim)]
        )
        return C.SCHWEFEL_XOPT * signs
    half = C.ROSENBROCK_XOPT_RANGE if fn == 8 else C.XOPT_RANGE
    return uniform_stream(seed, dim) * (2.0 * half) - half


@lru_cache(maxsize=4096)
def instantiate_base(fn: int, instance_id: int, dim: int) -> BaseInstance:
    """Build the instance of ``fn`` with the given instance id and dimension.

    Deterministic in its arguments; results are cached (instances are
    immutable, so sharing the cached object is safe).
    """
    _check_fn(fn)
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    if instance_id < 1:
        raise ValueError(f"instance id must be >= 1, got {instance_id}")

    x_opt = _draw_x_opt(fn, instance_id, dim)
    f_opt = _draw_f_opt(fn, instance_id)
    seed_r = derive_seed(fn, instance_id, dim, _TAG_ROT_R)
    seed_q = derive_seed(fn, instance_id, dim, _TAG_ROT_Q)
    lam10 = diagonal_scaling(10.0, dim)

    aux: dict = {}

    if fn in (6, 13):
        r = random_rotation(seed_r, dim)
        q = random_rotation(seed_q, dim)
        aux["outer"] = q @ (lam10[:, None] * r)  # Q diag(lam) R
    elif fn == 14:
        aux["rot"] = random_rotation(seed_r, dim)
        aux["exponents"] = 2.0 + 4.0 * np.arange(dim) / (dim - 1)
    elif fn == 15:
        aux["rot"] = r = random_rotation(seed_r, dim)
        q = random_rotation(seed_q, dim)
        aux["outer"] = r @ (lam10[:, None] * q)  # R diag(lam) Q
    elif fn == 17:
        aux["rot"] = random_rotation(seed_r, dim)
        q = random_rotation(seed_q, dim)
        aux["outer"] = lam10[:, None] * q  # diag(lam) Q
    elif fn == 2:
        aux["weights"] = 10.0 ** (6.0 * np.arange(dim) / (dim - 1))
    elif fn == 8:
        aux["scale"] = max(1.0, math.sqrt(dim) / 8.0)
    elif fn == 20:
        aux["lam"] = lam10
        aux["x_opt_sign"] = 2.0 * np.sign(x_opt)  # +-2 per coordinate
    elif fn == 21:
        aux.update(_gallagher_layout(instance_id, dim, x_opt))
        aux["rot"] = random_rotation(seed_r, dim)

    for array in (x_opt, *aux.values()):
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return BaseInstance(fn, instance_id, dim, x_opt, f_opt, MappingProxyType(aux))


def _gallagher_layout(instance_id: int, dim: int, x_opt: np.ndarray) -> dict:
    """Peak centers, heights, and per-peak diagonal conditioning.

    Departs from RR-6829's f21, which permutes the diagonal of each peak's
    C_i at random: here every peak's diagonal is in ascending order, so all
    peaks are narrowest along the same rotated axis (the last).  Mending it
    changes every f21 value.
    """
    n = C.N_PEAKS
    seed = derive_seed(21, instance_id, dim, _TAG_AUX)
    u = uniform_stream(seed, (n - 1) * dim + (n - 1))

    centers = np.empty((n, dim))
    centers[0] = x_opt
    centers[1:] = (
        u[: (n - 1) * dim].reshape(n - 1, dim) * (2.0 * C.PEAK_RANGE)
        - C.PEAK_RANGE
    )

    heights = np.empty(n)
    heights[0] = C.GLOBAL_PEAK_HEIGHT
    heights[1:] = C.PEAK_HEIGHT_MIN + (
        C.PEAK_HEIGHT_MAX - C.PEAK_HEIGHT_MIN
    ) * np.arange(n - 1) / (n - 2)

    # Condition ratios: geometric schedule permuted by the instance stream.
    schedule = C.PEAK_CONDITION_MAX ** (np.arange(n - 1) / (n - 2))
    order = np.argsort(u[(n - 1) * dim :], kind="stable")
    alphas = np.empty(n)
    alphas[0] = math.sqrt(C.PEAK_CONDITION_MAX)
    alphas[1:] = schedule[order]

    # Diagonal quadratic-form coefficients with ratio alpha, geometric mean 1.
    frac = np.arange(dim) / (dim - 1)
    coeffs = alphas[:, None] ** (frac[None, :] - 0.5)
    # Stored (D, 101), the peak axis innermost, as _eval_gallagher uses them.
    # The powers are taken in the (101, D) layout: at D = 2, numpy's pow
    # rounds some of them differently when computed in the (D, 101) one.
    return {"centers": centers.T.copy(), "heights": heights, "coeffs": coeffs.T.copy()}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_base(inst: BaseInstance, X) -> np.ndarray:
    """Evaluate ``inst`` at each row of ``X`` (shape (N, D)); returns shape (N,).

    A row's value does not depend on its batch: it is bitwise the value of
    the same row evaluated as a batch of one.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != inst.dim:
        raise ValueError(f"expected shape (N, {inst.dim}), got {X.shape}")
    return _EVALUATORS[inst.fn](inst, X) + inst.f_opt


# The evaluators below give each row the bits it gets as a batch of one, so
# that batching changes no output:
# - a rotation is a stack of gemv products m @ z (``_rotate``); a gemm
#   X @ m.T, einsum and column sums round differently, and a gemm's rounding
#   depends on N;
# - a row's dot product is ``np.vecdot``, which rounds like the 1-D z @ z;
#   sum(Z * Z, axis=1) and einsum do not;
# - sums, means and maxima reduce the last axis of a row block, one row at a
#   time, through the ufunc method (``np.add.reduce``: the np.sum and np.mean
#   wrappers cost more per call);
# - a sum over an axis that is not innermost (Gallagher's D axis, with its
#   101 peaks innermost) adds its terms in ``np.add.reduce``'s per-row order
#   (``_sum_d_axis``): below 8 terms in sequence; from 8 on, into eight
#   interleaved partial sums r0..r7, combined as
#   ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remaining
#   terms in sequence.  numpy's pairwise summation splits further only past
#   128 terms, and suite dimensions stop at 40;
# - a stacked (D, D) @ (D, 101) gemm rounds each element as the transposed
#   (101, D) @ (D, D) gemm does;
# - a power of one value per row is C ``pow`` on Python floats (``_c_pow``):
#   numpy's array power and square differ from it in the last bit for some
#   inputs.


def _rotate(m: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``m @ z`` for each row z of ``Z``, as a stack of gemv products."""
    return (m @ Z[..., None])[..., 0]


def _sum_d_axis(T: np.ndarray) -> np.ndarray:
    """Sum of ``T`` over its second-last axis, each element added in the order
    ``np.add.reduce`` adds a contiguous last axis, so with the same bits.

    numpy reduces an axis that is not innermost in sequence, one slice at a
    time; this builds the pairwise order of a contiguous axis from such
    reductions.
    """
    n = T.shape[-2]
    if n < 8:
        return np.add.reduce(T, -2)
    # r0..r7 as one (..., 8, M) block: column j sums terms j, j + 8, ...
    end = n - n % 8
    block = T[..., :end, :]
    r = np.add.reduce(block.reshape(*block.shape[:-2], end // 8, 8, -1), -3)
    r = r[..., 0::2, :] + r[..., 1::2, :]
    r = r[..., 0::2, :] + r[..., 1::2, :]
    acc = r[..., 0, :] + r[..., 1, :]
    for k in range(end, n):
        acc += T[..., k, :]
    return acc


def _c_pow(a: np.ndarray, p: float) -> np.ndarray:
    """``v ** p`` with C pow for each element v of the 1-D array ``a``."""
    return np.array([v**p for v in a.tolist()])


def _eval_sphere(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Z = X - inst.x_opt
    return np.vecdot(Z, Z)


def _eval_ellipsoid(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Z = t_osz(X - inst.x_opt)
    return np.vecdot(inst.aux["weights"], Z * Z)


def _eval_attractive_sector(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Z = _rotate(inst.aux["outer"], X - inst.x_opt)
    S = np.where(Z * inst.x_opt > 0.0, 100.0, 1.0)
    SZ = S * Z
    return _c_pow(t_osz(np.vecdot(SZ, SZ)), 0.9)


def _eval_rosenbrock(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Z = inst.aux["scale"] * (X - inst.x_opt) + 1.0
    head, tail = Z[:, :-1], Z[:, 1:]
    return np.add.reduce(100.0 * (head**2 - tail) ** 2 + (head - 1.0) ** 2, -1)


def _eval_sharp_ridge(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Z = _rotate(inst.aux["outer"], X - inst.x_opt)
    rest = Z[:, 1:]
    return _c_pow(Z[:, 0], 2) + 100.0 * np.sqrt(np.vecdot(rest, rest))


def _eval_different_powers(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Z = _rotate(inst.aux["rot"], X - inst.x_opt)
    return np.sqrt(np.add.reduce(np.abs(Z) ** inst.aux["exponents"], -1))


def _eval_rastrigin(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Y = t_asy(t_osz(_rotate(inst.aux["rot"], X - inst.x_opt)), 0.2)
    Z = _rotate(inst.aux["outer"], Y)
    cos_sum = np.add.reduce(np.cos(2.0 * np.pi * Z), -1)
    return 10.0 * (inst.dim - cos_sum) + np.vecdot(Z, Z)


def _eval_schaffer(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    Y = t_asy(_rotate(inst.aux["rot"], X - inst.x_opt), 0.5)
    Z = _rotate(inst.aux["outer"], Y)
    Q = Z**2
    S = np.sqrt(Q[:, :-1] + Q[:, 1:])
    RS = np.sqrt(S)
    core = np.add.reduce(RS + RS * np.sin(50.0 * S**0.2) ** 2, -1) / (inst.dim - 1)
    return _c_pow(core, 2) + 10.0 * boundary_penalty(X)


def _eval_schwefel(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    opt2 = 2.0 * C.SCHWEFEL_XOPT  # 2 |x_opt_i| in every coordinate
    xhat = inst.aux["x_opt_sign"] * X
    zhat = xhat.copy()
    zhat[:, 1:] += 0.25 * (xhat[:, :-1] - opt2)
    Z = 100.0 * (inst.aux["lam"] * (zhat - opt2) + opt2)
    # -mean / 100, the sign moved into the divisor: the same bits.
    core = np.add.reduce(Z * np.sin(np.sqrt(np.abs(Z))), -1) / inst.dim / -100.0
    return core + C.SCHWEFEL_OFFSET + 100.0 * boundary_penalty(Z / 100.0)


def _eval_gallagher(inst: BaseInstance, X: np.ndarray) -> np.ndarray:
    # (rows, D, 101) per slice: every row's peak offsets, rotated by one gemm
    # per row; a slice's temporaries stay under the mmap threshold.
    rows = max(1, C.UNMAPPED_BYTES // (8 * C.N_PEAKS * inst.dim))
    aux = inst.aux
    best = np.empty(len(X))
    for s in range(0, len(X), rows):
        Y = aux["rot"] @ (X[s : s + rows, :, None] - aux["centers"])
        q = _sum_d_axis(aux["coeffs"] * Y * Y)
        q /= -2.0 * inst.dim  # -(q / 2D): the same bits
        np.exp(q, out=q)
        q *= aux["heights"]
        best[s : s + rows] = np.maximum.reduce(q, -1)
    return _c_pow(t_osz(C.GLOBAL_PEAK_HEIGHT - best), 2) + boundary_penalty(X)


_EVALUATORS = {
    1: _eval_sphere,
    2: _eval_ellipsoid,
    6: _eval_attractive_sector,
    8: _eval_rosenbrock,
    13: _eval_sharp_ridge,
    14: _eval_different_powers,
    15: _eval_rastrigin,
    17: _eval_schaffer,
    20: _eval_schwefel,
    21: _eval_gallagher,
}
