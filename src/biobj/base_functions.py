"""The 10 single-objective base functions with per-instance optimum placement.

Functions keep their historical ids {1, 2, 6, 8, 13, 14, 15, 17, 20, 21};
an instance fixes the optimum location, the optimal value, and any rotation
matrices or peak layouts, all drawn from independent seeded streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

#: Accepted function ids, in the ascending order used for pairing.
BASE_FUNCTION_IDS = (1, 2, 6, 8, 13, 14, 15, 17, 20, 21)

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

    Immutable after construction; evaluation is pure, so instances may be
    shared freely across threads.
    """

    fn: int
    instance_id: int
    dim: int
    x_opt: np.ndarray
    f_opt: float
    aux: dict


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
        aux["x_opt_abs"] = 2.0 * np.abs(x_opt)  # 4.2096874633 per coordinate
    elif fn == 21:
        aux.update(_gallagher_layout(instance_id, dim, x_opt))
        aux["rot"] = random_rotation(seed_r, dim)

    inst = BaseInstance(fn, instance_id, dim, x_opt, f_opt, aux)
    inst.x_opt.setflags(write=False)
    return inst


def _gallagher_layout(instance_id: int, dim: int, x_opt: np.ndarray) -> dict:
    """Peak centers, heights, and per-peak diagonal conditioning."""
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
    return {"centers": centers, "heights": heights, "coeffs": coeffs}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_base(inst: BaseInstance, x) -> float:
    """Evaluate ``inst`` at ``x`` (length-D, finite)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.dim,):
        raise ValueError(f"expected a vector of length {inst.dim}, got shape {x.shape}")
    return _EVALUATORS[inst.fn](inst, x) + inst.f_opt


def _eval_sphere(inst: BaseInstance, x: np.ndarray) -> float:
    z = x - inst.x_opt
    return float(z @ z)


def _eval_ellipsoid(inst: BaseInstance, x: np.ndarray) -> float:
    z = t_osz(x - inst.x_opt)
    return float(inst.aux["weights"] @ (z * z))


def _eval_attractive_sector(inst: BaseInstance, x: np.ndarray) -> float:
    z = inst.aux["outer"] @ (x - inst.x_opt)
    s = np.where(z * inst.x_opt > 0.0, 100.0, 1.0)
    sz = s * z
    return float(t_osz(float(sz @ sz)) ** 0.9)


def _eval_rosenbrock(inst: BaseInstance, x: np.ndarray) -> float:
    z = inst.aux["scale"] * (x - inst.x_opt) + 1.0
    head, tail = z[:-1], z[1:]
    return float(
        np.sum(100.0 * (head**2 - tail) ** 2 + (head - 1.0) ** 2)
    )


def _eval_sharp_ridge(inst: BaseInstance, x: np.ndarray) -> float:
    z = inst.aux["outer"] @ (x - inst.x_opt)
    return float(z[0] ** 2 + 100.0 * math.sqrt(float(z[1:] @ z[1:])))


def _eval_different_powers(inst: BaseInstance, x: np.ndarray) -> float:
    z = inst.aux["rot"] @ (x - inst.x_opt)
    return float(math.sqrt(np.sum(np.abs(z) ** inst.aux["exponents"])))


def _eval_rastrigin(inst: BaseInstance, x: np.ndarray) -> float:
    y = t_asy(t_osz(inst.aux["rot"] @ (x - inst.x_opt)), 0.2)
    z = inst.aux["outer"] @ y
    return float(
        10.0 * (inst.dim - np.sum(np.cos(2.0 * np.pi * z))) + z @ z
    )


def _eval_schaffer(inst: BaseInstance, x: np.ndarray) -> float:
    z = inst.aux["outer"] @ t_asy(inst.aux["rot"] @ (x - inst.x_opt), 0.5)
    s = np.sqrt(z[:-1] ** 2 + z[1:] ** 2)
    rs = np.sqrt(s)
    core = np.mean(rs + rs * np.sin(50.0 * s**0.2) ** 2)
    return float(core**2 + 10.0 * boundary_penalty(x))


def _eval_schwefel(inst: BaseInstance, x: np.ndarray) -> float:
    signs = np.sign(inst.x_opt)
    opt2 = inst.aux["x_opt_abs"]
    xhat = 2.0 * signs * x
    zhat = xhat.copy()
    zhat[1:] += 0.25 * (xhat[:-1] - opt2[:-1])
    z = 100.0 * (inst.aux["lam"] * (zhat - opt2) + opt2)
    core = -np.mean(z * np.sin(np.sqrt(np.abs(z)))) / 100.0
    return float(
        core + C.SCHWEFEL_OFFSET + 100.0 * boundary_penalty(z / 100.0)
    )


def _eval_gallagher(inst: BaseInstance, x: np.ndarray) -> float:
    diff = (x[None, :] - inst.aux["centers"]) @ inst.aux["rot"].T
    q = np.sum(inst.aux["coeffs"] * diff * diff, axis=1) / (2.0 * inst.dim)
    best = float(np.max(inst.aux["heights"] * np.exp(-q)))
    return float(
        t_osz(C.GLOBAL_PEAK_HEIGHT - best) ** 2 + boundary_penalty(x)
    )


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
