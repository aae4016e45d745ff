"""Seeded randomness and the search-space transformation toolbox.

All operations here are pure functions of their arguments: the random
streams are counter-based, so regenerating any instance yields bit-identical
results on hosts with the same numpy SIMD loops, libm and BLAS kernels.
Other kernels may round the floating-point steps differently.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import (
    MASK64,
    MIX_MULTIPLIER_1,
    MIX_MULTIPLIER_2,
    OSC_AMPLITUDE,
    OSC_COEFFS_NEGATIVE,
    OSC_COEFFS_POSITIVE,
    PENALTY_EDGE,
    SEED_HASH_INIT,
    STREAM_GAMMA,
)

_U64 = np.uint64
_GAMMA = _U64(STREAM_GAMMA)


def _mix64(z):
    """The 64-bit finalizer of both the seed hash and the stream.

    ``z`` is a Python int or a uint64 array, mixed elementwise; on the array
    the masks change nothing, as its arithmetic already wraps mod 2**64.
    """
    z = z & MASK64
    z = ((z ^ (z >> 30)) * MIX_MULTIPLIER_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MULTIPLIER_2) & MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Hash a tuple of small integers into one 64-bit stream seed.

    Used to give every drawn quantity (optimum location, each rotation
    matrix, auxiliary data) its own independent, reproducible stream.
    """
    h = SEED_HASH_INIT
    for p in parts:
        h = _mix64((h + (int(p) * STREAM_GAMMA)) & MASK64)
    return h


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """Return ``n`` doubles in [0, 1), determined entirely by ``seed``.

    Counter-based: output i is mix64(seed + (i+1)*gamma), so any prefix of
    the stream is independent of how it is chunked.
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = _mix64(_U64(seed & MASK64) + idx * _GAMMA)  # wraps mod 2^64
    # keep the top 53 bits: exactly representable, in [0, 1)
    return (z >> _U64(11)).astype(np.float64) * 2.0**-53


def gaussian_stream(seed: int, n: int) -> np.ndarray:
    """Return ``n`` standard-normal doubles derived from ``uniform_stream``.

    Box-Muller on consecutive uniform pairs (u_{2k}, u_{2k+1}); each pair
    yields (r cos, r sin) in that order, with r = sqrt(-2 log(1 - u_{2k})).
    """
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    pairs = (n + 1) // 2
    u = uniform_stream(seed, 2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))  # 1 - u in (0, 1]
    theta = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def random_rotation(seed: int, dim: int) -> np.ndarray:
    """Draw a random ``dim x dim`` orthogonal matrix.

    A Gaussian matrix is filled row-major and orthonormalized with modified
    Gram-Schmidt, each finished row subtracted from all later rows at once.
    On a degenerate draw (pivot norm below 1e-12) the whole construction
    restarts with seed+1, preserving determinism.
    """
    if dim < 1:
        raise ValueError(f"rotation dimension must be >= 1, got {dim}")
    s = seed
    while True:
        a = gaussian_stream(s, dim * dim).reshape(dim, dim)
        if _gram_schmidt_rows(a):
            return a
        s = (s + 1) & MASK64


def _gram_schmidt_rows(a: np.ndarray) -> bool:
    """Orthonormalize the rows of ``a`` in place; False on a tiny pivot.

    Row i is divided by sqrt(a_i @ a_i) (``np.linalg.norm``'s formula), then
    its projection leaves all later rows in one step.  Each row gets the same
    subtractions in the same order as from the row-by-row loop
    ``a[i] -= (a[i] @ a[j]) * a[j]``, j < i, with the same bits: ``np.vecdot``
    rounds like the 1-D ``@`` (see ``base_functions``' evaluator comments).
    """
    for i in range(a.shape[0]):
        row = a[i]
        norm = math.sqrt(row @ row)
        if norm < 1e-12:
            return False
        row /= norm
        rest = a[i + 1 :]
        rest -= np.vecdot(rest, row)[:, None] * row
    return True


def diagonal_scaling(alpha: float, dim: int) -> np.ndarray:
    """Entries of the conditioning matrix: alpha**((i-1) / (2 (D-1))).

    The squared ratio of the last to the first entry equals ``alpha``.
    """
    if alpha <= 0:
        raise ValueError(f"condition parameter must be positive, got {alpha}")
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    exponents = np.arange(dim) / (2.0 * (dim - 1))
    return alpha**exponents


def t_osz(v) -> np.ndarray:
    """Oscillation nonlinearity: elementwise and sign-preserving.

    Monotone up to rounding (a few ulps).  For x != 0, with xh = log|x|:
        sign(x) * exp(xh + 0.049 (sin(c1 xh) + sin(c2 xh)))
    with (c1, c2) = (10, 7.9) for x > 0 and (5.5, 3.1) for x < 0; 0 maps
    to 0.  Returns an array of the input's shape.
    """
    x = np.asarray(v, dtype=float)
    xh = np.log(np.abs(x), out=np.zeros(x.shape), where=x != 0.0)
    pos = x > 0
    c1 = np.where(pos, OSC_COEFFS_POSITIVE[0], OSC_COEFFS_NEGATIVE[0])
    c2 = np.where(pos, OSC_COEFFS_POSITIVE[1], OSC_COEFFS_NEGATIVE[1])
    return np.sign(x) * np.exp(
        xh + OSC_AMPLITUDE * (np.sin(c1 * xh) + np.sin(c2 * xh))
    )


def t_asy(v, beta: float) -> np.ndarray:
    """Asymmetry operator, applied to each row (last axis) of ``v``.

    Positive coordinates are raised to 1 + beta * ((i-1)/(D-1)) * sqrt(x_i);
    non-positive coordinates pass through unchanged.  Needs D >= 2.
    """
    if beta < 0:
        raise ValueError(f"asymmetry parameter must be >= 0, got {beta}")
    x = np.asarray(v, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError(f"need rows of >= 2 coordinates, got shape {x.shape}")
    pos = x > 0
    # where= keeps the non-positive entries out of sqrt and pow; each
    # positive entry sees the same operations as in a per-element loop.
    e = np.sqrt(x, out=np.zeros(x.shape), where=pos)
    d = x.shape[-1]
    e *= beta * (np.arange(d) / (d - 1))
    e += 1.0
    return np.power(x, e, out=x.copy(), where=pos)


def boundary_penalty(x) -> np.ndarray:
    """Quadratic penalty of each row (last axis) outside the box [-5, 5]^D.

    Zero inside the box; a 1-D ``x`` is one row and gives a 0-d result.
    """
    excess = np.maximum(0.0, np.abs(x) - PENALTY_EDGE)
    return np.vecdot(excess, excess)
