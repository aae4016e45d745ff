"""Seeded randomness and the search-space transformation toolbox.

All operations here are pure functions of their arguments: the random
streams are counter-based, so regenerating any instance yields bit-identical
results on every platform.
"""

from __future__ import annotations

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
_MUL1 = _U64(MIX_MULTIPLIER_1)
_MUL2 = _U64(MIX_MULTIPLIER_2)


def _mix64(z: int) -> int:
    """Scalar 64-bit finalizer (same mixing as the vectorized stream)."""
    z &= MASK64
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
    z = _U64(seed & MASK64) + idx * _GAMMA  # wraps mod 2^64
    z = (z ^ (z >> _U64(30))) * _MUL1
    z = (z ^ (z >> _U64(27))) * _MUL2
    z = z ^ (z >> _U64(31))
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
    Gram-Schmidt.  On a degenerate draw (pivot norm below 1e-12) the whole
    construction restarts with seed+1, preserving determinism.
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
    """Orthonormalize the rows of ``a`` in place; False on a tiny pivot."""
    for i in range(a.shape[0]):
        for j in range(i):
            a[i] -= (a[i] @ a[j]) * a[j]
        norm = np.linalg.norm(a[i])
        if norm < 1e-12:
            return False
        a[i] /= norm
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


def t_osz(v) -> np.ndarray | float:
    """Oscillation nonlinearity: elementwise, sign-preserving, monotone.

    For x != 0, with xh = log|x|:
        sign(x) * exp(xh + 0.049 (sin(c1 xh) + sin(c2 xh)))
    with (c1, c2) = (10, 7.9) for x > 0 and (5.5, 3.1) for x < 0; 0 maps
    to 0.  Scalar input returns a float.
    """
    x = np.asarray(v, dtype=float)
    xh = np.log(np.abs(x), out=np.zeros_like(x), where=x != 0.0)
    pos = x > 0
    c1 = np.where(pos, OSC_COEFFS_POSITIVE[0], OSC_COEFFS_NEGATIVE[0])
    c2 = np.where(pos, OSC_COEFFS_POSITIVE[1], OSC_COEFFS_NEGATIVE[1])
    out = np.sign(x) * np.exp(
        xh + OSC_AMPLITUDE * (np.sin(c1 * xh) + np.sin(c2 * xh))
    )
    return float(out) if x.ndim == 0 else out


def t_asy(v, beta: float) -> np.ndarray:
    """Asymmetry operator.

    Positive coordinates are raised to 1 + beta * ((i-1)/(D-1)) * sqrt(x_i);
    non-positive coordinates pass through unchanged.  Needs D >= 2.
    """
    if beta < 0:
        raise ValueError(f"asymmetry parameter must be >= 0, got {beta}")
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError(f"need a vector of >= 2 coordinates, got shape {x.shape}")
    frac = np.arange(len(x)) / (len(x) - 1)
    out = x.copy()
    pos = x > 0
    out[pos] = x[pos] ** (1.0 + beta * frac[pos] * np.sqrt(x[pos]))
    return out


def boundary_penalty(x) -> float:
    """Quadratic penalty outside the box [-5, 5]^D; zero inside it."""
    x = np.asarray(x, dtype=float)
    excess = np.maximum(0.0, np.abs(x) - PENALTY_EDGE)
    return float(excess @ excess)
