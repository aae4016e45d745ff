"""Shared numeric constants.

Every magic number used by the generator lives here so the whole
construction can be audited from a single place.  It regenerates
bit-identically on hosts with the same numpy SIMD loops, libm and BLAS
kernels.
"""

# ---------------------------------------------------------------------------
# Pseudo-random generator (counter-based splitmix-style 64-bit mixer).
# The generator is output(i) = mix64(seed + i * STREAM_GAMMA); it is chosen
# for cross-platform bit-exactness, not for compatibility with any other
# benchmark implementation.
# ---------------------------------------------------------------------------
MASK64 = (1 << 64) - 1

#: Weyl-sequence increment (odd, 2^64 / golden ratio).
STREAM_GAMMA = 0x9E3779B97F4A7C15

#: First and second finalizer multipliers of the 64-bit mixer.
MIX_MULTIPLIER_1 = 0xBF58476D1CE4E5B9
MIX_MULTIPLIER_2 = 0x94D049BB133111EB

#: Initial state for seed derivation hashing (first 64 bits of pi).
SEED_HASH_INIT = 0x243F6A8885A308D3

# ---------------------------------------------------------------------------
# Oscillation nonlinearity: a sign-preserving map, monotone up to rounding
# (a few ulps),
#   x -> sign(x) * exp(log|x| + A * (sin(c1 log|x|) + sin(c2 log|x|)))
# with coefficients depending on the sign of x.
# ---------------------------------------------------------------------------
OSC_AMPLITUDE = 0.049
OSC_COEFFS_POSITIVE = (10.0, 7.9)
OSC_COEFFS_NEGATIVE = (5.5, 3.1)

# ---------------------------------------------------------------------------
# Search-space geometry.
# ---------------------------------------------------------------------------
#: Half-width of the unpenalized box; the boundary penalty is
#: sum(max(0, |x_i| - PENALTY_EDGE)^2).
PENALTY_EDGE = 5.0

#: Optima are placed in [-XOPT_RANGE, XOPT_RANGE]^D so that the radius-1
#: neighborhood of an optimum stays inside the unpenalized box.
XOPT_RANGE = 4.0

#: The Rosenbrock optimum is drawn from a narrower box.
ROSENBROCK_XOPT_RANGE = 3.0

#: Non-global Gaussian-peak centers may use a slightly wider box.
PEAK_RANGE = 4.9

# ---------------------------------------------------------------------------
# Schwefel-type function.
# ---------------------------------------------------------------------------
#: Per-coordinate optimum magnitude: the optimum sits at +-SCHWEFEL_XOPT.
SCHWEFEL_XOPT = 4.2096874633 / 2.0

#: max of x*sin(sqrt(x)) / 100 at x = 100 * 2 * SCHWEFEL_XOPT.
SCHWEFEL_OFFSET = 4.189828872724339

#: Odd multiplier of the sign schedule: the optimum sign pattern of
#: instance K is the low bits of K * SCHWEFEL_SIGN_MULTIPLIER.  Since the
#: multiplier is odd, patterns of two instance ids differ whenever the ids
#: differ modulo 2^D, which keeps paired instances apart in low dimension.
SCHWEFEL_SIGN_MULTIPLIER = 0x9E3779B97F4A7C15

# ---------------------------------------------------------------------------
# Gaussian-peaks function.
# ---------------------------------------------------------------------------
N_PEAKS = 101
GLOBAL_PEAK_HEIGHT = 10.0
PEAK_HEIGHT_MIN = 1.1
PEAK_HEIGHT_MAX = 9.1
#: Condition ratios: non-global peaks use a permutation of the geometric
#: schedule PEAK_CONDITION_MAX**(j/99), j = 0..99; the global peak uses
#: sqrt(PEAK_CONDITION_MAX) (~31.6).
PEAK_CONDITION_MAX = 1000.0

# ---------------------------------------------------------------------------
# Optimal-value draw: f_opt = clip(round(100 * tan(pi*(u - 1/2))) / 100, ...)
# (a heavy-tailed Cauchy transform of one uniform draw, rounded to two
# decimals).
# ---------------------------------------------------------------------------
F_OPT_CLIP = 1000.0

# ---------------------------------------------------------------------------
# Batch sizing.
# ---------------------------------------------------------------------------
#: Bytes below glibc malloc's mmap threshold: a larger buffer is mapped and
#: unmapped on every call, at a page fault per 4 KiB page.  Random search
#: draws blocks of as many rows as keep one (rows, D) float64 array under
#: it, and Gallagher's function evaluates in row slices that keep its
#: (rows, D, 101) temporaries under it.
UNMAPPED_BYTES = 128 * 1024 - 1
