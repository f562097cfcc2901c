"""Counted linear algebra — the framework's Eigen substitute.

Every routine computes the *real* result with NumPy and simultaneously
records, on the supplied :class:`~repro.mcu.ops.OpCounter`, the operations a
compiled dense implementation would execute (textbook operation counts plus
the loads/stores and loop bookkeeping around them).  The counts are
*dynamic*: data-dependent iteration counts (RANSAC trials, ADMM sweeps,
root-polishing passes) flow straight into the recorded trace, which is how
the framework reproduces Case Study 3's finding that static FLOP tallies
underpredict measured cost.

Routines deliberately model a *generic* dense library: sparse structure is
not exploited (the paper notes Eigen's sparse path was slower on MCUs due
to control-flow and allocation overhead, so the C++ kernels use dense math
everywhere too).
"""

from __future__ import annotations

import numpy as np

from repro.mcu.ops import OpCounter


def _dense_work(c: OpCounter, fma: int, extra_add: int = 0, extra_mul: int = 0,
                div: int = 0, sqrt: int = 0) -> None:
    """Record a block of dense float work with proportional memory traffic.

    The memory/integer factors model -O2 compiled inner loops with operands
    partly held in registers (roughly one load and one index update per
    flop, a store every fourth flop).
    """
    c.trace.ffma += fma
    c.trace.fadd += extra_add
    c.trace.fmul += extra_mul
    c.trace.fdiv += div
    c.trace.fsqrt += sqrt
    n = fma + extra_add + extra_mul + div + sqrt
    c.trace.load += int(1.1 * n)
    c.trace.store += max(n // 4, 1)
    c.trace.ialu += int(0.8 * n)
    c.trace.icmp += max(n // 6, 1)
    c.trace.br_taken += max(n // 10, 1)
    c.trace.br_not += max(n // 24, 1)


def matmul(c: OpCounter, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product."""
    a = np.atleast_2d(a)
    b2 = np.atleast_2d(b) if b.ndim == 1 else b
    m, k = a.shape
    n = b2.shape[1] if b.ndim > 1 else 1
    _dense_work(c, fma=m * k * n)
    return a @ b


def matvec(c: OpCounter, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dense matrix-vector product."""
    m, n = np.atleast_2d(a).shape
    _dense_work(c, fma=m * n)
    return a @ x


def dot(c: OpCounter, x: np.ndarray, y: np.ndarray) -> float:
    n = int(np.asarray(x).size)
    c.vec_dot(n)
    return float(np.dot(np.ravel(x), np.ravel(y)))


def norm(c: OpCounter, x: np.ndarray) -> float:
    n = int(np.asarray(x).size)
    c.vec_norm(n)
    return float(np.linalg.norm(x))


def cross3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Uncounted cross product of two float64 3-vectors.

    Byte-identical to ``np.cross(x, y)`` on float64 ``(3,)`` inputs, the
    only inputs its callers pass (elementwise IEEE products and
    differences, as NumPy computes them), at a fraction of the cost of
    ``np.cross``'s axis handling.
    """
    x0, x1, x2 = x.tolist()
    y0, y1, y2 = y.tolist()
    return np.array([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0])


def cross(c: OpCounter, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c.vec_cross()
    return cross3(x, y)


def add(c: OpCounter, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c.vec_add(int(np.asarray(x).size))
    return x + y


def sub(c: OpCounter, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c.vec_add(int(np.asarray(x).size))
    return x - y


def scale(c: OpCounter, alpha: float, x: np.ndarray) -> np.ndarray:
    c.vec_scale(int(np.asarray(x).size))
    return alpha * x


def outer(c: OpCounter, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m, n = np.asarray(x).size, np.asarray(y).size
    _dense_work(c, fma=0, extra_mul=m * n)
    return np.outer(x, y)


def transpose(c: OpCounter, a: np.ndarray) -> np.ndarray:
    m, n = np.atleast_2d(a).shape
    c.mat_transpose(m, n)
    return a.T.copy()


def lu_solve(c: OpCounter, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a (n x n) system via LU with partial pivoting."""
    n = a.shape[0]
    rhs = 1 if b.ndim == 1 else b.shape[1]
    # LU: ~2/3 n^3 fma; triangular solves: n^2 per RHS; pivot search: n^2/2.
    _dense_work(c, fma=(2 * n ** 3) // 3 + rhs * n * n, div=n * rhs + n)
    c.trace.icmp += n * n // 2
    c.trace.br_taken += n * n // 4
    return np.linalg.solve(a, b)


def cholesky(c: OpCounter, a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of an SPD matrix."""
    n = a.shape[0]
    _dense_work(c, fma=n ** 3 // 3, div=n * (n - 1) // 2, sqrt=n)
    return np.linalg.cholesky(a)


def cholesky_solve(c: OpCounter, l_factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve using a precomputed Cholesky factor (two triangular solves)."""
    n = l_factor.shape[0]
    rhs = 1 if b.ndim == 1 else b.shape[1]
    _dense_work(c, fma=2 * n * n * rhs, div=2 * n * rhs)
    y = np.linalg.solve(l_factor, b)
    return np.linalg.solve(l_factor.T, y)


def inverse(c: OpCounter, a: np.ndarray) -> np.ndarray:
    """Dense matrix inverse (LU + n triangular solve pairs)."""
    n = a.shape[0]
    if n <= 3:
        # Small fixed-size inverses are unrolled closed forms in Eigen.
        _dense_work(c, fma=n * n * n, extra_add=n * n, div=n * n)
        return np.linalg.inv(a)
    _dense_work(c, fma=2 * n ** 3, div=2 * n)
    return np.linalg.inv(a)


def qr(c: OpCounter, a: np.ndarray) -> tuple:
    """Householder QR factorization."""
    m, n = a.shape
    _dense_work(c, fma=2 * m * n * n - (2 * n ** 3) // 3, sqrt=n, div=n)
    q_mat, r_mat = np.linalg.qr(a)
    return q_mat, r_mat


def svd(c: OpCounter, a: np.ndarray, full_matrices: bool = False) -> tuple:
    """Golub–Kahan SVD — the dominant cost of the linear pose solvers."""
    m, n = a.shape
    small, big = (n, m) if m >= n else (m, n)
    # Bidiagonalization + implicit QR sweeps + accumulation of U and V.
    fma = 4 * big * small * small + 9 * small ** 3
    _dense_work(c, fma=int(fma), div=14 * small * small, sqrt=4 * small * small)
    return np.linalg.svd(a, full_matrices=full_matrices)


def eig_sym(c: OpCounter, a: np.ndarray) -> tuple:
    """Symmetric eigendecomposition (tridiagonalization + QL sweeps)."""
    n = a.shape[0]
    _dense_work(c, fma=9 * n ** 3, div=6 * n * n, sqrt=3 * n * n)
    return np.linalg.eigh(a)


def eig_general(c: OpCounter, a: np.ndarray) -> tuple:
    """General (non-symmetric) eigendecomposition via Hessenberg QR.

    The action-matrix step of Gröbner-basis minimal solvers (the 5-point
    algorithm) lands here — a large part of why that solver is "strenuous"
    on MCUs (Case Study 4).
    """
    n = a.shape[0]
    _dense_work(c, fma=18 * n ** 3, div=8 * n * n, sqrt=3 * n * n)
    return np.linalg.eig(a)


def gauss_jordan(c: OpCounter, a: np.ndarray) -> np.ndarray:
    """Reduced row echelon form of an (m x n) system, m <= n."""
    m, n = a.shape
    _dense_work(c, fma=m * m * n, div=m * n)
    c.trace.icmp += m * m
    c.trace.br_taken += m * m // 2
    out = a.astype(np.float64).copy()
    for col in range(m):
        pivot = np.argmax(np.abs(out[col:, col])) + col
        if abs(out[pivot, col]) < 1e-14:
            raise np.linalg.LinAlgError("singular system in gauss_jordan")
        out[[col, pivot]] = out[[pivot, col]]
        out[col] = out[col] / out[col, col]
        for row in range(m):
            if row != col:
                out[row] = out[row] - out[row, col] * out[col]
    return out


def nullspace_vector(c: OpCounter, a: np.ndarray) -> np.ndarray:
    """Unit vector spanning the (numerical) nullspace of ``a`` via SVD."""
    _, _, vt = svd(c, a, full_matrices=True)
    return vt[-1]


def poly_roots(c: OpCounter, coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial via the companion-matrix eigenproblem.

    This is how the 5-point solver's degree-10 polynomial is solved, and a
    major reason it is so expensive on MCUs (the paper's Case Study 4).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    deg = len(coeffs) - 1
    if deg <= 0:
        return np.array([])
    if deg <= 8:
        return small_poly_roots(c, coeffs)
    # Companion-matrix Hessenberg QR: ~10 n^3 with eigenvector-free sweeps.
    _dense_work(c, fma=10 * deg ** 3, div=8 * deg * deg, sqrt=2 * deg * deg)
    return np.roots(coeffs)


def small_poly_roots(c: OpCounter, coeffs: np.ndarray) -> np.ndarray:
    """Roots of a low-degree polynomial via simultaneous (Aberth-style)
    iteration — the compact routine embedded minimal solvers ship instead
    of a full companion eigensolver."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    deg = len(coeffs) - 1
    if deg <= 0:
        return np.array([])
    iters = 8  # bracketed Newton with deflation converges fast at low degree
    per_iter = deg * (2 * deg + 6)  # poly + derivative eval per live root
    _dense_work(c, fma=iters * per_iter, div=iters * deg)
    return np.roots(coeffs)


def quadratic_roots(c: OpCounter, a: float, b: float, q_c: float) -> np.ndarray:
    """Real roots of a quadratic (closed form)."""
    _dense_work(c, fma=4, div=2, sqrt=1)
    disc = b * b - 4 * a * q_c
    if disc < 0:
        return np.array([])
    s = np.sqrt(disc)
    return np.array([(-b + s) / (2 * a), (-b - s) / (2 * a)])


def quartic_roots(c: OpCounter, coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a quartic (Ferrari resolvent; used by P3P)."""
    c.flop_mix(add=30, mul=45, div=8, sqrt=4, func=4)
    roots = np.roots(coeffs)
    return np.real(roots[np.abs(np.imag(roots)) < 1e-9])


def gauss_newton_step(c: OpCounter, jac: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """One Gauss–Newton step: solve (J^T J) dx = -J^T r."""
    jtj = matmul(c, jac.T, jac)
    jtr = matvec(c, jac.T, residual)
    return lu_solve(c, jtj, -jtr)
