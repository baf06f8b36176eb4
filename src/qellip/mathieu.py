"""Even angular Mathieu functions of period pi.

Solves y'' + (a - 2 q cos 2*eta) y = 0 for the even, pi-periodic branch

    ce_{2k}(eta, q) = sum_j A_{2j}^{(2k)}(q) cos(2 j eta),

whose Fourier coefficients obey the three-term recurrence

    a A_0             = q A_2
    (a - 4)  A_2      = q (A_4 + 2 A_0)
    (a - 4j^2) A_{2j} = q (A_{2j-2} + A_{2j+2})     j >= 2.

Scaling the j = 0 component by sqrt(2) makes the system a symmetric
tridiagonal eigenproblem with diagonal (2j)^2 and off-diagonal
(sqrt(2) q, q, q, ...), which standard solvers handle robustly; the
coefficients are un-scaled on output.  Normalization is McLachlan's
(integral of ce^2 over a full period equals pi), i.e.

    2 A_0^2 + sum_{j>=1} A_{2j}^2 = 1,

with the sign fixed by A_0 > 0.  Only q >= 0 is supported.  The odd
(elliptic-sine) pi-periodic branch is exposed for eigenvalue checks only.

The Fourier window follows the support, not the recurrence's turning
point 2 sqrt(q): for large q the coefficients of ce_{2k} tend to a
Hermite-Gauss profile of width ~q^(1/4) in j (DLMF 28.8), so J grows
like (6.5 + k/2) q^(1/4), and it doubles until the last coefficient
falls below TAIL_TOL.  At q = 1e8 that is J = 662 where 2 sqrt(q) would
give 20024.  Eigenvalues come from bisection to full relative accuracy
(Barlow & Demmel, SIAM J. Numer. Anal. 27, 762 (1990)), which keeps the
small-q eigenvalue a_0 ~ -q^2/2 to the last digits.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import (
    InconsistentSolutionError,
    InvalidParameterError,
    finite,
    integer,
)

_SQRT2 = np.sqrt(2.0)

#: below this, |A_{2(J-1)}| signals a sufficient truncation window
TAIL_TOL = 1e-12

#: Largest Fourier window J a solve may allocate (q up to about 1.6e17
#: at k = 0); the phase state of such a window fits
#: phase_space.MAX_PHASE_WINDOW.
MAX_TRUNCATION = 2 ** 17

#: absolute tolerance of the bisection: LAPACK's setting for eigenvalues
#: to high relative accuracy, down to the smallest |a|
EIG_ABSTOL = 2.0 * np.finfo(float).tiny


def auto_truncation(q: float, k: int = 0) -> int:
    """Default Fourier window J for ce_{2k}: ceil((6.5 + k/2) q^(1/4)) + 12 + 2k.

    The coefficients of ce_{2k} spread over ~q^(1/4) rows (DLMF 28.8),
    wider for higher k; the constant covers small q, where
    A_{2j} ~ q^j / (4^j j!^2) needs a dozen rows to reach TAIL_TOL.
    Raises InvalidParameterError as ``solve_even_mathieu`` does for q
    and k.
    """
    return _window(*_validated(q, k))


def _window(q: float, k: int) -> int:
    """``auto_truncation`` of a q and k already validated."""
    return math.ceil((6.5 + 0.5 * k) * q ** 0.25) + 12 + 2 * k


class MathieuSolution(NamedTuple):
    """One even pi-periodic eigenpair ce_{2k}(eta, q).

    Attributes
    ----------
    order_index : int
        k >= 0; the solution is ce_{2k}.
    q : float
        Mathieu parameter, dimensionless, >= 0.
    eigenvalue : float
        Characteristic value a_{2k}(q).
    coefficients : np.ndarray
        A_{2j}^{(2k)}(q) for j = 0..J-1, McLachlan-normalized, A_0-sign
        positive (largest-coefficient positive on the decoupled q = 0
        branch where A_0 vanishes).
    truncation_dim : int
        Window length J.
    """

    order_index: int
    q: float
    eigenvalue: float
    coefficients: np.ndarray
    truncation_dim: int

    def recurrence_residuals(self) -> np.ndarray:
        """Residual of each recurrence row; all should be ~ machine zero."""
        a, q, A = self.eigenvalue, self.q, self.coefficients
        j = np.arange(len(A) - 1)
        below = np.zeros(len(A) - 1)  # A_{2j-2}; row 1 couples to 2 A_0
        below[1:] = A[:-2]
        below[1:2] *= 2.0
        return (a - 4.0 * j * j) * A[:-1] - q * (below + A[1:])


def _validated(q: float, k: int) -> tuple[float, int]:
    """q as a finite float >= 0 and k as a whole number >= 0, else
    InvalidParameterError."""
    q = finite("Mathieu parameter q", float(q))
    if q < 0.0:
        raise InvalidParameterError(f"Mathieu parameter q must be >= 0, got {q}")
    k = integer("order index k", k)
    if k < 0:
        raise InvalidParameterError(f"order index k must be >= 0, got {k}")
    return abs(q), k  # -0.0 -> 0.0


@functools.cache
def _lapack():
    """scipy's LAPACK module, loaded by itself at the first eigensolve.

    ``scipy.linalg.lapack`` re-exports the functions of the f2py
    extension ``scipy.linalg._flapack``, but importing it runs the
    ``scipy.linalg`` package first: some 330 modules, 27 MB resident
    with scipy 1.17, that the two routines used here never touch.  So the
    extension is loaded from scipy's ``linalg`` directory directly, which
    ``find_spec`` locates without running the ``scipy`` package either
    (8 to 14 ms and 1.5 MB per process).  Where the file is not there, or
    does not load (Windows wheels set the search path of their DLLs in
    ``scipy/__init__``), the public module serves.
    """
    package = importlib.util.find_spec("scipy")
    if package is not None and package.submodule_search_locations:
        finder = importlib.machinery.FileFinder(
            os.path.join(package.submodule_search_locations[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.linalg._flapack")
        if spec is not None:
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
            except ImportError:
                pass
    from scipy.linalg import lapack
    return lapack


def _solve(q: float, k: int, J: int, odd: bool) -> tuple[float, np.ndarray]:
    """The k-th eigenpair (a, v) of one branch's J x J symmetric
    tridiagonal recurrence matrix.

    The even branch has diagonal (2j)^2, j = 0..J-1, and off-diagonal
    (sqrt(2) q, q, q, ...); the odd branch diagonal (2j)^2, j = 1..J,
    and off-diagonal q.  At q = 0, or for J = 1, the matrix is diagonal
    and sorted, so the pair is exact: (2j)^2 at j = k and a unit vector.
    Otherwise LAPACK's bisection (dstebz) finds the eigenvalue and
    inverse iteration (dstein) its vector, the two routines that
    scipy's ``eigh_tridiagonal(select='i')`` wraps, without its
    argument checks; they come from ``_lapack()``, so scipy loads at the
    first call, not at import.  A window over MAX_TRUNCATION raises
    InvalidParameterError before anything is allocated.
    """
    if J > MAX_TRUNCATION:
        raise InvalidParameterError(
            f"Fourier window J={J} at q={q}, k={k} is over the budget of {MAX_TRUNCATION}")
    diag = (2.0 * np.arange(int(odd), J + int(odd))) ** 2
    if q == 0.0 or J == 1:
        vec = np.zeros(J)
        vec[k] = 1.0
        return float(diag[k]), vec
    offdiag = np.full(J - 1, q)
    if not odd:
        offdiag[0] = _SQRT2 * q
    lapack = _lapack()
    _, w, iblock, isplit, info = lapack.dstebz(diag, offdiag, 2, 0.0, 0.0, k + 1, k + 1,
                                               EIG_ABSTOL, "B")
    if info == 0:
        vecs, info = lapack.dstein(diag, offdiag, w[:1], iblock, isplit)
    if info != 0:
        raise InconsistentSolutionError(
            f"tridiagonal eigensolve failed (LAPACK info {info}) at q={q}, k={k}, J={J}")
    return float(w[0]), vecs[:, 0]


def _eigenpair(q: float, k: int, odd: bool) -> tuple[float, int, float, np.ndarray, int]:
    """Validated (q, J), the k-th eigenpair (a, v) of one branch, and k as an int.

    J starts at ``auto_truncation(q, k)`` and doubles while the last
    component is not below TAIL_TOL; once J passes the recurrence's
    turning point near 2 sqrt(q) the tail decays faster than
    geometrically, so the doubling ends.

    Raises InvalidParameterError for q non-finite or negative, k not
    whole, k < 0 or J > MAX_TRUNCATION.
    """
    q, k = _validated(q, k)
    J = _window(q, k)
    a, vec = _solve(q, k, J, odd)
    while abs(vec[-1]) >= TAIL_TOL:
        J *= 2
        a, vec = _solve(q, k, J, odd)
    return q, J, a, vec, k


def solve_even_mathieu(q: float, k: int = 0) -> MathieuSolution:
    """Compute the k-th even pi-periodic Mathieu eigenpair ce_{2k}(eta, q).

    The Fourier window J is ``auto_truncation(q, k)``, doubled until the
    coefficient tail decays below TAIL_TOL.

    Parameters
    ----------
    q : float
        Mathieu parameter, >= 0.
    k : int
        Order index; the eigenvalue is a_{2k}(q), eigenvalues sorted
        ascending.

    Returns
    -------
    MathieuSolution

    Raises
    ------
    InvalidParameterError
        q non-finite or negative, k not a whole number, k negative, or J
        over MAX_TRUNCATION (q above about 1.6e17).
    """
    q, J, a, vec, k = _eigenpair(q, k, odd=False)
    coeffs = vec.copy()
    coeffs[0] /= _SQRT2  # undo the symmetrizing scale; norm is now McLachlan
    if coeffs[0] < 0.0:
        coeffs = -coeffs
    return MathieuSolution(k, q, a, coeffs, J)


def se_even_eigenvalue(q: float, k: int = 0) -> float:
    """Eigenvalue b_{2k+2}(q) of the odd pi-periodic branch se_{2k+2}.

    The odd-branch recurrence (a - 4j^2) B_{2j} = q (B_{2j-2} + B_{2j+2}),
    j >= 1 with B_0 absent, is symmetric tridiagonal as is.  Only the
    eigenvalue is exposed; the variance pipeline covers the even branch.
    Validation and errors are those of ``solve_even_mathieu``.
    """
    return _eigenpair(q, k, odd=True)[2]


def eval_ce(sol: MathieuSolution, eta) -> np.ndarray | float:
    """Evaluate ce_{2k}(eta, q) = sum_j A_{2j} cos(2 j eta).

    Even in eta and pi-periodic.  Accepts scalars or arrays.
    """
    eta_arr = np.asarray(eta, dtype=float)
    j = np.arange(sol.truncation_dim)
    vals = np.cos(2.0 * np.multiply.outer(eta_arr, j)) @ sol.coefficients
    return float(vals) if np.isscalar(eta) or eta_arr.ndim == 0 else vals


def theta_series(sol: MathieuSolution) -> float:
    """Nearest-neighbour coefficient series

        Theta = A_0 A_2 + sum_{j>=0} A_{2j} A_{2j+2}
              = 2 A_0 A_2 + sum_{j>=1} A_{2j} A_{2j+2},

    which equals the circular first moment <e^{i phi}> of the induced
    relative-phase state (negative for q > 0: the density peaks at
    phi = pi).
    """
    A = sol.coefficients
    return float(A[0] * A[1] + A[:-1] @ A[1:])


def mathieu_variances(sol: MathieuSolution) -> tuple[float, float]:
    """Closed-form moments of the phase state built on ce_{2k}.

    Returns
    -------
    (delta_l2, delta_e2) : tuple of float
        Photon-difference variance (eigenvalue - 2 q Theta)/4 and
        circular variance 1 - Theta^2.

    Raises
    ------
    InconsistentSolutionError
        If the variance formula goes negative beyond rounding, which
        signals a truncation failure upstream.
    """
    theta = theta_series(sol)
    delta_l2 = 0.25 * (sol.eigenvalue - 2.0 * sol.q * theta)
    delta_e2 = 1.0 - theta * theta
    if delta_l2 < -1e-9:
        raise InconsistentSolutionError(
            f"negative photon-difference variance {delta_l2:.3e}; "
            "truncation too small for this q"
        )
    return max(delta_l2, 0.0), delta_e2
