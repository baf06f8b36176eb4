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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentSolutionError,
    InvalidParameterError,
    TruncationError,
)

_SQRT2 = np.sqrt(2.0)

#: below this, |A_{2(J-1)}| signals a sufficient truncation window
TAIL_TOL = 1e-12


def auto_truncation(q: float) -> int:
    """Default Fourier window: grows like 2*sqrt(q) plus a safety margin."""
    return max(32, int(np.ceil(2.0 * np.sqrt(max(q, 0.0)))) + 24)


@dataclass(frozen=True)
class MathieuSolution:
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
        J = self.truncation_dim
        res = np.empty(J - 1)
        res[0] = a * A[0] - q * A[1]
        if J > 2:
            res[1] = (a - 4.0) * A[1] - q * (A[2] + 2.0 * A[0])
        for j in range(2, J - 1):
            res[j] = (a - 4.0 * j * j) * A[j] - q * (A[j - 1] + A[j + 1])
        return res


def _validate_q(q: float) -> float:
    q = float(q)
    if not np.isfinite(q):
        raise InvalidParameterError(f"Mathieu parameter q must be finite, got {q}")
    if q < 0.0:
        raise InvalidParameterError(f"Mathieu parameter q must be >= 0, got {q}")
    return q


def _eigenpair(q: float, k: int, truncation: int | None,
               odd: bool) -> tuple[float, int, float, np.ndarray]:
    """Validated (q, J) and the k-th eigenpair (a, v) of one branch's
    J x J symmetric tridiagonal recurrence matrix.

    The even branch has diagonal (2j)^2, j = 0..J-1, and off-diagonal
    (sqrt(2) q, q, q, ...); the odd branch diagonal (2j)^2, j = 1..J,
    and off-diagonal q.  At q = 0 the matrix is diagonal and sorted, so
    the pair is exact: (2j)^2 at j = k and a unit vector.  scipy loads
    at the first eigensolve, not at import.

    Raises InvalidParameterError for q non-finite or negative, k negative
    or J < 1, and TruncationError for k >= J.
    """
    q = _validate_q(q)
    k = int(k)
    if k < 0:
        raise InvalidParameterError(f"order index k must be >= 0, got {k}")
    J = auto_truncation(q) if truncation is None else int(truncation)
    if J < 1:
        raise InvalidParameterError(f"truncation must be positive, got {J}")
    if k >= J:
        raise TruncationError(f"order k={k} requires truncation J > k, got J={J}")

    diag = (2.0 * np.arange(int(odd), J + int(odd))) ** 2
    if q == 0.0:
        vec = np.zeros(J)
        vec[k] = 1.0
        return 0.0, J, float(diag[k]), vec
    offdiag = np.full(J - 1, q)
    if not odd:
        offdiag[0] = _SQRT2 * q
    from scipy.linalg import eigh_tridiagonal
    vals, vecs = eigh_tridiagonal(diag, offdiag, select="i", select_range=(k, k))
    return q, J, float(vals[0]), vecs[:, 0]


def solve_even_mathieu(q: float, k: int = 0, truncation: int | None = None) -> MathieuSolution:
    """Compute the k-th even pi-periodic Mathieu eigenpair ce_{2k}(eta, q).

    Parameters
    ----------
    q : float
        Mathieu parameter, >= 0.
    k : int
        Order index; the eigenvalue is a_{2k}(q), eigenvalues sorted
        ascending.
    truncation : int, optional
        Fourier window length J.  Defaults to ``auto_truncation(q)``.

    Returns
    -------
    MathieuSolution

    Raises
    ------
    InvalidParameterError
        q non-finite or negative, k negative, or J < 1.
    TruncationError
        k >= J, or the coefficient tail does not decay below TAIL_TOL
        within the window.
    """
    q, J, a, vec = _eigenpair(q, k, truncation, odd=False)
    coeffs = vec.copy()
    coeffs[0] /= _SQRT2  # undo the symmetrizing scale; norm is now McLachlan
    if coeffs[0] < 0.0:
        coeffs = -coeffs

    if abs(coeffs[-1]) >= TAIL_TOL:
        raise TruncationError(
            f"coefficient tail |A_(2(J-1))| = {abs(coeffs[-1]):.3e} at J={J}; "
            "increase truncation"
        )
    return MathieuSolution(int(k), q, a, coeffs, J)


def se_even_eigenvalue(q: float, k: int = 0, truncation: int | None = None) -> float:
    """Eigenvalue b_{2k+2}(q) of the odd pi-periodic branch se_{2k+2}.

    The odd-branch recurrence (a - 4j^2) B_{2j} = q (B_{2j-2} + B_{2j+2}),
    j >= 1 with B_0 absent, is symmetric tridiagonal as is.  Only the
    eigenvalue is exposed; the variance pipeline covers the even branch.
    Validation and errors are those of ``solve_even_mathieu``.
    """
    return _eigenpair(q, k, truncation, odd=True)[2]


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
