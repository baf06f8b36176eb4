"""Even pi-periodic Mathieu solver: eigenvalues, coefficients, variances."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qellip import (
    InconsistentSolutionError,
    InvalidParameterError,
    eval_ce,
    mathieu_variances,
    se_even_eigenvalue,
    solve_even_mathieu,
    theta_series,
)
from qellip import mathieu
from qellip.mathieu import auto_truncation

from oracles import mathieu_eigenvalue_cf, mathieu_ode_value

Q_GRID = [0.01, 0.1, 1.0, 10.0, 100.0]


def even_on_window(q: float, k: int, J: int) -> tuple[float, np.ndarray]:
    """a_{2k} and the coefficients of ce_{2k} on the set window J, scaled
    and signed as ``solve_even_mathieu`` gives them: the reference of the
    window comparisons."""
    a, coeffs = mathieu._solve(q, k, J, odd=False)
    coeffs[0] /= np.sqrt(2.0)
    return a, coeffs if coeffs[0] >= 0.0 else -coeffs


def odd_on_window(q: float, k: int, J: int) -> float:
    """b_{2k+2} on the set window J."""
    return mathieu._solve(q, k, J, odd=True)[0]


class TestEigenpairs:
    def test_q_zero_fundamental(self):
        sol = solve_even_mathieu(0.0, 0)
        assert sol.eigenvalue == 0.0
        assert sol.coefficients[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
        assert np.all(sol.coefficients[1:] == 0.0)

    def test_q_zero_first_excited(self):
        sol = solve_even_mathieu(0.0, 1)
        assert sol.eigenvalue == 4.0
        assert sol.coefficients[1] == 1.0
        assert sol.coefficients[0] == 0.0

    def test_q1_eigenvalue_against_high_truncation(self):
        # high-truncation eigensolve as the first oracle route
        a_ref = even_on_window(1.0, 0, 64)[0]
        assert solve_even_mathieu(1.0, 0).eigenvalue == pytest.approx(a_ref, abs=1e-12)
        assert a_ref == pytest.approx(-0.4551386, abs=5e-8)

    def test_q1_eigenvalue_against_continued_fraction(self):
        a_cf = mathieu_eigenvalue_cf(1.0, (-1.0, 0.0))
        assert abs(solve_even_mathieu(1.0, 0).eigenvalue - a_cf) < 1e-10

    @pytest.mark.parametrize("q", [0.5, 2.5, 10.0])
    def test_continued_fraction_cross_check(self, q):
        a = solve_even_mathieu(q, 0).eigenvalue
        a_cf = mathieu_eigenvalue_cf(q, (a - 0.3, a + 0.3))
        assert abs(a - a_cf) < 1e-10

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_invariants(self, q, k):
        sol = solve_even_mathieu(q, k)
        A = sol.coefficients
        norm = 2.0 * A[0] ** 2 + np.sum(A[1:] ** 2)
        assert abs(norm - 1.0) < 1e-12
        assert np.abs(sol.recurrence_residuals()).max() < 1e-10
        assert abs(A[-1]) < 1e-12
        assert A[0] > 0.0

    @pytest.mark.parametrize("q", Q_GRID)
    def test_truncation_convergence_on_doubling(self, q):
        J = auto_truncation(q)
        for k in range(4):
            a1 = even_on_window(q, k, J)[0]
            a2 = even_on_window(q, k, 2 * J)[0]
            assert abs(a1 - a2) < 1e-10

    def test_eigenvalue_ordering(self):
        vals = [solve_even_mathieu(5.0, k).eigenvalue for k in range(5)]
        assert vals == sorted(vals)


class TestErrors:
    @pytest.mark.parametrize("q", [np.nan, np.inf, -1.0])
    def test_bad_q(self, q):
        with pytest.raises(InvalidParameterError):
            solve_even_mathieu(q, 0)
        with pytest.raises(InvalidParameterError, match="^Mathieu parameter q must be"):
            auto_truncation(q)

    def test_negative_order(self):
        with pytest.raises(InvalidParameterError):
            solve_even_mathieu(1.0, -1)
        with pytest.raises(InvalidParameterError, match="^order index k must be >= 0"):
            auto_truncation(1.0, -1)

    @pytest.mark.parametrize("call", [
        lambda: solve_even_mathieu(1.0, 1.5),
        lambda: se_even_eigenvalue(1.0, 1.5),
        lambda: auto_truncation(1.0, 1.5),
    ], ids=["even-order", "odd-order", "window-order"])
    def test_fractional_order_or_window(self, call):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call()

    def test_whole_float_order_is_an_int(self):
        sol = solve_even_mathieu(1.0, 2.0)
        assert sol.order_index == 2 and type(sol.order_index) is int
        assert sol.eigenvalue == solve_even_mathieu(1.0, 2).eigenvalue

    def test_one_row_window(self):
        # a 1 x 1 recurrence is diagonal: the even branch's lone A_0 is its
        # own tail, the odd branch's eigenvalue is exact
        a, vec = mathieu._solve(1.0, 0, 1, odd=False)
        assert a == 0.0 and vec.tolist() == [1.0] and abs(vec[-1]) >= mathieu.TAIL_TOL
        assert odd_on_window(1.0, 0, 1) == 4.0


class TestEvaluation:
    def test_q_zero_is_constant(self):
        sol = solve_even_mathieu(0.0, 0)
        for eta in (0.0, 0.3, np.pi / 2, 2.0):
            assert eval_ce(sol, eta) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_pi_periodic_and_even(self):
        sol = solve_even_mathieu(1.0, 0)
        eta = np.linspace(0.0, np.pi, 17)
        assert np.allclose(eval_ce(sol, eta), eval_ce(sol, eta + np.pi), atol=1e-12)
        assert np.allclose(eval_ce(sol, eta), eval_ce(sol, -eta), atol=1e-12)

    def test_against_ode_shooting(self):
        sol = solve_even_mathieu(1.0, 0)
        y0 = eval_ce(sol, 0.0)
        shot = mathieu_ode_value(sol.eigenvalue, 1.0, np.pi / 2.0, y0)
        assert eval_ce(sol, np.pi / 2.0) == pytest.approx(shot, abs=1e-9)

    def test_vectorized(self):
        sol = solve_even_mathieu(2.0, 1)
        eta = np.array([0.1, 0.7, 1.9])
        vals = eval_ce(sol, eta)
        assert vals.shape == (3,)
        assert vals[1] == pytest.approx(eval_ce(sol, 0.7))


class TestThetaSeries:
    def test_q_zero(self):
        assert theta_series(solve_even_mathieu(0.0, 0)) == 0.0

    def test_small_q_perturbative(self):
        # first-order perturbation: A_2 ~ -q/(2 sqrt 2), Theta ~ -q/2 + O(q^3)
        q = 1e-3
        sol = solve_even_mathieu(q, 0)
        assert sol.coefficients[1] == pytest.approx(-q / (2.0 * np.sqrt(2.0)),
                                                    rel=1e-5)
        assert theta_series(sol) == pytest.approx(-q / 2.0, abs=5.0 * q ** 3)

    def test_large_q_gaussian_limit(self):
        # <e^{i phi}> ~ exp(-sigma^2/2) with sigma^2 = 1/sqrt(q)
        q = 100.0
        assert abs(theta_series(solve_even_mathieu(q, 0))) == pytest.approx(
            1.0 - 1.0 / (2.0 * np.sqrt(q)), rel=0.02)


class TestVariances:
    def test_q_zero_limit(self):
        dl2, de2 = mathieu_variances(solve_even_mathieu(0.0, 0))
        assert dl2 == 0.0
        assert de2 == 1.0

    def test_small_q_perturbative(self):
        dl2, _ = mathieu_variances(solve_even_mathieu(1e-3, 0))
        assert dl2 == pytest.approx(1.25e-7, rel=1e-3)

    def test_large_q_von_mises_limit(self):
        dl2, _ = mathieu_variances(solve_even_mathieu(100.0, 0))
        assert dl2 == pytest.approx(np.sqrt(100.0) / 4.0, rel=0.05)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_fundamental_minimizes_uncertainty_product(self, q):
        products = []
        for k in range(4):
            dl2, de2 = mathieu_variances(solve_even_mathieu(q, k))
            products.append(dl2 * de2)
        assert products[0] == min(products)

    def test_inconsistent_solution_detected(self):
        sol = solve_even_mathieu(4.0, 0)
        broken = type(sol)(sol.order_index, sol.q, sol.eigenvalue - 10.0,
                           sol.coefficients)
        with pytest.raises(InconsistentSolutionError):
            mathieu_variances(broken)


class TestOddBranch:
    def test_q_zero_values(self):
        assert se_even_eigenvalue(0.0, 0) == 4.0
        assert se_even_eigenvalue(0.0, 1) == 16.0

    @pytest.mark.parametrize("q", [0.5, 1.0, 10.0])
    def test_interlacing_with_even_branch(self, q):
        # a_0 < b_2 < a_2 < b_4 < a_4 for q > 0
        a = [solve_even_mathieu(q, k).eigenvalue for k in range(3)]
        b = [se_even_eigenvalue(q, k) for k in range(2)]
        assert a[0] < b[0] < a[1] < b[1] < a[2]

    def test_truncation_convergence(self):
        assert abs(odd_on_window(10.0, 0, 40) - odd_on_window(10.0, 0, 80)) < 1e-10

    def test_rejects_negative_q(self):
        with pytest.raises(InvalidParameterError):
            se_even_eigenvalue(-2.0, 0)


def turning_point_window(q: float) -> int:
    """The earlier default window, sized from the turning point 2 sqrt(q)."""
    return max(32, math.ceil(2.0 * math.sqrt(q)) + 24)


class TestSupportWindow:
    @pytest.mark.parametrize("odd", [False, True])
    def test_default_window_needs_no_doubling(self, odd):
        for q in [0.0] + list(np.logspace(-3, 8, 45)):
            for k in range(11):
                J = len(mathieu._eigenpair(q, k, odd)[2])
                assert J == auto_truncation(q, k), (q, k)

    def test_too_small_default_window_doubles(self, monkeypatch):
        q, k = 100.0, 2
        a_wide, wide = even_on_window(q, k, 200)
        b_wide = odd_on_window(q, k, 200)
        monkeypatch.setattr(mathieu, "_window", lambda q, k=0: k + 1)
        sol = solve_even_mathieu(q, k)
        J = sol.truncation_dim
        assert J > k + 1  # doubled from the patched window
        assert sol.eigenvalue == pytest.approx(a_wide, rel=1e-14)
        assert np.max(np.abs(sol.coefficients - wide[:J])) < 1e-14
        assert np.max(np.abs(wide[J:])) < mathieu.TAIL_TOL
        assert se_even_eigenvalue(q, k) == pytest.approx(b_wide, rel=1e-14)

    @pytest.mark.parametrize("q, truncation", [(1e20, None), (1e300, None),
                                               (1.0, mathieu.MAX_TRUNCATION + 1)])
    def test_window_over_budget_refused_before_allocating(self, q, truncation):
        # None: the derived window; a set one through the solve it goes to
        if truncation is None:
            solvers = (solve_even_mathieu, se_even_eigenvalue)
        else:
            solvers = [functools.partial(mathieu._solve, J=truncation, odd=odd)
                       for odd in (False, True)]
        tracemalloc.start()
        try:
            for solver in solvers:
                with pytest.raises(InvalidParameterError, match="budget"):
                    solver(q, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_large_q_window_and_continued_fraction(self, k):
        q = 1e8
        sol = solve_even_mathieu(q, k)
        assert sol.truncation_dim <= 1000
        a = sol.eigenvalue
        width = 1e-9 * abs(a)
        a_cf = mathieu_eigenvalue_cf(q, (a - width, a + width), depth=1000)
        assert a == pytest.approx(a_cf, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("q", np.logspace(-3, 8, 12))
    def test_odd_branch_matches_wide_window(self, q):
        for k in range(4):
            wide = odd_on_window(q, k, 2 * turning_point_window(q))
            assert se_even_eigenvalue(q, k) == pytest.approx(wide, rel=1e-14, abs=1e-300)


class TestSmallQPrecision:
    """Bisection to full relative accuracy keeps a_0 ~ -q^2/2 exact."""

    @pytest.mark.parametrize("q", [1e-3, 3e-3, 1e-2])
    def test_eigenvalue_series(self, q):
        # DLMF 28.6.1
        series = (-q ** 2 / 2.0 + 7.0 * q ** 4 / 128.0 - 29.0 * q ** 6 / 2304.0
                  + 68687.0 * q ** 8 / 18874368.0)
        assert solve_even_mathieu(q, 0).eigenvalue == pytest.approx(series, rel=1e-13, abs=0.0)

    def test_variance_series(self):
        q = 1e-3
        dl2, _ = mathieu_variances(solve_even_mathieu(q, 0))
        assert dl2 == pytest.approx(q ** 2 / 8.0 - 21.0 * q ** 4 / 512.0, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("q", [0.1, 10.0, 1e4])
def test_recurrence_residuals_match_row_loop(q):
    sol = solve_even_mathieu(q, 1)
    a, A = sol.eigenvalue, sol.coefficients
    loop = [a * A[0] - q * A[1], (a - 4.0) * A[1] - q * (A[2] + 2.0 * A[0])]
    loop += [(a - 4.0 * j * j) * A[j] - q * (A[j - 1] + A[j + 1])
             for j in range(2, len(A) - 1)]
    np.testing.assert_array_max_ulp(sol.recurrence_residuals(), np.array(loop), maxulp=1)


class TestLapackLoading:
    def test_solve_loads_no_scipy_linalg_package(self):
        # the LAPACK routines of the Mathieu solve come from scipy's
        # extension module alone, not through the scipy.linalg package and
        # its ~330 modules; on Linux, not through the scipy package either
        code = (
            "import sys\n"
            "from qellip import (from_mathieu, se_even_eigenvalue, solve_even_mathieu,\n"
            "                    squeezed_for_mean_photons)\n"
            "from qellip.mathieu import _lapack\n"
            "sol = solve_even_mathieu(3.0, 1)\n"
            "from_mathieu(sol)\n"
            "se_even_eigenvalue(3.0, 1)\n"
            "squeezed_for_mean_photons(10.0, 1.0)\n"
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
            "if sys.platform.startswith('linux'):\n"
            "    assert 'scipy.linalg._flapack' in sys.modules\n"
            "    assert 'scipy' not in sys.modules, 'scipy imported'\n"
            "import numpy as np, scipy.linalg\n"
            "assert _lapack().dstebz is scipy.linalg.lapack.dstebz\n"
            "assert _lapack().dstevd is scipy.linalg.lapack.dstevd\n"
            "J = sol.truncation_dim\n"
            "d = (2.0 * np.arange(J)) ** 2\n"
            "e = np.full(J - 1, 3.0)\n"
            "e[0] *= np.sqrt(2.0)\n"
            "w = scipy.linalg.eigh_tridiagonal(d, e, select='i', select_range=(1, 1))[0]\n"
            "assert abs(w[0] - sol.eigenvalue) < 1e-13 * abs(w[0]), (w[0], sol.eigenvalue)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_public_module_when_extension_not_found(self, monkeypatch):
        import importlib.machinery

        import scipy.linalg.lapack
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        assert mathieu._lapack.__wrapped__() is scipy.linalg.lapack
