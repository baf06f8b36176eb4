"""Even pi-periodic Mathieu solver: eigenvalues, coefficients, variances."""

import numpy as np
import pytest

from qellip import (
    InconsistentSolutionError,
    InvalidParameterError,
    TruncationError,
    eval_ce,
    mathieu_variances,
    se_even_eigenvalue,
    solve_even_mathieu,
    theta_series,
)
from qellip.mathieu import auto_truncation

from oracles import mathieu_eigenvalue_cf, mathieu_ode_value

Q_GRID = [0.01, 0.1, 1.0, 10.0, 100.0]


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
        a_ref = solve_even_mathieu(1.0, 0, truncation=64).eigenvalue
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
            a1 = solve_even_mathieu(q, k, truncation=J).eigenvalue
            a2 = solve_even_mathieu(q, k, truncation=2 * J).eigenvalue
            assert abs(a1 - a2) < 1e-10

    def test_eigenvalue_ordering(self):
        vals = [solve_even_mathieu(5.0, k).eigenvalue for k in range(5)]
        assert vals == sorted(vals)


class TestErrors:
    @pytest.mark.parametrize("q", [np.nan, np.inf, -1.0])
    def test_bad_q(self, q):
        with pytest.raises(InvalidParameterError):
            solve_even_mathieu(q, 0)

    def test_order_exceeds_truncation(self):
        with pytest.raises(TruncationError):
            solve_even_mathieu(1.0, 8, truncation=8)

    def test_negative_order(self):
        with pytest.raises(InvalidParameterError):
            solve_even_mathieu(1.0, -1)

    def test_tail_not_decayed(self):
        with pytest.raises(TruncationError):
            solve_even_mathieu(100.0, 0, truncation=8)


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
                           sol.coefficients, sol.truncation_dim)
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
        assert abs(se_even_eigenvalue(10.0, 0, truncation=40)
                   - se_even_eigenvalue(10.0, 0, truncation=80)) < 1e-10

    def test_rejects_negative_q(self):
        with pytest.raises(InvalidParameterError):
            se_even_eigenvalue(-2.0, 0)

    @pytest.mark.parametrize("solver", [solve_even_mathieu, se_even_eigenvalue])
    def test_zero_truncation_is_invalid(self, solver):
        # both branches validate through one helper: J = 0 is bad input,
        # not a truncation failure
        with pytest.raises(InvalidParameterError, match="truncation must be positive"):
            solver(1.0, 0, truncation=0)
