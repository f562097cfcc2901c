"""Tests for the counted linear-algebra layer."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcu import linalg
from repro.mcu.ops import OpCounter


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestResultsMatchNumpy:
    def test_matmul(self):
        c = OpCounter()
        a, b = rand((4, 5)), rand((5, 3), 1)
        assert np.allclose(linalg.matmul(c, a, b), a @ b)
        assert c.trace.ffma == 4 * 5 * 3

    def test_matvec(self):
        c = OpCounter()
        a, x = rand((4, 5)), rand(5, 1)
        assert np.allclose(linalg.matvec(c, a, x), a @ x)

    def test_lu_solve(self):
        c = OpCounter()
        a = rand((5, 5)) + 5 * np.eye(5)
        b = rand(5, 1)
        assert np.allclose(linalg.lu_solve(c, a, b), np.linalg.solve(a, b))

    def test_cholesky_and_solve(self):
        c = OpCounter()
        m = rand((4, 4))
        spd = m @ m.T + 4 * np.eye(4)
        l_factor = linalg.cholesky(c, spd)
        assert np.allclose(l_factor @ l_factor.T, spd)
        b = rand(4, 2)
        x = linalg.cholesky_solve(c, l_factor, b)
        assert np.allclose(spd @ x, b)

    def test_inverse(self):
        c = OpCounter()
        a = rand((3, 3)) + 3 * np.eye(3)
        assert np.allclose(linalg.inverse(c, a) @ a, np.eye(3), atol=1e-10)

    def test_qr(self):
        c = OpCounter()
        a = rand((6, 4))
        q_mat, r_mat = linalg.qr(c, a)
        assert np.allclose(q_mat @ r_mat, a)

    def test_svd(self):
        c = OpCounter()
        a = rand((6, 4))
        u, s, vt = linalg.svd(c, a)
        assert np.allclose(u @ np.diag(s) @ vt, a)

    def test_eig_sym(self):
        c = OpCounter()
        m = rand((4, 4))
        sym = (m + m.T) / 2
        w, v = linalg.eig_sym(c, sym)
        assert np.allclose(v @ np.diag(w) @ v.T, sym, atol=1e-8)

    def test_eig_general(self):
        c = OpCounter()
        a = rand((5, 5))
        w, v = linalg.eig_general(c, a)
        assert np.allclose(a @ v, v * w, atol=1e-8)

    def test_nullspace_vector(self):
        c = OpCounter()
        # Rank-deficient 4x5 system.
        a = rand((4, 5))
        v = linalg.nullspace_vector(c, a)
        assert np.linalg.norm(a @ v) < 1e-8
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_gauss_jordan_reduces_to_identity_block(self):
        c = OpCounter()
        a = np.hstack([rand((4, 4)) + 4 * np.eye(4), rand((4, 2), 1)])
        red = linalg.gauss_jordan(c, a)
        assert np.allclose(red[:, :4], np.eye(4), atol=1e-10)

    def test_gauss_jordan_singular_raises(self):
        c = OpCounter()
        a = np.zeros((3, 5))
        with pytest.raises(np.linalg.LinAlgError):
            linalg.gauss_jordan(c, a)

    def test_poly_roots(self):
        c = OpCounter()
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        roots = linalg.poly_roots(c, np.array([1.0, -6.0, 11.0, -6.0]))
        assert sorted(np.real(roots)) == pytest.approx([1.0, 2.0, 3.0])

    def test_quadratic_roots(self):
        c = OpCounter()
        roots = linalg.quadratic_roots(c, 1.0, -3.0, 2.0)
        assert sorted(roots) == pytest.approx([1.0, 2.0])

    def test_quadratic_no_real_roots(self):
        c = OpCounter()
        assert len(linalg.quadratic_roots(c, 1.0, 0.0, 1.0)) == 0

    def test_quartic_roots_real_only(self):
        c = OpCounter()
        # (x^2-1)(x^2+1): real roots +/-1
        roots = linalg.quartic_roots(c, np.array([1.0, 0, 0, 0, -1.0]))
        assert sorted(roots) == pytest.approx([-1.0, 1.0])

    def test_gauss_newton_step_reduces_residual(self):
        c = OpCounter()
        jac = rand((10, 3))
        r = rand(10, 2)
        dx = linalg.gauss_newton_step(c, jac, r)
        assert np.linalg.norm(r + jac @ dx) < np.linalg.norm(r)

    def test_vector_helpers(self):
        c = OpCounter()
        x, y = rand(5), rand(5, 1)
        assert linalg.dot(c, x, y) == pytest.approx(float(x @ y))
        assert linalg.norm(c, x) == pytest.approx(float(np.linalg.norm(x)))
        assert np.allclose(linalg.add(c, x, y), x + y)
        assert np.allclose(linalg.sub(c, x, y), x - y)
        assert np.allclose(linalg.scale(c, 2.0, x), 2 * x)
        assert np.allclose(linalg.outer(c, x, y), np.outer(x, y))
        assert np.allclose(linalg.cross(c, x[:3], y[:3]), np.cross(x[:3], y[:3]))
        assert np.allclose(linalg.transpose(c, rand((3, 4))), rand((3, 4)).T)


#: Finite float64 components whose pairwise products cannot overflow,
#: with subnormals and both signed zeros drawn explicitly.
FLOAT64 = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
              allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -1e-310]),
)
VEC3 = st.tuples(FLOAT64, FLOAT64, FLOAT64).map(np.array)


class TestCross3:
    @given(VEC3, VEC3)
    @settings(max_examples=500, deadline=None)
    def test_byte_identical_to_numpy(self, x, y):
        assert linalg.cross3(x, y).tobytes() == np.cross(x, y).tobytes()

    def test_no_numpy_cross_left_in_src(self):
        """Every 3-vector cross product goes through ``cross3``."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        paths = sorted(src.rglob("*.py"))
        assert paths, f"no sources under {src}"
        calls = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "cross"
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy")):
                    calls.append(f"{path.relative_to(src)}:{node.lineno}")
                if (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                        and any(alias.name == "cross" for alias in node.names)):
                    calls.append(f"{path.relative_to(src)}:{node.lineno}")
        assert not calls, f"np.cross outside cross3: {calls}"


class TestOpAccounting:
    def test_every_routine_records_ops(self):
        ops_per_call = {}
        a44 = rand((4, 4)) + 4 * np.eye(4)
        for name, call in [
            ("matmul", lambda c: linalg.matmul(c, rand((4, 4)), rand((4, 4)))),
            ("lu_solve", lambda c: linalg.lu_solve(c, a44, rand(4))),
            ("svd", lambda c: linalg.svd(c, rand((6, 4)))),
            ("qr", lambda c: linalg.qr(c, rand((6, 4)))),
            ("eig_general", lambda c: linalg.eig_general(c, rand((5, 5)))),
            ("poly_roots", lambda c: linalg.poly_roots(c, np.array([1.0, 0, -1.0]))),
        ]:
            c = OpCounter()
            call(c)
            ops_per_call[name] = c.trace.total
        assert all(v > 0 for v in ops_per_call.values())

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_svd_cost_grows_with_size(self, n):
        c_small, c_big = OpCounter(), OpCounter()
        linalg.svd(c_small, rand((n, n)))
        linalg.svd(c_big, rand((2 * n, 2 * n)))
        assert c_big.trace.total > c_small.trace.total

    def test_linear_solver_scales_linearly_in_rows(self):
        """The Fig. 5 observation: SVD-based solvers scale with N."""
        c8, c32 = OpCounter(), OpCounter()
        linalg.nullspace_vector(c8, rand((8, 9)))
        linalg.nullspace_vector(c32, rand((32, 9)))
        ratio = c32.trace.total / c8.trace.total
        assert 1.5 < ratio < 4.5

    def test_small_poly_cheaper_than_companion(self):
        c_small, c_big = OpCounter(), OpCounter()
        coeffs6 = np.array([1.0, 0, -3, 0, 1, 0, 0.1])
        linalg.small_poly_roots(c_small, coeffs6)
        # force companion path via degree 12
        coeffs12 = np.zeros(13)
        coeffs12[0] = 1.0
        coeffs12[-1] = -1.0
        linalg.poly_roots(c_big, coeffs12)
        assert c_small.trace.total < c_big.trace.total
