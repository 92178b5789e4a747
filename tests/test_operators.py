import mpmath
import numpy as np
import pytest

from quasitur.errors import (
    BasisMismatchError,
    DimMismatchError,
    NotHermitianError,
    QuasiturError,
    SingularOperatorError,
)
from quasitur.operators import (
    ObservableDecomposition,
    hs_inner_product,
    kubo_integral,
    logarithmic_mean,
    matrix_log_psd,
)
from quasitur.ensembles import random_hermitian, random_unitary

from oracles import kubo_quadrature


class TestSpectralDecompose:
    def test_identity(self):
        dec = ObservableDecomposition.from_operator(np.eye(2, dtype=complex), degeneracy_tol=1e-9)
        assert dec.n_classes == 1
        assert dec.class_values[0] == pytest.approx(1.0)
        np.testing.assert_allclose(dec.projector(0), np.eye(2), atol=1e-12)

    def test_diagonal(self):
        omega = 0.7
        dec = ObservableDecomposition.from_operator(np.diag([0.0, omega]).astype(complex))
        np.testing.assert_allclose(dec.class_values, [0.0, omega])
        np.testing.assert_allclose(dec.projector(0), np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(dec.projector(1), np.diag([0.0, 1.0]), atol=1e-12)

    def test_pauli_x_type(self):
        # hand diagonalization: eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
        dec = ObservableDecomposition.from_operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(dec.class_values, [-1.0, 1.0], atol=1e-12)
        minus = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(dec.projector(0), minus, atol=1e-12)
        np.testing.assert_allclose(dec.projector(1), plus, atol=1e-12)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            ObservableDecomposition.from_operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_degeneracy_merging(self):
        a = np.diag([0.0, 1e-12, 1.0]).astype(complex)
        dec = ObservableDecomposition.from_operator(a, degeneracy_tol=1e-9)
        assert dec.n_classes == 2
        assert dec.class_members[0].size == 2

    def test_projector_completeness_and_orthogonality(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            dec = ObservableDecomposition.from_operator(random_hermitian(rng, dim))
            projectors = dec.projectors
            total = projectors.sum(axis=0)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
            for i, p in enumerate(projectors):
                np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
                np.testing.assert_allclose(p @ p, p, atol=1e-10)
                for j in range(i + 1, dec.n_classes):
                    np.testing.assert_allclose(p @ projectors[j], 0.0, atol=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 5)
        dec = ObservableDecomposition.from_operator(a)
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)


class TestObservableConstructors:
    def test_eigenbasis_is_singleton_groups(self):
        rng = np.random.default_rng(21)
        vals = np.array([0.5, -1.0, 0.5, 2.0])
        vecs = random_unitary(rng, 4)
        a = ObservableDecomposition.from_eigenbasis(vals, vecs)
        b = ObservableDecomposition.from_groups((v, vecs[:, [i]]) for i, v in enumerate(vals))
        for name in ("observable", "eigenvalues", "eigenvectors", "class_values"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert len(a.class_members) == len(b.class_members) == 4
        for ma, mb in zip(a.class_members, b.class_members):
            assert np.array_equal(ma, mb)

    def test_one_dimensional_group_rejected(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(BasisMismatchError) as info:
            ObservableDecomposition.from_groups(((0.0, eye[:, 0]), (1.0, eye[:, 1:])))
        assert isinstance(info.value, ValueError) and isinstance(info.value, QuasiturError)

    def test_validate_against_from_operator(self):
        rng = np.random.default_rng(22)
        u = random_unitary(rng, 5)
        x = (u * np.array([-1.0, -1.0, 0.5, 0.5, 2.0])) @ u.conj().T
        dec = ObservableDecomposition.from_operator(x)
        assert dec.n_classes == 3
        dec.validate_against(x)
        with pytest.raises(BasisMismatchError):
            dec.validate_against(x + np.diag([0.0, 0.0, 0.0, 0.0, 0.1]))


class TestMatrixLog:
    def test_identity(self):
        np.testing.assert_allclose(matrix_log_psd(np.eye(3, dtype=complex)), 0.0, atol=1e-14)

    def test_diagonal(self):
        g = np.diag([1.0, np.e]).astype(complex)
        np.testing.assert_allclose(matrix_log_psd(g), np.diag([0.0, 1.0]), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            g = raw @ raw.conj().T + 0.1 * np.eye(4)
            import scipy.linalg
            back = scipy.linalg.expm(matrix_log_psd(g))
            assert np.linalg.norm(back - g) <= 1e-9 * np.linalg.norm(g)

    def test_singular(self):
        with pytest.raises(SingularOperatorError):
            matrix_log_psd(np.diag([1.0, 0.0]).astype(complex))


class TestKuboIntegral:
    def test_identity_weight(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        np.testing.assert_allclose(kubo_integral(np.eye(3, dtype=complex), a), a, atol=1e-12)

    def test_two_level_quadrature_value(self):
        # int_0^1 4^(1-s) ds = 3 / ln 4, checked against Gauss-Legendre
        g = np.diag([1.0, 4.0]).astype(complex)
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1] = 1.0
        expected = kubo_quadrature(g, a)
        assert expected[0, 1] == pytest.approx(3.0 / np.log(4.0), abs=1e-12)
        got = kubo_integral(g, a)
        np.testing.assert_allclose(got, expected, atol=1e-10)
        assert got[0, 1] == pytest.approx(2.16404, abs=1e-5)

    def test_hermitian_preserved(self):
        rng = np.random.default_rng(9)
        g = np.diag(rng.uniform(0.5, 2.0, size=4)).astype(complex)
        a = random_hermitian(rng, 4)
        out = kubo_integral(g, a)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_matches_quadrature_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            g = raw @ raw.conj().T + 0.2 * np.eye(4)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            got = kubo_integral(g, a)
            expected = kubo_quadrature(g, a)
            assert np.linalg.norm(got - expected) <= 1e-8 * max(np.linalg.norm(expected), 1e-30)

    def test_upper_bound_by_anticommutator(self):
        # <A, S_G(A)> <= tr(A^dag {G, A}) / 2 for Hermitian A, positive G
        rng = np.random.default_rng(13)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            g = raw @ raw.conj().T + 0.05 * np.eye(dim)
            a = random_hermitian(rng, dim)
            lhs = hs_inner_product(a, kubo_integral(g, a)).real
            rhs = 0.5 * np.trace(a.conj().T @ (g @ a + a @ g)).real
            slack = 1e-10 * np.linalg.norm(a) ** 2 * np.linalg.norm(g)
            assert lhs <= rhs + slack

    def test_singular_weight(self):
        with pytest.raises(SingularOperatorError):
            kubo_integral(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex))


class TestLogarithmicMean:
    def test_near_coincident_arguments_match_mpmath(self):
        # the quotient (x - y) / (ln x - ln y) erred by 5e-6 at a relative
        # gap of 1e-9 and by 5e-4 at 1e-11
        rng = np.random.default_rng(17)
        ys = np.array([1e-12, 3.7e-5, 0.2, 1.0, 13.0, 4e3])
        for k in range(3, 16):
            for sign in (1.0, -1.0):
                xs = ys * (1.0 + sign * 10.0**-k * rng.uniform(1.0, 2.0, size=ys.size))
                got = logarithmic_mean(xs, ys)
                assert np.array_equal(got, logarithmic_mean(ys, xs))
                with mpmath.workdps(50):
                    for x, y, value in zip(xs, ys, got):
                        x, y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
                        exact = (x - y) / (mpmath.log(x) - mpmath.log(y))
                        assert abs((value - exact) / exact) <= 1e-14


class TestHSInnerProduct:
    def test_identity(self):
        assert hs_inner_product(np.eye(4, dtype=complex), np.eye(4, dtype=complex)) == pytest.approx(4.0)

    def test_norm_positivity(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        val = hs_inner_product(a, a)
        assert abs(val.imag) < 1e-12
        assert val.real >= 0.0

    def test_rank_one(self):
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1.0
        assert hs_inner_product(e01, e01) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert hs_inner_product(a, b) == pytest.approx(np.conj(hs_inner_product(b, a)))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            hs_inner_product(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
