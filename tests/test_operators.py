import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitur.errors import BasisMismatchError, NotHermitianError, QuasiturError
from quasitur.operators import ObservableDecomposition, logarithmic_mean
from quasitur.ensembles import random_hermitian, random_unitary
from quasitur.util import _permutation

from oracles import kubo_integral, kubo_quadrature, permutation_reference


class TestSpectralDecompose:
    def test_identity(self):
        dec = ObservableDecomposition.from_operator(np.eye(2, dtype=complex))
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
        dec = ObservableDecomposition.from_operator(a)
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

    def test_observable_formed_on_first_access(self):
        rng = np.random.default_rng(23)
        vecs = random_unitary(rng, 4)
        groups = ((0.5, vecs[:, :2]), (-1.0, vecs[:, 2:3]), (2.0, vecs[:, 3:]))
        dec = ObservableDecomposition.from_groups(groups)
        assert dec._observable is None
        values = np.array([0.5, 0.5, -1.0, 2.0])
        expected = (vecs * values) @ vecs.conj().T
        assert np.array_equal(dec.observable, expected)
        assert dec.observable is dec.observable
        x = random_hermitian(rng, 4)
        assert np.array_equal(ObservableDecomposition.from_operator(x).observable, x)

    def test_one_dimensional_group_rejected(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(BasisMismatchError) as info:
            ObservableDecomposition.from_groups(((0.0, eye[:, 0]), (1.0, eye[:, 1:])))
        assert isinstance(info.value, ValueError) and isinstance(info.value, QuasiturError)

class TestKuboIntegral:
    """The S_G oracle behind the geometric-representation tests, against
    closed forms and Gauss-Legendre quadrature."""

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
            lhs = np.vdot(a, kubo_integral(g, a)).real
            rhs = 0.5 * np.trace(a.conj().T @ (g @ a + a @ g)).real
            slack = 1e-10 * np.linalg.norm(a) ** 2 * np.linalg.norm(g)
            assert lhs <= rhs + slack

    def test_singular_weight(self):
        with pytest.raises(ValueError, match="not positive definite"):
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



def _near_permutation(rng, d, kind):
    """A d x d array that a permutation search must accept (``permutation``)
    or reject (every other kind), built from a random permutation."""
    v = np.eye(d)[:, rng.permutation(d)]
    i, j = rng.integers(d), rng.integers(d)
    if kind == "signed":
        v[:, j] *= -1.0
    elif kind == "phase":
        v = v * np.exp(1j * rng.uniform(0.1, 2 * np.pi - 0.1, size=d))
    elif kind == "complex dtype":
        v = v.astype(complex)
    elif kind == "next after one":
        v[np.flatnonzero(v[:, j])[0], j] = np.nextafter(1.0, 2.0)
    elif kind == "two in a row":  # d nonzeros, every column's largest entry 1
        v[:, j] = v[:, (j + 1) % d]
    elif kind == "two in a column":  # d nonzeros, every row's largest entry 1
        v[i] = v[(i + 1) % d]
    elif kind == "a half":
        v[np.flatnonzero(v[:, j])[0], j] = 0.5
    elif kind == "nan":
        v[np.flatnonzero(v[:, j])[0], j] = np.nan
    elif kind == "orthogonal":
        v = np.linalg.qr(rng.normal(size=(d, d)))[0]
    elif kind == "rectangular":
        v = v[:, :max(d - 1, 1)]
    return v


PERMUTATION_KINDS = ("permutation", "signed", "phase", "complex dtype", "next after one",
                     "two in a row", "two in a column", "a half", "nan", "orthogonal",
                     "rectangular")


class TestPermutationSearch:
    """``util._permutation`` against the column-by-column definition."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12),
           kind=st.sampled_from(PERMUTATION_KINDS))
    def test_matches_the_definition(self, seed, d, kind):
        v = _near_permutation(np.random.default_rng(seed), d, kind)
        expected = permutation_reference(v)
        got = _permutation(v)
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected)
            assert np.array_equal(v, np.eye(d)[:, got])

    @pytest.mark.parametrize("kind", PERMUTATION_KINDS)
    def test_each_kind_is_judged_as_its_name_says(self, kind):
        # at d = 4 every kind but the last is a square real or complex array,
        # and only a plain permutation matrix passes
        v = _near_permutation(np.random.default_rng(5), 4, kind)
        assert (_permutation(v) is not None) == (kind == "permutation")
