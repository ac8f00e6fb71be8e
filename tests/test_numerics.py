import numpy as np
import pytest

from stochvi import numerics
from stochvi.errors import ConfigError, NumericalError

from reference import random_orthogonal


def test_singular_values_antisymmetric():
    # M^T M = 4 I
    assert np.allclose(numerics.singular_values([[0.0, 2.0], [-2.0, 0.0]]), [2, 2])


def test_singular_values_identity_and_zero():
    assert np.allclose(numerics.singular_values(np.eye(2)), [1, 1])
    assert np.allclose(numerics.singular_values(np.zeros((2, 2))), [0, 0])


def test_solve_linear_identity_and_diagonal():
    assert np.allclose(numerics.solve_linear(np.eye(2), [3.0, 4.0]), [3, 4])
    assert np.allclose(numerics.solve_linear(np.diag([2.0, 4.0]), [2.0, 8.0]), [1, 2])


def test_solve_linear_residual():
    m = np.array([[2.0, 1.0], [-1.0, 3.0]])
    b = np.array([-1.0, 1.0])
    x = numerics.solve_linear(m, b)
    assert np.allclose(x, [-4 / 7, 1 / 7])
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_linear_rejects_singular():
    with pytest.raises(NumericalError, match="singular or too ill-conditioned"):
        numerics.solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0])


@pytest.mark.parametrize("call, match", [
    (lambda: numerics.as_matrix([1.0, 2.0]), r"expected a 2-d array, got shape \(2,\)"),
    (lambda: numerics.as_matrix([[1.0, np.nan]]), "matrix entries must be finite"),
    (lambda: numerics.solve_linear(np.ones((1, 2, 2)), [1.0, 2.0]),
     r"expected a 2-d array, got shape \(1, 2, 2\)"),
    (lambda: numerics.solve_linear(np.ones((2, 3)), [1.0, 2.0]),
     r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: numerics.solve_linear(np.eye(2), [1.0, 2.0, 3.0]),
     "right-hand side length 3 != matrix order 2"),
    (lambda: numerics.solve_linear([[np.inf, 0.0], [0.0, 1.0]], [1.0, 2.0]),
     "matrix entries must be finite"),
], ids=["as_matrix_1d", "as_matrix_nan", "solve_3d", "solve_not_square", "solve_rhs_length",
        "solve_infinite"])
def test_matrix_inputs_are_validated(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


def test_solve_linear_random_well_conditioned():
    rng = numerics.make_rng(1234)
    for _ in range(1000):
        d = int(rng.integers(1, 51))
        q = random_orthogonal(d, rng)
        s = rng.uniform(0.5, 2.0, d)
        m = (q * s) @ random_orthogonal(d, rng).T
        b = rng.standard_normal(d)
        if np.linalg.norm(b) == 0.0:
            continue
        x = numerics.solve_linear(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_singular_values_match_gram_eigenvalues():
    rng = numerics.make_rng(9)
    for _ in range(25):
        d1, d2 = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        m = rng.standard_normal((d1, d2))
        sv = numerics.singular_values(m)
        gram = np.linalg.eigvalsh(m.T @ m)
        expect = np.sqrt(np.maximum(gram, 0.0))[::-1][: sv.size]
        scale = max(sv[0], 1e-30)
        assert np.all(np.abs(sv - expect) <= 1e-8 * scale)


def test_random_orthogonal_contract():
    rng = numerics.make_rng(10)
    for d in (1, 2, 3, 7, 20):
        q = random_orthogonal(d, rng)
        assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-10


def test_random_orthogonal_one_dimensional():
    rng = numerics.make_rng(11)
    vals = {float(random_orthogonal(1, rng)[0, 0]) for _ in range(20)}
    assert vals <= {1.0, -1.0}


def test_random_orthogonal_deterministic():
    a = random_orthogonal(5, numerics.make_rng(99))
    b = random_orthogonal(5, numerics.make_rng(99))
    assert a.tobytes() == b.tobytes()


def test_rng_determinism_across_instances():
    r1, r2 = numerics.make_rng(3), numerics.make_rng(3)
    assert r1.standard_normal(16).tobytes() == r2.standard_normal(16).tobytes()
    assert numerics.make_rng(3).integers(0, 100, 10).tolist() == numerics.make_rng(
        3
    ).integers(0, 100, 10).tolist()


def test_haar_orthogonal_equals_the_one_matrix_factor():
    for d in (1, 2, 7):
        rng = numerics.make_rng(12)
        normals = rng.standard_normal((5, d, d))
        rng = numerics.make_rng(12)
        one = [random_orthogonal(d, rng) for _ in range(5)]
        assert numerics.haar_orthogonal(normals).tobytes() == np.stack(one).tobytes()
