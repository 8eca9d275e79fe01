import numpy as np
import pytest

from cstarreg.gridalg import GridElement, interval_domain


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_projection(rng, n, rank):
    """Orthogonal projection of the given rank."""
    q, _ = np.linalg.qr(random_complex(rng, n, rank))
    return q @ q.conj().T


def random_with_condition(rng, n, cond):
    """Invertible matrix with prescribed condition number."""
    q1, _ = np.linalg.qr(random_complex(rng, n))
    q2, _ = np.linalg.qr(random_complex(rng, n))
    s = np.geomspace(1.0, 1.0 / cond, n)
    return (q1 * s) @ q2.conj().T


def random_with_spectrum(rng, spectrum):
    """(q1, q2, a) with a = q1 diag(spectrum) q2* for unitaries q1, q2 from
    the QR of two complex Gaussian draws."""
    n = len(spectrum)
    q1, _ = np.linalg.qr(random_complex(rng, n))
    q2, _ = np.linalg.qr(random_complex(rng, n))
    return q1, q2, (q1 * np.asarray(spectrum, dtype=float)) @ q2.conj().T


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of np.linalg.svd and np.linalg.eigh calls made by the test.
    np.linalg.norm(., 2) runs its SVD without looking up np.linalg.svd, so
    the operator norms of residuals are not counted."""
    counts = {"svd": 0, "eigh": 0}
    for name in counts:
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.fixture
def svd_inputs(monkeypatch):
    """(shape, bytes) of the input of each np.linalg.svd call made by the
    test, so that a repeated factorization of the same operand shows."""
    inputs = []
    orig = np.linalg.svd

    def recorded(a, *args, **kwargs):
        arr = np.asarray(a)
        inputs.append((arr.shape, arr.tobytes()))
        return orig(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recorded)
    return inputs


def matrix_field(rng, n, d):
    """Trig-polynomial C([0,1], M_d) field, multiplied on the right by
    1 + (t - t0 - 1) p p*, which drops rank at a seeded t0."""
    t = np.linspace(0.0, 1.0, n)[:, None, None]
    vals = np.tile(0.5 * np.eye(d, dtype=complex), (n, 1, 1))
    for k in range(3):
        a, b = (0.3 / (k + 1) ** 2 * (rng.standard_normal((2, d, d))
                                      + 1j * rng.standard_normal((2, d, d))))
        vals = vals + np.cos(np.pi * k * t) * a + np.sin(np.pi * k * t) * b
    p = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    p /= np.linalg.norm(p)
    vals = vals @ (np.eye(d) + (t - rng.uniform(0.2, 0.8) - 1.0) * np.outer(p, p.conj()))
    return GridElement(domain=interval_domain(n), values=vals)
