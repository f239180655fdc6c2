import numpy as np
import pytest

from lamsim.model import preset


def random_complex_matrix(rng: np.random.Generator, n: int,
                          scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))


def expm_eig(a: np.ndarray) -> np.ndarray:
    """Matrix exponential from an eigendecomposition, independent of
    lamsim.linalg.expm."""
    vals, vecs = np.linalg.eig(a)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def case_a():
    return preset("A-I")


@pytest.fixture
def case_a_open():
    return preset("A-II")
