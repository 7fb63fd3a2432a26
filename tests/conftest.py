import numpy as np
import pytest
from hypothesis import settings

from teleportsim.linalg import FLOAT, DensityOperator

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic and its time bounded.
settings.register_profile("deterministic", derandomize=True, max_examples=30, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def random_density(rng):
    """Factory for random full-rank density operators (float backend)."""

    def make(num_qubits: int) -> DensityOperator:
        dim = 2**num_qubits
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T
        m /= np.trace(m).real
        return DensityOperator(FLOAT, m)

    return make


@pytest.fixture(scope="session")
def verification_report():
    from teleportsim.verify import run_verification

    return run_verification()
