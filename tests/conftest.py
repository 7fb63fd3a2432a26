import numpy as np
import pytest
from hypothesis import settings

from teleportsim.linalg import Operator

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic and its time bounded.
settings.register_profile("deterministic", derandomize=True, max_examples=30, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def random_density(rng):
    """Factory for random full-rank density operators."""

    def make(num_qubits: int) -> Operator:
        dim = 2**num_qubits
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T
        m /= np.trace(m).real
        return Operator(m)

    return make


@pytest.fixture(scope="session")
def verification_report():
    from teleportsim.verify import run_verification

    return run_verification()


def find_target(report, name):
    """The target of ``report`` called ``name``; KeyError if there is none."""
    for t in report.targets:
        if t.name == name:
            return t
    raise KeyError(name)


def replace_field(value, **changes):
    """A copy of the frozen value ``value`` built through its constructor,
    with the named fields changed: the package's value classes have no
    ``replace`` of their own."""
    unknown = set(changes) - set(value._fields)
    if unknown:
        raise TypeError(f"{type(value).__name__} has no field {sorted(unknown)}")
    return type(value)(**{name: changes.get(name, getattr(value, name)) for name in value._fields})
