"""Error budgets of the float fidelity columns, in units of EPS = 2**-52.

Each float value is compared with the exact value at its own inputs (see
``exact_fidelity``), so a budget is a measured number, not a tolerance.
The budgets are the measured maxima rounded up.  Over 2,250 drawn states
(some with zero or 1e-12 parts) at 201 points each, the ``numeric`` column
reached 7.74 EPS and the ``analytic`` column 3.74 EPS.  On 60 random
states off unit norm by up to the 1e-9 that ``InputState`` accepts
(``numpy.random.default_rng(7)``), at 101 points each, they reached 5.20
and 2.36 EPS.
"""

import math

import pytest
from hypothesis import assume, given, strategies as st

from exact_fidelity import EPS, error_in_eps, numeric_fidelity, published_fidelity
from teleportsim.analytic import fidelity_closed
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.cli import SweepConfig, run_sweep
from teleportsim.teleport import InputState, teleport_fidelity
from test_analytic import grids, input_states, part_states

BUDGET_EPS = {"numeric": 8, "analytic": 4}
COLUMNS = {
    "numeric": (teleport_fidelity, numeric_fidelity),
    "analytic": (fidelity_closed, published_fidelity),
}


@st.composite
def norm_edge_states(draw):
    """States that ``InputState`` accepts with ``|a|^2 + |b|^2`` up to 1e-9
    off 1, where the real form's ``n`` term differs from 1."""
    state = draw(input_states | part_states())
    scale = math.sqrt(1 + draw(st.floats(-1e-9, 1e-9)))
    a, b = complex(state.alpha) * scale, complex(state.beta) * scale
    assume(abs(abs(a) ** 2 + abs(b) ** 2 - 1) <= 1e-9)
    return InputState(a, b)


@pytest.mark.parametrize("column", list(COLUMNS))
@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
@given(state=input_states | part_states() | norm_edge_states(), grid=grids())
def test_column_within_budget(kind, column, state, grid):
    function, reference = COLUMNS[column]
    exact = reference(kind, state)
    values = function(state, ChannelSpec(kind, grid)).tolist()
    errors = [error_in_eps(v, exact, p) for v, p in zip(values, grid.tolist())]
    worst = max(errors)
    assert worst <= BUDGET_EPS[column], f"{float(worst):.3f} EPS"


def test_phaseflip_sweep_difference_within_budget():
    # the published phase-flip form is the derived one, so abs_diff is
    # rounding only, on every point of the default grid
    config = SweepConfig(NoiseKind.PHASE_FLIP, (InputState(0.6, 0.8),))
    rows = [line.split(",") for line in run_sweep(config).splitlines()[1:]]
    assert len(rows) == 101
    assert max(float(row[-1]) for row in rows) <= BUDGET_EPS["analytic"] * EPS
