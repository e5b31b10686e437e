"""Fixtures shared across test modules."""

import time

import numpy as np
import pytest

from gibbscert.bounds import coordinate, single_site_function
from gibbscert.lattice import periodic_grid
from gibbscert.model import GibbsModel, cosine_potential, nearest_neighbor_coupling
from gibbscert.oracles.potential import GridSpec, PotentialSolver


@pytest.fixture(scope="session")
def cold_fine_solve():
    """The criterion-3 model and functions solved cold on GridSpec(6.0, 0.005).

    This is the suite's costliest solve (about 20 s on a 2-core Xeon); the
    acceptance suite and the solver tests share it. ``elapsed`` is its wall
    time, which criterion 3 counts against its budget.
    """
    start = time.perf_counter()
    model = GibbsModel(
        periodic_grid([2]), cosine_potential(1.0, 0.1, 1.0), nearest_neighbor_coupling(0.2)
    )
    grid = GridSpec(6.0, 0.005)
    L = grid.box_halfwidth
    functions = [
        coordinate(0, 2),
        single_site_function(0, 2, lambda x: x**3, 3.0 * L**2),
        single_site_function(0, 2, np.sin, 1.0),
    ]
    fields = PotentialSolver(model, grid).solve_many(functions)
    return {"model": model, "grid": grid, "fields": fields, "elapsed": time.perf_counter() - start}
