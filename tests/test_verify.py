import numpy as np
import pytest

from ewsrgap.errors import DomainError
from ewsrgap.verify import random_zero_mean_scenario, run_suite


@pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0, True])
def test_run_suite_rejects_bad_scale(scale):
    with pytest.raises(DomainError, match="scale must be a finite real number >= 0"):
        run_suite("theorems", 0, scale=scale)


@pytest.mark.parametrize("counts", [{"n_cells": True}, {"n_cells": 1.9}, {"n_users": 0},
                                    {"n_users": 2.0}])
def test_random_scenario_rejects_non_integer_counts(counts):
    (name,) = counts
    with pytest.raises(DomainError, match=f"{name} must be an integer >= 1"):
        random_zero_mean_scenario(0, **counts)


def test_random_scenario_counts_given_or_drawn():
    scenario, _ = random_zero_mean_scenario(3, n_cells=2, n_users=np.int64(5))
    assert (scenario.n_cells, scenario.n_users) == (2, 5)
    drawn, _ = random_zero_mean_scenario(3)  # None draws both counts
    assert 1 <= drawn.n_cells <= 2 and 2 <= drawn.n_users <= 4
