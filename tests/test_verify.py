import numpy as np
import pytest

from ewsrgap import rates, verify
from ewsrgap.errors import DomainError
from ewsrgap.rates import esei_terms, sandwich_bounds, user_term_estimates
from ewsrgap.verify import demo_scenario, random_zero_mean_scenario, run_suite


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


def test_sandwich_demo_rows_come_from_one_pass(monkeypatch):
    # the containment row's EWSR and the Jensen row's terms share one
    # Monte-Carlo pass, and match the bound and the term estimates made
    # apart at the same sample count and seed
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    real = rates.vector_stats
    monkeypatch.setattr(rates, "vector_stats", counted)
    contained, jensen = verify._check_sandwich_demo(5, 0.0, 1)
    assert len(calls) == 1
    monkeypatch.undo()
    sc, ps = demo_scenario()
    bound = sandwich_bounds(sc, ps, n_samples=2000, seed=5)
    wsr, sig, intf = user_term_estimates(sc, ps, 2000, 5)
    assert bound.ewsr == wsr
    assert contained["slack"] == min(wsr.value - bound.lower, bound.upper - wsr.value)
    worst = min(
        min(e_sig - (s.value - 3 * s.std_error), e_int - (i.value - 3 * i.std_error))
        for (e_sig, e_int), s, i in zip(esei_terms(sc, ps), sig, intf)
    )
    assert jensen["slack"] == worst
