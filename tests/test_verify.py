import numpy as np
import pytest

from ewsrgap.errors import DomainError
from ewsrgap.verify import run_suite


@pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0, True])
def test_run_suite_rejects_bad_scale(scale):
    with pytest.raises(DomainError, match="scale must be a finite real number >= 0"):
        run_suite("theorems", 0, scale=scale)
