import os

import numpy as np
import pytest
from hypothesis import settings

# With CI set, every Hypothesis test without its own max_examples runs
# 1000 derandomized examples (the default profile runs 100 random ones).
settings.register_profile("ci", derandomize=True, max_examples=1000)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
