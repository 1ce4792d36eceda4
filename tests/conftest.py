"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices numpy's SVD sees from here on. The sketch
    only decomposes its narrow B; the input's own shape means the fallback
    ran."""
    seen = []
    orig = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen
