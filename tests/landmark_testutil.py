"""Test helper for ``LandmarkSet``: equality of every field, positions to the byte."""

import numpy as np


def assert_same_landmarks(a, b):
    assert a.n_base == b.n_base
    assert np.array_equal(a.anchors, b.anchors)
    assert np.array_equal(a.sources, b.sources)
    assert a.positions.tobytes() == b.positions.tobytes()
