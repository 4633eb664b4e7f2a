import os

import numpy as np
import pytest

from kohnspec import build_curve, circle_profile, ellipse_profile, random_profile


@pytest.fixture(scope="session")
def unit_circle():
    return build_curve(circle_profile(1.0), 512)


@pytest.fixture(scope="session")
def circle_kappa2():
    return build_curve(circle_profile(0.5), 512)  # radius 1/2 <=> kappa = 2


@pytest.fixture(scope="session")
def ellipse_03():
    return build_curve(ellipse_profile(0.3), 512)


@pytest.fixture(scope="session")
def asymmetric_curve():
    # no reflection symmetry: second cosine plus third sine harmonic
    from kohnspec import RadiusOfCurvatureProfile
    profile = RadiusOfCurvatureProfile((1.0, 0.0, 0.2), (0.0, 0.0, 0.1))
    return build_curve(profile, 1024)


@pytest.fixture(scope="session")
def random_curves():
    return [build_curve(random_profile(seed), 512) for seed in range(5)]


@pytest.fixture
def no_fork(monkeypatch):
    """``os.fork`` raises: the code under test runs in this process."""
    def fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)
