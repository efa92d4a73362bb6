"""Shared fixtures for the test-suite."""

from __future__ import annotations

import functools

import pytest

import repro.api
from repro.core.engine import EngineConfig
from repro.experiments.config import Scale
from repro.streams.generators import uniform_pair, zipf_pair


@pytest.fixture
def kernel_loop_run():
    """``repro.api.run`` pinned to the engine's per-tuple kernel loop
    (``EngineConfig(force_general=True)``): the reference side the
    columnar lanes, the default path wherever they apply, are checked
    against."""

    def run(spec, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                repro.api, "EngineConfig",
                functools.partial(EngineConfig, force_general=True),
            )
            return repro.api.run(spec, **kwargs)

    return run


@pytest.fixture
def small_zipf_pair():
    """A short, skewed stream pair used across engine/policy tests."""
    return zipf_pair(length=300, domain_size=10, skew=1.0, seed=42)


@pytest.fixture
def small_uniform_pair():
    return uniform_pair(length=300, domain_size=10, seed=42)


@pytest.fixture
def tiny_scale():
    """A miniature experiment scale for end-to-end figure tests."""
    return Scale(
        name="tiny",
        stream_length=400,
        window=30,
        weather_length=2500,
        weather_window=150,
        weather_warmup=300,
    )
