"""Shared fixtures for the test suite.

Expensive objects (the 170-bit torus group, the platform with its
cycle-accurate engines) are session-scoped; tests that need isolation build
their own throwaway instances at toy sizes.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.ecc.curves import generate_toy_curve
from repro.field.fp import PrimeField
from repro.field.fp6 import make_fp6
from repro.serve.protocol import read_frame
from repro.soc.system import Platform, PlatformConfig
from repro.torus.params import get_parameters
from repro.torus.t6 import T6Group


@pytest.fixture
def rng():
    """A deterministic RNG so failures are reproducible."""
    return random.Random(0xCE111D)


@pytest.fixture(scope="session")
def toy20_params():
    return get_parameters("toy-20")


@pytest.fixture(scope="session")
def toy32_params():
    return get_parameters("toy-32")


@pytest.fixture(scope="session")
def toy64_params():
    return get_parameters("toy-64")


@pytest.fixture(scope="session")
def ceilidh170_params():
    return get_parameters("ceilidh-170")


@pytest.fixture(scope="session")
def toy32_group(toy32_params):
    return T6Group(toy32_params, validate=True)


@pytest.fixture(scope="session")
def toy20_group(toy20_params):
    return T6Group(toy20_params, validate=True)


@pytest.fixture(scope="session")
def ceilidh170_group(ceilidh170_params):
    return T6Group(ceilidh170_params)


@pytest.fixture(scope="session")
def toy32_field(toy32_params):
    return PrimeField(toy32_params.p)


@pytest.fixture(scope="session")
def toy32_fp6(toy32_field):
    return make_fp6(toy32_field)


@pytest.fixture(scope="session")
def toy_curve():
    """A small curve (p = 1009) with exhaustively verified group order."""
    return generate_toy_curve(1009, random.Random(7))


@pytest.fixture(scope="session")
def platform():
    """A default platform shared by the SoC tests (engines are cached inside)."""
    return Platform()


@pytest.fixture(scope="session")
def small_platform():
    """A platform with a small word size for fast cycle-accurate runs."""
    return Platform(PlatformConfig(word_bits=16, num_cores=2))


async def _read_frames(chunks):
    reader = asyncio.StreamReader()

    async def arrive():
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)  # let the reader consume what arrived
        reader.feed_eof()

    arrival = asyncio.ensure_future(arrive())
    frames = []
    try:
        while (frame := await read_frame(reader)) is not None:
            frames.append(frame)
    finally:
        await arrival
    return frames


@pytest.fixture
def read_frames():
    """``await read_frames(chunks)``: every frame :func:`read_frame` returns
    from a stream on which ``chunks`` arrive one at a time, then EOF."""
    return _read_frames


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a longer end-to-end or large-parameter test"
    )
