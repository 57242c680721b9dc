"""Shared helpers for the test suite."""

import numpy as np
import pytest

from rispilot import (
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    PilotCampaign,
    expand_channel,
)
from rispilot.checks import circular_diff, pool_config_rows  # noqa: F401


def make_campaign(
    rows: np.ndarray,
    h: KnownBsRisChannel,
    channel: LosChannel,
    array: ArrayModel,
    pilot_power: float,
    noise_std: float = 0.0,
    rng=None,
) -> PilotCampaign:
    """Simulate a whole campaign at once: y = B D_h g sqrt(P_p) + w."""
    g = expand_channel(channel, array)
    received = rows @ (h.coefficients * g) * np.sqrt(pilot_power)
    if noise_std > 0:
        rng = np.random.default_rng(rng)
        noise = rng.standard_normal(rows.shape[0]) + 1j * rng.standard_normal(
            rows.shape[0]
        )
        received = received + noise * (noise_std / np.sqrt(2.0))
    return PilotCampaign(rows, received, pilot_power, h)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
