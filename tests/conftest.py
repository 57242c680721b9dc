"""Shared helpers for the test suite."""

import numpy as np
import pytest

from rispilot import (
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    PilotCampaign,
    expand_channel,
    steering_matrix,
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


def direct_utility(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """ML objective per angle from the whole matrix V = B D_h A at once.

    A reference independent of the package's pilot-by-pilot accumulator:
    |y^H v|^2 / ||v||^2 per column v of V, and 0 where ||v|| is exactly 0.
    """
    directions = campaign.config_matrix @ (
        campaign.bs_ris_channel.coefficients[:, None] * steering_matrix(array, angles)
    )
    inner = np.conj(campaign.received) @ directions
    energy = np.sum(np.abs(directions) ** 2, axis=0)
    return np.divide(
        np.abs(inner) ** 2, energy, out=np.zeros_like(energy), where=energy > 0.0
    )


def utility_db(utility: np.ndarray) -> np.ndarray:
    """10 log10 of a utility profile, -inf where it is 0, as the trace CSV has it."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(utility)


def local_peak_indices(values) -> np.ndarray:
    """Indices of strict local maxima, boundaries included."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("values must be 1-D")
    if v.size <= 1:
        return np.arange(v.size)
    left = np.empty(v.size, dtype=bool)
    right = np.empty(v.size, dtype=bool)
    left[0] = True
    left[1:] = v[1:] > v[:-1]
    right[-1] = True
    right[:-1] = v[:-1] > v[1:]
    return np.nonzero(left & right)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
