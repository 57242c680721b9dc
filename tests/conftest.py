"""Shared helpers for the test suite."""

import numpy as np
import pytest

from rispilot import (
    ArrayModel,
    KnownBsRisChannel,
    LosChannel,
    PilotCampaign,
    expand_channel,
    ml_utility_profile,
    parametric_ml_estimate,
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


def _pilot_directions(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """The whole matrix V = B D_h A at once, one column per angle."""
    return campaign.config_matrix @ (
        campaign.bs_ris_channel.coefficients[:, None] * steering_matrix(array, angles)
    )


def direct_utility(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """ML objective per angle from the whole matrix V = B D_h A at once.

    A reference independent of the package's pilot-by-pilot accumulator:
    |y^H v|^2 / ||v||^2 per column v of V, and 0 where ||v|| is exactly 0.
    """
    directions = _pilot_directions(campaign, array, angles)
    inner = np.conj(campaign.received) @ directions
    energy = np.sum(np.abs(directions) ** 2, axis=0)
    return np.divide(
        np.abs(inner) ** 2, energy, out=np.zeros_like(energy), where=energy > 0.0
    )


def pilot_energy(campaign: PilotCampaign, array: ArrayModel, angles) -> np.ndarray:
    """||B D_h a(angle)||^2 per angle, from the whole matrix at once."""
    directions = _pilot_directions(campaign, array, angles)
    return np.sum(np.abs(directions) ** 2, axis=0)


#: A grid direction whose pilot energy is at most this share of the largest
#: one is near-null: its utility divides noise by almost nothing.
NEAR_NULL = 1e-9


def prefix_campaign(campaign: PilotCampaign, num_pilots: int) -> PilotCampaign:
    """The first ``num_pilots`` pilots of a campaign."""
    return PilotCampaign(
        campaign.config_matrix[:num_pilots],
        campaign.received[:num_pilots],
        campaign.pilot_power,
        campaign.bs_ris_channel,
    )


def assert_steps_match_batch(record, array: ArrayModel, grid) -> int:
    """Check every step of an adaptive run against the batch estimators.

    The loop projects through trial-independent tables, the batch
    estimators through D_h A per campaign, so the two agree to rounding:
    on each prefix the utilities agree to rtol 1e-12 (plus 1e-12 of the
    largest such utility, for values that cancel to ~0) on every direction
    with more than ``NEAR_NULL`` of the largest energy, and the angle,
    gain and phase agree at every step whose two argmaxes both lie on such
    directions. Returns how many steps were compared that way.
    """
    compared = 0
    for step in record.steps[1:]:
        prefix = prefix_campaign(record.campaign, step.pilot_index)
        energy = pilot_energy(prefix, array, grid.angles)
        lit = energy > NEAR_NULL * np.max(energy)
        batch_utility = ml_utility_profile(prefix, array, grid.angles)
        np.testing.assert_allclose(
            step.utility[lit], batch_utility[lit],
            rtol=1e-12, atol=1e-12 * np.max(batch_utility[lit]),
        )
        if not (lit[np.argmax(step.utility)] and lit[np.argmax(batch_utility)]):
            continue
        batch = parametric_ml_estimate(prefix, array, grid)
        assert batch.aoa_estimate == step.aoa_estimate
        assert batch.gain_estimate == pytest.approx(step.gain_estimate, rel=1e-12)
        assert circular_diff(batch.phase_estimate, step.phase_estimate) < 1e-12
        compared += 1
    return compared


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
