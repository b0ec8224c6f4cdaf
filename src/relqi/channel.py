"""Boost-induced effective qubit maps and their positivity audits.

The explicit decoherence channel
    rho' = rho (1 - G^2/4) + (sx rho sx + sy rho sy) G^2/8
is the leading-order image of the spin-up reduction under a collinear
boost with mixing parameter G.  It is exactly trace preserving and
completely positive for G <= 2.  General frame changes, however, act on
the traced-out momentum as well; the Doppler audit exhibits a pair
transformation that lowers the Helstrom error, which no completely
positive map can do.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import geometry, photon, qmatrix, spin_half
from .qmatrix import ID2, SIGMA_X, SIGMA_Y, QubitChannel

WITNESS_TOL = 1e-9
VERDICT_TEXT = (
    "no CP map on the 3x3 polarization state space can realize this pair transformation"
)


@dataclass(frozen=True)
class BoostChannelSpec:
    """Mixing strength and boost angle of the decoherence channel."""

    gamma: float
    theta: float = 0.0

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")


@dataclass(frozen=True)
class ChannelReport:
    """Unified audit record; fields irrelevant to a given audit stay None."""

    gamma: Optional[float] = None
    theta: Optional[float] = None
    is_cp: Optional[bool] = None
    is_tp: Optional[bool] = None
    min_choi_eig: Optional[float] = None
    trace_distance: Optional[float] = None
    pe_before: Optional[float] = None
    pe_after: Optional[float] = None
    verdict: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)


def decoherence_channel(gamma: float) -> QubitChannel:
    """Kraus form {sqrt(1 - G^2/4) I, G/sqrt(8) sx, G/sqrt(8) sy}."""
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if gamma > 2.0:
        raise ValueError("gamma > 2 makes the identity coefficient negative")
    return QubitChannel(
        kraus=[
            np.sqrt(1.0 - gamma * gamma / 4.0) * ID2,
            (gamma / np.sqrt(8.0)) * SIGMA_X,
            (gamma / np.sqrt(8.0)) * SIGMA_Y,
        ]
    )


def certify(spec: BoostChannelSpec) -> ChannelReport:
    """CP/TP report with the minimum Choi eigenvalue always included."""
    ch = decoherence_channel(spec.gamma)
    is_cp, min_eig = qmatrix.is_completely_positive(ch, tol=1e-12)
    return ChannelReport(
        gamma=spec.gamma,
        theta=spec.theta,
        is_cp=is_cp,
        is_tp=ch.is_trace_preserving(tol=1e-12),
        min_choi_eig=min_eig,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    gamma: float
    theta: float
    beta: float
    delta_over_m: float
    trace_distance: float
    ratio_gamma4: float
    grid_nodes: int


def consistency_check(
    spec: BoostChannelSpec,
    grid_resolution: int = spin_half.DEFAULT_NODES_PER_AXIS,
    beta: float = 0.6,
) -> ConsistencyReport:
    """Compare the channel image of spin-up with the boosted reduction.

    The boosted reduction of spin-up has Bloch vector T e_z, with T the
    Bloch matrix of spin_half.folded_wigner_kernel; the channel image has
    (0, 0, 1 - G^2/2).  The trace distance is half their separation.  Its
    z component is taken as G^2/2 - sum_n p_n 2(x_n^2 + y_n^2), with
    (x_n, y_n, z_n, w_n) the Wigner quaternions: 1 - (T e_z)_z without
    subtracting two numbers close to 1.

    The mixing parameter is realized at fixed `beta` by scaling the packet
    width, so the leading-order residual scales as gamma^4 for collinear
    boosts (theta = 0).  At other angles the channel's quadratic
    coefficient differs from the boosted one (the angular factor is
    (1 + cos^2 theta)/2), so the distance is reported, never asserted.
    """
    gamma, theta = spec.gamma, spec.theta
    if gamma == 0.0:
        return ConsistencyReport(gamma, theta, 0.0, 0.0, 0.0, 0.0, grid_resolution**3)
    delta_over_m = gamma / spin_half.gamma_parameter(1.0, 1.0, beta)
    probs, quats, odd = spin_half.folded_wigner_kernel(
        spin_half.boost_for_angle(beta, theta), delta_over_m, 1.0, grid_resolution
    )
    x, y = quats[:, 0], quats[:, 1]
    offset = probs @ (2.0 * (x * x + y * y))
    dx, dy = np.where(odd[:2, 2], 0.0, probs @ geometry.quaternion_z_images(quats)[:, :2])
    dist = 0.5 * float(np.linalg.norm([dx, dy, 0.5 * gamma * gamma - offset]))
    return ConsistencyReport(
        gamma=gamma,
        theta=theta,
        beta=beta,
        delta_over_m=delta_over_m,
        trace_distance=dist,
        ratio_gamma4=dist / gamma**4,
        grid_nodes=grid_resolution**3,
    )


def consistency_order(
    gammas=(0.05, 0.1, 0.2),
    theta: float = 0.0,
    grid_resolution: int = spin_half.DEFAULT_NODES_PER_AXIS,
    beta: float = 0.6,
) -> dict:
    """Residual-vs-gamma scaling study: distances, gamma^4 ratios, fitted order."""
    reports = [consistency_check(BoostChannelSpec(g, theta), grid_resolution, beta)
               for g in gammas]
    distances = np.array([r.trace_distance for r in reports])
    ratios = np.array([r.ratio_gamma4 for r in reports])
    logs = np.log(np.asarray(gammas))
    slope = np.polyfit(logs, np.log(distances), 1)[0]
    return {
        "gammas": list(gammas),
        "theta": theta,
        "distances": distances.tolist(),
        "ratios_gamma4": ratios.tolist(),
        "fitted_order": float(slope),
        "ratio_spread": float(ratios.max() / ratios.min()),
    }


def non_cp_witness(
    v: float,
    k_mean: float = 100.0,
    delta_z: float = 0.1,
    delta_r: float = 1.0,
    nodes_per_axis: int = photon.DEFAULT_NODES_PER_AXIS,
) -> ChannelReport:
    """Doppler distinguishability audit of the frame-change pair map.

    When the boosted-frame error exceeds the rest-frame one beyond
    tolerance, the error-lowering direction of the frame change (from the
    boosted pair back to the rest pair) beats the Helstrom monotonicity of
    completely positive maps, and the verdict fires.  A lowered boosted
    error proves nothing in this direction and leaves the verdict empty.
    """
    rep = photon.doppler_report(k_mean, delta_z, delta_r, v, nodes_per_axis)
    fired = rep.pe_boosted > rep.pe_rest + WITNESS_TOL
    return ChannelReport(
        is_cp=False if fired else None,
        pe_before=rep.pe_rest,
        pe_after=rep.pe_boosted,
        verdict=VERDICT_TEXT if fired else None,
    )
