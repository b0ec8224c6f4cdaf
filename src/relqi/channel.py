"""Boost-induced effective qubit maps and their positivity audits.

The explicit decoherence channel
    rho' = rho (1 - G^2/4) + (sx rho sx + sy rho sy) G^2/8
is the leading-order image of the spin-up reduction under a collinear
boost with mixing parameter G.  It is exactly trace preserving and
completely positive for G <= 2.  The consistency audit compares it with
the boosted reduction, whose Bloch vector e_z + D e_z comes from the
moments of spin_half.wigner_moments of tau = tanh(xi/2) n (no Lorentz
matrix).  General frame changes, however, act on the traced-out momentum
as well; the Doppler audit exhibits a pair transformation that lowers the
Helstrom error, which no completely positive map can do.

Each audit returns only what it computes, as plain values: `certify` a
dict of is_cp, is_tp and min_choi_eig, `consistency_check` the trace
distance, `non_cp_witness` a dict of the two pair errors and the verdict.
`relqi.cli` adds the inputs it echoes.
"""

from __future__ import annotations

import numpy as np

from . import photon, qmatrix, spin_half
from .qmatrix import ID2, SIGMA_X, SIGMA_Y, QubitChannel

WITNESS_TOL = 1e-9
CONSISTENCY_BETA = 0.6  # the boost speed of the consistency audit
VERDICT_TEXT = (
    "no CP map on the 3x3 polarization state space can realize this pair transformation"
)


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


def certify(gamma: float) -> dict:
    """is_cp, is_tp and min_choi_eig (always included) of decoherence_channel(gamma).

    The Choi matrix of a Kraus form {K_i} is sum_i |K_i>><<K_i|, so its
    nonzero eigenvalues are those of the Gram matrix G_ij = tr(K_i^dag K_j).
    The Kraus operators I, sx, sy are Hilbert-Schmidt orthogonal: G is
    diagonal, (2 - G^2/2, G^2/4, G^2/4), and the fourth Choi eigenvalue is
    exactly 0.  No eigen-solve is needed.
    """
    ch = decoherence_channel(gamma)
    min_eig = min(0.0, *(float(np.vdot(k, k).real) for k in ch.kraus_operators()))
    return {"is_cp": min_eig >= -qmatrix.CHANNEL_TOL, "is_tp": ch.is_trace_preserving(),
            "min_choi_eig": min_eig}


def consistency_check(
    gamma: float,
    theta: float = 0.0,
    grid_resolution: int = spin_half.DEFAULT_NODES_PER_AXIS,
) -> float:
    """Trace distance between the channel image of spin-up and the boosted reduction.

    The boosted reduction of spin-up has Bloch vector T e_z = e_z + D e_z,
    with D = T - I from spin_half.wigner_moments; the channel image has
    (0, 0, 1 - G^2/2).  The trace distance is half their separation,
    |(D_xz, D_yz, G^2/2 + D_zz)|/2, where -D_zz = 2 <x^2 + y^2> sums
    positive quaternion terms: 1 - (T e_z)_z without subtracting two
    numbers close to 1.

    The mixing parameter is realized at the fixed speed CONSISTENCY_BETA by
    scaling the packet width to delta/m = gamma / tanh(xi/2), with the boost
    tau = tanh(xi/2) (sin theta, 0, cos theta), so the leading-order residual scales as
    gamma^4 for collinear boosts (theta = 0).  At other angles the
    channel's quadratic coefficient differs from the boosted one (the
    angular factor is (1 + cos^2 theta)/2), so the distance is reported,
    never asserted.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        return 0.0
    t = spin_half.tanh_half_rapidity(CONSISTENCY_BETA)
    tau = (t * np.sin(theta), 0.0, t * np.cos(theta))
    d, _ = spin_half.wigner_moments(tau, gamma / t, grid_resolution)
    return 0.5 * float(np.linalg.norm([d[0, 2], d[1, 2], 0.5 * gamma * gamma + d[2, 2]]))


def consistency_order(
    gammas=(0.05, 0.1, 0.2),
    theta: float = 0.0,
    grid_resolution: int = spin_half.DEFAULT_NODES_PER_AXIS,
) -> dict:
    """Residual-vs-gamma scaling study: distances, gamma^4 ratios, fitted order."""
    distances = np.array([consistency_check(g, theta, grid_resolution) for g in gammas])
    ratios = distances / np.asarray(gammas) ** 4
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
) -> dict:
    """Doppler distinguishability audit of the frame-change pair map.

    Returns the pair errors pe_before (rest frame) and pe_after (boosted
    frame) and the verdict.  When the boosted-frame error exceeds the
    rest-frame one beyond tolerance, the error-lowering direction of the
    frame change (from the boosted pair back to the rest pair) beats the
    Helstrom monotonicity of completely positive maps, and the verdict
    fires.  A lowered boosted error proves nothing in this direction and
    leaves the verdict empty.
    """
    rep = photon.doppler_report(k_mean, delta_z, delta_r, v, nodes_per_axis)
    fired = rep["pe_boosted"] > rep["pe_rest"] + WITNESS_TOL
    return {"pe_before": rep["pe_rest"], "pe_after": rep["pe_boosted"],
            "verdict": VERDICT_TEXT if fired else None}
