"""Boost-induced effective qubit maps and their positivity audits.

The explicit decoherence channel
    rho' = rho (1 - G^2/4) + (sx rho sx + sy rho sy) G^2/8
is the leading-order image of the spin-up reduction under a collinear
boost with mixing parameter G.  It is exactly trace preserving and
completely positive for G <= 2.  The consistency audit compares it with
the boosted reduction, whose Bloch vector is a closed form of the one
scalar s = <sin^2(omega/2)> of spin_half.wigner_moments at
tau = tanh(xi/2) n (no Lorentz matrix).  General frame changes, however,
act on the traced-out momentum as well; the Doppler audit exhibits a pair
transformation that lowers the Helstrom error, which no completely
positive map can do.

Each audit returns only what it computes, as plain values: `certify` a
dict of is_cp, is_tp and min_choi_eig, `consistency_check` the trace
distance, `non_cp_witness` a dict of the two pair errors and the verdict.
`relqi.cli` adds the inputs it echoes.  `certify` reads the channel's
Kraus weights (1 - G^2/4, G^2/8, G^2/8) and builds no QubitChannel;
`decoherence_channel` builds one from the same weights, for library
callers and as the tests' oracle.
"""

from __future__ import annotations

import math

from . import photon, qmatrix, spin_half, wavepacket
from ._numpy import np
from .qmatrix import QubitChannel

WITNESS_TOL = 1e-9
CONSISTENCY_BETA = 0.6  # the boost speed of the consistency audit
VERDICT_TEXT = (
    "no CP map on the 3x3 polarization state space can realize this pair transformation"
)


def _kraus_weights(gamma: float):
    """(1 - G^2/4, G^2/8, G^2/8): the squared coefficients of the Kraus operators I, sx, sy."""
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if gamma > 2.0:
        raise ValueError("gamma > 2 makes the identity coefficient negative")
    g2 = gamma * gamma
    return 1.0 - g2 / 4.0, g2 / 8.0, g2 / 8.0


def decoherence_channel(gamma: float) -> QubitChannel:
    """Kraus form {sqrt(1 - G^2/4) I, G/sqrt(8) sx, G/sqrt(8) sy}."""
    paulis = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                       [[0.0, -1.0j], [1.0j, 0.0]]])
    return QubitChannel(kraus=[np.sqrt(w) * op for w, op in zip(_kraus_weights(gamma), paulis)])


def certify(gamma: float) -> dict:
    """is_cp, is_tp and min_choi_eig (always included) of decoherence_channel(gamma).

    The Choi matrix of a Kraus form {K_i} is sum_i |K_i>><<K_i|, so its
    nonzero eigenvalues are those of the Gram matrix G_ij = tr(K_i^dag K_j).
    The Kraus operators sqrt(w_i) P_i, with P_i = I, sx, sy, are
    Hilbert-Schmidt orthogonal: G is diagonal, 2 w_i = (2 - G^2/2, G^2/4,
    G^2/4), and the fourth Choi eigenvalue is exactly 0.  Since
    P_i^dag P_i = I, sum_i K_i^dag K_i = (sum_i w_i) I.  No channel is built.
    """
    weights = _kraus_weights(gamma)
    min_eig = min(0.0, *(2.0 * w for w in weights))
    return {"is_cp": min_eig >= -qmatrix.CHANNEL_TOL,
            "is_tp": abs(sum(weights) - 1.0) <= qmatrix.CHANNEL_TOL, "min_choi_eig": min_eig}


def consistency_check(
    gamma: float,
    theta: float = 0.0,
    nodes_per_axis: int = wavepacket.DEFAULT_NODES_PER_AXIS,
) -> float:
    """Trace distance between the channel image of spin-up and the boosted reduction.

    The boosted reduction of spin-up has Bloch vector T e_z, with
    T = R diag(1 - s, 1 - s, 1 - 2s) R^T, R turning z onto the boost
    direction (sin theta, 0, cos theta) and s = <sin^2(omega/2)> from
    spin_half.wigner_moments; the channel image has (0, 0, 1 - G^2/2), so
    the distance is |(s sin theta cos theta, 0, G^2/2 - s (1 + cos^2 theta))|/2.

    The mixing parameter is realized at the fixed speed CONSISTENCY_BETA by
    scaling the packet width to delta/m = gamma / tanh(xi/2), so the
    leading-order residual scales as gamma^4 for collinear boosts
    (theta = 0).  At other angles the channel's quadratic coefficient
    differs from the boosted one (the angular factor is
    (1 + cos^2 theta)/2), so the distance is reported, never asserted.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        return 0.0
    t = spin_half.tanh_half_rapidity(CONSISTENCY_BETA)
    sin, cos = math.sin(theta), math.cos(theta)
    _, s = spin_half.wigner_moments((t * sin, 0.0, t * cos), gamma / t, nodes_per_axis)
    x, z = s * sin * cos, 0.5 * gamma * gamma - s * (1.0 + cos * cos)
    return 0.5 * math.sqrt(x * x + z * z)


def non_cp_witness(
    v: float,
    k_mean: float = 100.0,
    delta_z: float = 0.1,
    delta_r: float = 1.0,
    nodes_per_axis: int = wavepacket.DEFAULT_NODES_PER_AXIS,
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
