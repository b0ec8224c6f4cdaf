"""Relativistic quantum information numerics.

Lorentz/Wigner transformations of momentum wave packets for massive
spin-1/2 particles and photons, frame-dependent reduced density matrices
and entropies, minimum-error distinguishability, the photon-polarization
POVM, boost dependence of two-particle entanglement, and
complete-positivity audits of boost-induced effective channels.
"""

from . import channel, entangle, geometry, photon, qmatrix, spin_half, wavepacket
from .channel import consistency_order
from .entangle import (
    TwoParticleAmplitude,
    bell_gaussian,
    boost_pair,
    concurrence,
    spin_spin_density,
)
from .geometry import (
    boost_from_velocity,
    observer_boost,
    rotations_to_su2,
    standard_boost,
    standard_rotation_batch,
    wigner_rotation_batch,
)
from .photon import (
    PhotonPacket,
    PolarizationPOVM,
    boost_photon,
    build_povm,
    circular_density,
    circular_pair_error,
    doppler_report,
    effective_density,
    effective_density_tomography,
    gaussian_beam,
    orthogonality_audit,
    rotate_packet,
    transversal_b,
)
from .qmatrix import (
    QubitChannel,
    choi_matrix,
    entropy,
    helstrom_error,
    is_completely_positive,
    partial_trace,
)
from .spin_half import (
    SpinorPacket,
    boost_packet,
    boosted_pair,
    gamma_parameter,
    gaussian_packet,
    reduced_spin_density,
)
from .wavepacket import GaussianSpec, Measure, MomentumGrid, NumericalError, gauss_grid

__version__ = "0.1.0"
