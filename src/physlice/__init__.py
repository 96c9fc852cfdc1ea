"""Physical-layer slicing of OFDM symbols.

A recursive orthonormal split transform carves one OFDM symbol into slices
with ranked rate and decode latency, without channel knowledge at the
transmitter. The package provides the transform, the circulant channel
algebra behind it, slice planning and latency accounting, mutual-information
analysis with conservation diagnostics, an end-to-end baseband link, and a
CLI of Monte Carlo scenario presets.
"""

from .channel import (
    BUILTIN_PROFILES,
    EPA_PROFILE,
    ETU_PROFILE,
    ChannelImpulseResponse,
    ChannelProfile,
    CirculantChannel,
    build_circulant,
    draw_taps,
    extract_blocks,
    load_profile,
    negative_child,
    positive_child,
    profile_tap_count,
    sample_cir,
    split_coupling,
)
from .experiments import (
    EmpiricalCdf,
    ExperimentConfig,
    empirical_cdf,
    make_config,
    run_scenario,
)
from .mi import (
    MODE_EXACT,
    MODE_LITERAL,
    ChainMi,
    MiSplitReport,
    SnrSpec,
    chain_mi,
    deep_split_report,
    mi_fast,
    mi_logdet,
    split_report,
    uniformity_ratio,
)
from .sliceplan import (
    SliceDescriptor,
    SlicePlan,
    bins_for_slice,
    build_plan,
    decode_cost,
    plan_to_csv,
    total_cost,
)
from .spectral import dft, freq_response, idft, logdet2_psd
from .transform import (
    butterfly_mixer,
    forward_transform,
    inverse_transform,
    recursive_matrix,
    split_matrix,
)
from .txrx import (
    OfdmFrame,
    SlicePayload,
    demodulate,
    iterative_decode,
    modulate,
    propagate,
    receive,
    transmit,
    triangular_toeplitz_inverse,
)

__version__ = "0.1.0"
