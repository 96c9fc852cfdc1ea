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
    ChannelProfile,
    draw_taps,
    load_profile,
    negative_child,
    positive_child,
    profile_tap_count,
    sample_cir,
    split_coupling,
)
from .experiments import (
    ExperimentConfig,
    make_config,
    run_scenario,
)
from .mi import (
    MODE_EXACT,
    MODE_LITERAL,
    ChainMi,
    chain_mi,
    mi_fast,
    split_report,
    uniformity_ratio,
)
from .sliceplan import (
    SliceDescriptor,
    SlicePlan,
    bins_for_slice,
    build_plan,
    decode_cost,
    total_cost,
)
from .spectral import dft, freq_response, idft, logdet2_psd
from .transform import (
    butterfly_mixer,
    forward_transform,
    inverse_transform,
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
