"""Beam-coded in-packet beamforming training simulator for mmWave arrays."""

from .array_model import (
    ArrayConfig,
    BeamCodebook,
    dft_codebook,
    project_uniform,
    quantize_phases,
    sidelobe_level,
    steering_vector,
    superpose_beams,
)
from .beam_coding import GolayPair, coded_fields, decode_per_tap, golay_pair, walsh_codes
from .channel import (
    ChannelConfig,
    ChannelRealization,
    LinkBudget,
    Ray,
    add_noise,
    derive_seed,
    sample_channel,
    toy_channel,
    toy_codebooks,
)
from .experiment import ConfigError, ExperimentConfig, parse_config, serialize_config
from .metrics import aggregate_snr, empirical_cdf, power_ratio
from .packets import layout_80211ad, layout_beam_coding, power_trace, training_bits
from .protocols import ProtocolConfig, Scheme, TrainingOutcome, run

__version__ = "0.1.0"
