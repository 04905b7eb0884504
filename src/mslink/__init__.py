"""mslink: deterministic simulator of a programmable-metasurface QPSK link.

Transmitter physics (varactor-tuned unit cells -> reflection constellation),
frame synthesis, channel impairments, and a conventional SC-FDE receiver,
plus a Monte-Carlo experiment harness.
"""

from .circuit import (CircuitParams, GammaLUT, VaractorModel,
                      build_gamma_lut, default_gamma_lut, load_impedance,
                      reflection_coefficient, select_control_voltages,
                      varactor_capacitance)
from .surface import ArrayConfig, aggregate_reflection, modulated_power_ratio_db
from .txchain import (BasebandSignal, Constellation, FrameLayout, build_frame,
                      build_pilot_sequence, build_sync_sequence,
                      demap_symbols, ideal_qpsk, impaired_qpsk,
                      map_bits_to_symbols, synthesize_baseband,
                      synthesize_passband)
from .channel import ChannelConfig, apply_channel
from .rxchain import (RxDiagnostics, SyncResult, correct_cfo,
                      derotate_and_dump, estimate_cfo_cp, frame_sync,
                      integrate_and_dump, ls_channel_estimate,
                      ls_channel_estimate_taps, receive_frame, zf_equalize)
from .harness import (BerRecord, ExperimentConfig, compare_architectures,
                      measure_link_snr, receive_file, receive_stream,
                      run_ber_sweep, run_frame, snr_at_ber,
                      theoretical_qpsk_ber, transmit_file, write_ber_csv)

__version__ = "0.1.0"
