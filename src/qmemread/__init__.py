"""Readout of a collective single-excitation cold-atom quantum memory.

Closed-form photon wavepackets with an independent ODE cross-check,
cooperativity from ensemble geometry, detection-log statistics, and a
global least-squares fitting layer, all behind one CLI.
"""

__version__ = "0.1.0"

from .params import (DEFAULT_GAMMA_NAT_MHZ, DEFAULT_TAU_US, ParamError,
                     ReadoutParams, angular_to_mhz, mhz_to_angular,
                     rabi_from_intensity)
from .wavepacket import (AlphaPair, SweepCurve, WavepacketCurve, alpha_pair,
                         amplitude_B, detuning_spectrum, integrate_Pc, pc_at,
                         pc_curve, pc_integral, pc_integral_fixed,
                         saturation_curve)
from .dynamics import (AmplitudeTrajectory, IntegrationError, evolve,
                       reconstruct_B)
from .collective import (EnsembleGeometry, branching_ratio, chi_closed_form,
                         chi_monte_carlo, chi_quadrature, extraction_ceiling)
from .counting import (BinnedWavepacket, CorrelationSummary, EventStore,
                       SynthDesign, conditional_wavepacket, correlations,
                       ingest, probabilities, synthesize_log, write_log)
from .fitting import (Dataset, FitResult, RankDeficiencyError, fit,
                      model_eval, residuals)
