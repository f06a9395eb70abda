"""Physical parameters, unit conventions and conversions.

Internal convention: angular frequencies in rad/us, times in us.  All
user-facing I/O uses ordinary frequency in MHz, time in ns and intensity
in mW/cm^2, which keeps internal exponents O(1) while matching how such
experiments are quoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

# Cs D2 natural linewidth, Gamma/(2pi) in MHz.  A documented default, needed
# to convert read intensity into a Rabi frequency; configurable everywhere.
DEFAULT_GAMMA_NAT_MHZ = 5.2

# Delay between the heralding detection and read turn-on, us.  The write
# pulse lasts 50 ns and reading starts right after it; configurable.
DEFAULT_TAU_US = 0.050


class ParamError(ValueError):
    """A parameter or domain invariant was violated; names the fields."""

    def __init__(self, fields, message=None):
        self.fields = tuple(fields)
        super().__init__(message or ("invalid parameter(s): " + ", ".join(self.fields)))


def mhz_to_angular(f_mhz):
    """Ordinary frequency in MHz -> angular frequency in rad/us (w = 2*pi*f)."""
    return TWO_PI * np.asarray(f_mhz, dtype=float) if np.ndim(f_mhz) else TWO_PI * float(f_mhz)


def angular_to_mhz(w):
    """Angular frequency in rad/us -> ordinary frequency in MHz."""
    return np.asarray(w, dtype=float) / TWO_PI if np.ndim(w) else float(w) / TWO_PI


def rabi_from_intensity(i_r, i_sat, gamma_nat):
    """Rabi frequency in rad/us for read intensity ``i_r`` in mW/cm^2.

    The transition saturates as (Omega/Gamma)^2 = I_r/(2 I_s), I_s = ``i_sat``
    in mW/cm^2 and Gamma = ``gamma_nat`` in rad/us.  ParamError names
    ``i_sat`` and/or ``gamma_nat`` unless finite and > 0, then ``i_r``.
    """
    bad = [name for name, v in (("i_sat", i_sat), ("gamma_nat", gamma_nat))
           if not (v > 0 and math.isfinite(v))]
    if bad:
        raise ParamError(bad)
    i_r_arr = np.asarray(i_r, dtype=float)
    if np.any(i_r_arr < 0) or not np.all(np.isfinite(i_r_arr)):
        raise ParamError(["i_r"], "read intensity must be finite and >= 0")
    out = gamma_nat * np.sqrt(i_r_arr / (2.0 * i_sat))
    return out if np.ndim(i_r) else float(out)


@dataclass(frozen=True)
class ReadoutParams:
    """All quantities entering the extracted-photon wavepacket.

    omega      : Rabi frequency of the read transition, rad/us, >= 0
    delta      : read detuning, rad/us, signed
    gamma_nat  : natural linewidth Gamma, rad/us, > 0
    chi        : cooperativity (collective decay enhancement), >= 1
    gamma_deph : Gaussian dephasing rate of the stored coherence, rad/us, >= 0
    tau        : delay between heralding detection and read turn-on, us, >= 0
    scale_f    : overall proportionality constant, >= 0

    Every value must be finite.  Construction and ``replace`` raise
    ParamError naming each field that breaks its bound.
    """

    omega: float
    delta: float
    gamma_nat: float = mhz_to_angular(DEFAULT_GAMMA_NAT_MHZ)
    chi: float = 1.0
    gamma_deph: float = 0.0
    tau: float = DEFAULT_TAU_US
    scale_f: float = 1.0

    def __post_init__(self):
        bad = []
        if not (math.isfinite(self.omega) and self.omega >= 0):
            bad.append("omega")
        if not math.isfinite(self.delta):
            bad.append("delta")
        if not (math.isfinite(self.gamma_nat) and self.gamma_nat > 0):
            bad.append("gamma_nat")
        if not (math.isfinite(self.chi) and self.chi >= 1):
            bad.append("chi")
        if not (math.isfinite(self.gamma_deph) and self.gamma_deph >= 0):
            bad.append("gamma_deph")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            bad.append("tau")
        if not (math.isfinite(self.scale_f) and self.scale_f >= 0):
            bad.append("scale_f")
        if bad:
            raise ParamError(bad)

    @property
    def chi_gamma(self) -> float:
        """Collectively enhanced decay rate chi*Gamma, rad/us."""
        return self.chi * self.gamma_nat

    def replace(self, **changes) -> "ReadoutParams":
        return replace(self, **changes)

    @classmethod
    def from_user_units(cls, *, delta_mhz, i_r_mw_cm2, i_sat_mw_cm2, chi=1.0,
                        gamma_deph_mhz=0.0, scale_f=1.0,
                        gamma_nat_mhz=DEFAULT_GAMMA_NAT_MHZ,
                        tau_ns=DEFAULT_TAU_US * 1e3) -> "ReadoutParams":
        """Build validated params from user-facing units.

        The Rabi frequency is that of the read intensity ``i_r_mw_cm2`` at
        the saturation intensity ``i_sat_mw_cm2`` (``rabi_from_intensity``).
        """
        gamma_nat = mhz_to_angular(gamma_nat_mhz)
        omega = rabi_from_intensity(i_r_mw_cm2, i_sat_mw_cm2, gamma_nat)
        return cls(omega=omega, delta=mhz_to_angular(delta_mhz),
                   gamma_nat=gamma_nat, chi=chi,
                   gamma_deph=mhz_to_angular(gamma_deph_mhz),
                   tau=tau_ns * 1e-3, scale_f=scale_f)
