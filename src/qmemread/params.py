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

# The model's numeric domain, field -> (lo, hi, unit).  On it every closed
# form of ``wavepacket`` is finite: they multiply up to four rates and
# times, as in (|Delta| chi Gamma)^2 or (gamma^2 tau)^4, and P_c <= scale_f
# / (chi Gamma).  A horizon may also be infinite.
DOMAIN = {"omega": (0.0, 1e60, " rad/us"), "chi": (1.0, 1e20, ""),
          "delta": (-1e20, 1e20, " rad/us"), "scale_f": (0.0, 1e20, ""),
          "gamma_nat": (1e-20, 1e20, " rad/us"), "tau": (0.0, 1e20, " us"),
          "gamma_deph": (0.0, 1e20, " rad/us"), "t": (0.0, 1e20, " us"),
          "horizon": (1e-20, 1e20, " us, or inf")}


class ParamError(ValueError):
    """A parameter or domain invariant was violated; names the fields."""

    def __init__(self, fields, message=None):
        self.fields = tuple(fields)
        super().__init__(message or ("invalid parameter(s): " + ", ".join(self.fields)))


def _outside(kind, values):
    """The range DOMAIN[``kind``] as text if an element of ``values`` lies
    outside it (NaN does; an infinite horizon does not), else None."""
    lo, hi, unit = DOMAIN[kind]
    if isinstance(values, (int, float)):        # the common scalar, fast
        inside = lo <= values <= hi or (kind == "horizon" and values == math.inf)
    else:
        v = np.asarray(values, dtype=float)
        if kind == "horizon":
            v = v[v != math.inf]
        inside = v.size == 0 or lo <= v.min() and v.max() <= hi
    return None if inside else f"{kind} in [{lo:g}, {hi:g}]{unit}"


def _check_domain(need="need", **values):
    """Raise ParamError naming each of ``values`` (by its field of DOMAIN)
    with an element outside its range, the message ``need`` those ranges."""
    bad = [(name, text) for name, v in values.items()
           if (text := _outside(name, v))]
    if bad:
        raise ParamError([name for name, _ in bad],
                         f"{need} " + "; ".join(text for _, text in bad))


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
    ``i_sat`` and/or ``gamma_nat`` unless finite and > 0, then ``i_r``
    unless finite and >= 0 with Omega in ``DOMAIN`` (at most 1e60 rad/us).
    """
    _check_saturation(i_sat, gamma_nat)
    i_r_arr = np.asarray(i_r, dtype=float)
    if np.any(i_r_arr < 0) or not np.all(np.isfinite(i_r_arr)):
        raise ParamError(["i_r"], "read intensity must be finite and >= 0")
    with np.errstate(over="ignore"):
        out = _rabi(i_r_arr, i_sat, gamma_nat)
    if _outside("omega", out):
        raise ParamError(["i_r"], "read intensity gives a Rabi frequency above "
                         f"{DOMAIN['omega'][1]:g} rad/us at i_sat = {i_sat:g}")
    return out if np.ndim(i_r) else float(out)


def _check_saturation(i_sat, gamma_nat):
    """``rabi_from_intensity``'s check of ``i_sat`` and ``gamma_nat``."""
    bad = [name for name, v in (("i_sat", i_sat), ("gamma_nat", gamma_nat))
           if not (v > 0 and math.isfinite(v))]
    if bad:
        raise ParamError(bad)


def _rabi(i_r, i_sat, gamma_nat):
    """``rabi_from_intensity`` over a float array ``i_r``, with no checks."""
    return gamma_nat * np.sqrt(i_r / (2.0 * i_sat))


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

    Every value must lie in its range of ``DOMAIN``; construction and
    ``replace`` raise ParamError naming each field that does not.
    """

    omega: float
    delta: float
    gamma_nat: float = mhz_to_angular(DEFAULT_GAMMA_NAT_MHZ)
    chi: float = 1.0
    gamma_deph: float = 0.0
    tau: float = DEFAULT_TAU_US
    scale_f: float = 1.0

    def __post_init__(self):
        _check_domain(omega=self.omega, delta=self.delta,
                      gamma_nat=self.gamma_nat, chi=self.chi,
                      gamma_deph=self.gamma_deph, tau=self.tau,
                      scale_f=self.scale_f)

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
