import math

import numpy as np
import pytest

from qmemread import (DEFAULT_GAMMA_NAT_MHZ, ParamError, ReadoutParams,
                      angular_to_mhz, mhz_to_angular, rabi_from_intensity)

GAMMA = mhz_to_angular(DEFAULT_GAMMA_NAT_MHZ)


class TestRabiFromIntensity:
    def test_twice_saturation_gives_gamma(self):
        assert rabi_from_intensity(2 * 7.3, 7.3, GAMMA) == pytest.approx(GAMMA, rel=1e-15)

    def test_quoted_saturation_intensity(self):
        # I_s = 12 mW/cm^2: 24 mW/cm^2 drives exactly at the linewidth
        assert rabi_from_intensity(24.0, 12.0, GAMMA) == pytest.approx(GAMMA, rel=1e-15)

    def test_zero_intensity(self):
        assert rabi_from_intensity(0.0, 12.0, GAMMA) == 0.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ParamError) as exc:
            rabi_from_intensity(-1.0, 12.0, GAMMA)
        assert exc.value.fields == ("i_r",)
        assert str(exc.value) == "read intensity must be finite and >= 0"

    def test_halving_property(self):
        # Omega(i)^2 / Omega(2i)^2 = 1/2 up to float error
        rng = np.random.default_rng(3)
        for i_r in rng.uniform(0.01, 500.0, 50):
            lo = rabi_from_intensity(i_r, 12.0, GAMMA) ** 2
            hi = rabi_from_intensity(2 * i_r, 12.0, GAMMA) ** 2
            assert abs(lo / hi - 0.5) <= 1e-14

    def test_gamma_nat_is_required(self):
        # Gamma comes from the caller's ReadoutParams; no second default
        with pytest.raises(TypeError):
            rabi_from_intensity(24.0, 12.0)

    def test_monotone(self):
        vals = rabi_from_intensity(np.linspace(0, 200, 100), 12.0, GAMMA)
        assert np.all(np.diff(vals) > 0)


class TestAngularConversion:
    def test_zero(self):
        assert mhz_to_angular(0.0) == 0.0

    def test_quoted_detunings(self):
        assert mhz_to_angular(1.7) == pytest.approx(10.6814, abs=1e-4)
        assert mhz_to_angular(25.7) == pytest.approx(2 * math.pi * 25.7, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for f in rng.uniform(1e-6, 1e4, 200):
            back = angular_to_mhz(mhz_to_angular(f))
            assert abs(back - f) / f <= 1e-14


class TestValidate:
    def good(self):
        return ReadoutParams(omega=10.0, delta=-5.0, gamma_nat=GAMMA, chi=2.7,
                             gamma_deph=9.7, tau=0.05, scale_f=4.1)

    def test_accepts_valid(self):
        p = self.good()
        assert p.replace() == p

    def test_chi_below_one_rejected_by_name(self):
        with pytest.raises(ParamError) as exc:
            self.good().replace(chi=0.5)
        assert exc.value.fields == ("chi",)

    def test_zero_linewidth_rejected(self):
        with pytest.raises(ParamError) as exc:
            ReadoutParams(omega=10.0, delta=-5.0, gamma_nat=0.0)
        assert exc.value.fields == ("gamma_nat",)

    def test_multiple_violations_all_named(self):
        with pytest.raises(ParamError) as exc:
            self.good().replace(omega=-1.0, tau=-2.0, scale_f=-0.1)
        assert set(exc.value.fields) == {"omega", "tau", "scale_f"}

    def test_nan_rejected(self):
        with pytest.raises(ParamError) as exc:
            ReadoutParams(omega=10.0, delta=math.nan)
        assert exc.value.fields == ("delta",)

    def test_negative_delta_allowed(self):
        assert self.good().replace(delta=-100.0).delta == -100.0


class TestFromUserUnits:
    def test_paper_style_inputs(self):
        p = ReadoutParams.from_user_units(delta_mhz=1.7, chi=2.7,
                                          gamma_deph_mhz=1.55, scale_f=4.1,
                                          i_r_mw_cm2=95.0, i_sat_mw_cm2=12.0)
        assert p.delta == pytest.approx(mhz_to_angular(1.7))
        assert p.omega == pytest.approx(GAMMA * math.sqrt(95.0 / 24.0))
        assert p.tau == pytest.approx(0.05)

    def test_intensity_requires_i_sat(self):
        # the drive is a read intensity, which needs a valid i_sat
        with pytest.raises(TypeError, match="i_sat_mw_cm2"):
            ReadoutParams.from_user_units(delta_mhz=0.0, i_r_mw_cm2=10.0)
        with pytest.raises(ParamError) as exc:
            ReadoutParams.from_user_units(delta_mhz=0.0, i_r_mw_cm2=10.0,
                                          i_sat_mw_cm2=0.0)
        assert exc.value.fields == ("i_sat",)

    def test_intensity_model_validation(self):
        # i_sat and gamma_nat are checked, and named together, before i_r
        for i_sat, gamma_nat, fields in (
                (0.0, GAMMA, ("i_sat",)), (math.inf, GAMMA, ("i_sat",)),
                (12.0, -1.0, ("gamma_nat",)), (12.0, math.nan, ("gamma_nat",)),
                (-12.0, 0.0, ("i_sat", "gamma_nat"))):
            with pytest.raises(ParamError) as exc:
                rabi_from_intensity(-1.0, i_sat, gamma_nat)
            assert exc.value.fields == fields
            assert str(exc.value) == ("invalid parameter(s): "
                                      + ", ".join(fields))
