"""Units, structure descriptions, wavenumber handling and the exports."""

import types

import pytest

import bilayer1d
from bilayer1d import (
    DoubleLayerSpec,
    UnitSystem,
    Wavenumber,
    as_wavenumber,
    convert_energy,
    validate_spec,
)
from bilayer1d.core import EV_TO_INV_NM2


def test_energy_conversion_constant():
    assert EV_TO_INV_NM2 == 2.62464
    assert convert_energy(1.0) == 2.62464
    assert convert_energy(-0.5) == -1.31232


def test_energy_conversion_with_custom_system():
    system = UnitSystem(ev_to_inv_nm2=2.0)
    assert convert_energy(3.0, system) == 6.0


def test_from_ev_equals_make_with_converted_depths():
    a = DoubleLayerSpec.from_ev(0.5, 1.0, -0.5, 0.6, 2.0)
    b = DoubleLayerSpec.make(
        convert_energy(0.5), 1.0, convert_energy(-0.5), 0.6, 2.0
    )
    assert a == b
    assert a.v1 == pytest.approx(1.31232)
    assert a.v2 == pytest.approx(-1.31232)


def test_extent_sums_widths_and_gap():
    spec = DoubleLayerSpec.make(1.0, 1.5, -2.0, 0.25, 0.75)
    assert spec.extent == pytest.approx(1.5 + 0.25 + 0.75)


def test_validate_spec_accepts_degenerate_widths():
    validate_spec(DoubleLayerSpec.make(1.0, 0.0, -1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "fields",
    [
        (1.0, -0.5, -1.0, 0.5, 0.3),
        (1.0, 0.5, -1.0, -0.5, 0.3),
        (1.0, 0.5, -1.0, 0.5, -0.3),
    ],
)
def test_validate_spec_rejects_negative_lengths(fields):
    with pytest.raises(ValueError):
        validate_spec(DoubleLayerSpec.make(*fields))


def test_real_wavenumber_properties():
    wn = as_wavenumber(1.2)
    assert wn.is_real
    assert wn.k == pytest.approx(1.2)
    assert wn.k2 == pytest.approx(1.44)
    assert Wavenumber.real(1.2) == wn


def test_bound_wavenumber_properties():
    wn = Wavenumber.bound(0.5)
    assert not wn.is_real
    assert wn.kappa == pytest.approx(0.5)
    assert wn.k2 == pytest.approx(-0.25)
    assert as_wavenumber(0.5j) == wn


def test_wavenumber_passthrough():
    wn = as_wavenumber(0.7)
    assert as_wavenumber(wn) is wn


@pytest.mark.parametrize("bad", [1 + 1j, -1.0, 0.0, -0.5j])
def test_wavenumber_rejects_off_axis_values(bad):
    with pytest.raises(ValueError):
        as_wavenumber(bad)


def test_exports_resolve_and_list_every_public_name():
    exported = bilayer1d.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(bilayer1d, name), name
    public = {name for name, value in vars(bilayer1d).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(exported), sorted(public - set(exported))
