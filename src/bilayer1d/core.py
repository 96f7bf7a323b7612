"""Units and self-checking descriptions of the two-layer structure.

Lengths are nanometres, inverse-length-squared energies throughout.  The
stationary wave equation is -psi'' + V psi = k^2 psi, so potentials and
k^2 both carry nm^-2.  Electron-volt inputs are converted once at the
boundary with the fixed factor below (effective mass 0.1 m_e).

A DoubleLayerSpec checks its five numbers when it is built (finite, and
no negative width or gap), so a function that takes a spec needs no
check of its own; Wavenumber checks itself the same way.
"""

from dataclasses import dataclass
import math

EV_TO_INV_NM2 = 2.62464


@dataclass(frozen=True)
class DoubleLayerSpec:
    """Slabs of height v1, v2 (nm^-2) and width l1, l2 (nm), separated by a
    zero-potential gap of width r (nm).

    The structure occupies [0, l1 + r + l2]; outside it the potential
    vanishes.  Widths may be zero (degenerate single-layer cases).  Every
    field must be finite and l1, l2, r must be >= 0; construction raises
    ValueError naming the offending field, so every spec is valid.
    """

    v1: float
    l1: float
    v2: float
    l2: float
    r: float

    def __post_init__(self):
        for name in ("v1", "l1", "v2", "l2", "r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"spec field {name} is not finite: {value!r}")
            if value < 0 and name in ("l1", "l2", "r"):
                raise ValueError(f"spec field {name} must be >= 0, got {value!r}")

    @classmethod
    def make(cls, v1, l1, v2, l2, r):
        return cls(v1, l1, v2, l2, r)

    @classmethod
    def from_ev(cls, v1_ev, l1, v2_ev, l2, r):
        return cls(v1_ev * EV_TO_INV_NM2, l1, v2_ev * EV_TO_INV_NM2, l2, r)

    @property
    def extent(self):
        """Total width l1 + r + l2."""
        return self.l1 + self.r + self.l2


@dataclass(frozen=True)
class Wavenumber:
    """Spectral parameter: either real k > 0 or purely imaginary i*kappa.

    Real k describes scattering at energy k^2, imaginary k = i*kappa with
    kappa > 0 probes the bound-state half line at energy -kappa^2.
    """

    k: complex

    def __post_init__(self):
        k = complex(self.k)
        real_ok = k.imag == 0.0 and k.real > 0.0
        imag_ok = k.real == 0.0 and k.imag > 0.0
        if not (real_ok or imag_ok):
            raise ValueError(
                "wavenumber must be real positive or i*kappa with kappa > 0, "
                f"got {k!r}"
            )
        k2 = k * k
        shown = k.real if real_ok else k  # a real k as the float it is
        if k2 == 0.0:
            raise ValueError(f"wavenumber {shown!r} is too small: its square underflows to 0")
        if math.isinf(k2.real):
            raise ValueError(f"wavenumber {shown!r} is too large: its square overflows")
        object.__setattr__(self, "k", k)

    @classmethod
    def bound(cls, kappa):
        return cls(complex(0.0, kappa))

    @property
    def is_real(self):
        return self.k.imag == 0.0

    @property
    def k2(self):
        """k^2 as a real number (negative on the bound half line)."""
        return (self.k * self.k).real

    @property
    def kappa(self):
        if self.is_real:
            raise ValueError("kappa is defined only for imaginary wavenumbers")
        return self.k.imag


def as_wavenumber(k):
    """Coerce a float, complex or Wavenumber into a Wavenumber."""
    if isinstance(k, Wavenumber):
        return k
    return Wavenumber(complex(k))
