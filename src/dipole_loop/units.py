"""SI <-> natural-unit conversion used at the CLI boundary.

Internally everything is computed in natural units (hbar = c = eps0 =
mu0 = 1) with one base energy scale, 1 eV by default. The converter
exposes the handful of quantities the configuration accepts in SI.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["UnitSystem", "QUANTITIES"]

# CODATA 2018 exact/recommended values
HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m / s
EPS0_SI = 8.8541878128e-12  # F / m
EV_SI = 1.602176634e-19  # J

QUANTITIES = (
    "mass",
    "length",
    "volume",
    "time",
    "angular_frequency",
    "energy",
    "electric_field",
    "dipole_moment",
)


@dataclass(frozen=True)
class UnitSystem:
    """Conversion between SI values and natural-unit values.

    mode selects how CLI inputs are interpreted; conversion factors are
    fixed by (hbar, c, eps0) and the base energy scale.
    """

    mode: str = "natural"
    base_energy_ev: float = 1.0

    def __post_init__(self):
        if self.mode not in ("natural", "SI"):
            raise ValueError(f"mode must be 'natural' or 'SI', got {self.mode!r}")
        if self.base_energy_ev <= 0:
            raise ValueError("base energy must be positive")

    # base scales in SI for one natural unit of each quantity
    def _scale(self, quantity: str) -> float:
        e_star = self.base_energy_ev * EV_SI  # J per natural energy unit
        length_star = HBAR_SI * C_SI / e_star  # m per natural length unit
        if quantity == "energy":
            return e_star
        if quantity == "mass":
            return e_star / C_SI**2
        if quantity == "length":
            return length_star
        if quantity == "volume":
            return length_star**3
        if quantity == "time":
            return HBAR_SI / e_star
        if quantity == "angular_frequency":
            return e_star / HBAR_SI
        if quantity == "electric_field":
            # fixed by energy density eps0 E^2 <-> E_nat^2 per length_star^3
            return (e_star / (EPS0_SI * length_star**3)) ** 0.5
        if quantity == "dipole_moment":
            # d E is an energy in both systems
            return e_star / self._scale("electric_field")
        raise ValueError(f"unknown quantity {quantity!r}; expected one of {QUANTITIES}")

    def to_natural(self, value: float, quantity: str) -> float:
        """SI value -> natural-unit value."""
        return value / self._scale(quantity)

    def to_si(self, value: float, quantity: str) -> float:
        """Natural-unit value -> SI value."""
        return value * self._scale(quantity)
