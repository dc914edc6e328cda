"""Rb-87 D1 Zeeman sublevel structure: enumeration, Zeeman shifts, dipole couplings.

Relative dipole amplitudes come from the standard hyperfine reduction

    amp ~ sqrt((2F+1)(2F'+1)) * 3j(F, 1, F'; m, q, -m') * 6j(J, J', 1; F', F, I)

with I = 3/2, J = J' = 1/2, normalized so the strongest pi amplitude on
F=2 -> F'=2 has magnitude 1 (b_{-2} <-> c_{-2}).  Signs follow the
Condon-Shortley phases of the 3-j/6-j symbols; only ratios of squared
amplitudes are observable in this model.
`LevelScheme.driven`, the couplings one beam drives, is the package's one
selection rule: the Hamiltonian, pump rates and probe terms all read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

from .angular import wigner3j, wigner6j

NUCLEAR_SPIN = Fraction(3, 2)  # Rb-87, fixed
J_GROUND = Fraction(1, 2)
J_EXCITED = Fraction(1, 2)

BOHR_MAGNETON_MHZ_PER_G = 1.399624
REDUCED_DIPOLE_CM = 2.537e-29  # D1 reduced dipole element, C*m
D1_WAVELENGTH_NM = 795.0
NATURAL_LINEWIDTH_MHZ = 5.75  # D1 excited-state linewidth


class Manifold(enum.Enum):
    """Hyperfine manifolds of the D1 system; value = (F, excited?)."""

    G1 = (1, False)  # 5S1/2 F=1, sublevels labeled a_m
    G2 = (2, False)  # 5S1/2 F=2, sublevels labeled b_m
    E1 = (1, True)   # 5P1/2 F'=1
    E2 = (2, True)   # 5P1/2 F'=2, sublevels labeled c_m

    @property
    def f(self) -> int:
        return self.value[0]

    @property
    def is_excited(self) -> bool:
        return self.value[1]

    @property
    def g_factor(self) -> Fraction:
        """Lande g_F, computed once per manifold (`_lande_g`)."""
        return _G_FACTORS[self]


def _lande_g(manifold: Manifold) -> Fraction:
    """g_J [F(F+1)+J(J+1)-I(I+1)] / (2F(F+1))."""
    g_j = Fraction(2) if not manifold.is_excited else Fraction(2, 3)
    f, j, i = Fraction(manifold.f), Fraction(1, 2), NUCLEAR_SPIN
    return g_j * (f * (f + 1) + j * (j + 1) - i * (i + 1)) / (2 * f * (f + 1))


_G_FACTORS = {manifold: _lande_g(manifold) for manifold in Manifold}


@dataclass(frozen=True, order=True)
class Sublevel:
    manifold: Manifold = field(compare=False)
    m: int = field(compare=False)
    sort_index: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if abs(self.m) > self.manifold.f:
            raise ValueError(f"|m|={abs(self.m)} exceeds F={self.manifold.f} for {self.manifold}")
        object.__setattr__(self, "sort_index", (self.manifold.is_excited, self.manifold.f, self.m))

    def __str__(self):
        tag = {Manifold.G1: "a", Manifold.G2: "b", Manifold.E2: "c", Manifold.E1: "e"}[self.manifold]
        return f"{tag}_{self.m:+d}"


def zeeman_shift(s: Sublevel, b_gauss: float) -> float:
    """Linear Zeeman shift in MHz for field b_gauss (G)."""
    if not (math.isfinite(b_gauss) and b_gauss >= 0):
        raise ValueError("magnetic field must be finite and >= 0")
    return float(s.manifold.g_factor) * BOHR_MAGNETON_MHZ_PER_G * b_gauss * s.m


# normalization anchor: |amp| of the pi transition b_-2 <-> c_-2
_NORM = None


def _raw_amplitude(lower: Sublevel, upper: Sublevel, q: int) -> float:
    f, fp = lower.manifold.f, upper.manifold.f
    tj = wigner3j(f, 1, fp, lower.m, q, -upper.m)
    sj = wigner6j(J_GROUND, J_EXCITED, 1, fp, f, NUCLEAR_SPIN)
    return ((2 * f + 1) * (2 * fp + 1)) ** 0.5 * tj * sj


def relative_dipole(lower: Sublevel, upper: Sublevel, q: int) -> float:
    """Relative dipole amplitude for lower -> upper with polarization q.

    Returns 0 for forbidden combinations (delta m != q, |delta F| > 1,
    or wrong manifold roles).  Normalized so max |amp| on G2->E2 pi is 1.
    """
    global _NORM
    if q not in (-1, 0, 1):
        raise ValueError(f"polarization q must be -1, 0 or +1, got {q}")
    if lower.manifold.is_excited or not upper.manifold.is_excited:
        raise ValueError("relative_dipole expects (ground, excited) sublevels")
    if upper.m - lower.m != q:
        return 0.0
    if abs(upper.manifold.f - lower.manifold.f) > 1:
        return 0.0
    if _NORM is None:
        _NORM = abs(_raw_amplitude(Sublevel(Manifold.G2, -2), Sublevel(Manifold.E2, -2), 0))
    return _raw_amplitude(lower, upper, q) / _NORM


@dataclass(frozen=True)
class LevelScheme:
    """Immutable sublevel basis with Zeeman shifts and dipole couplings."""

    sublevels: tuple
    zeeman: dict          # Sublevel -> MHz
    couplings: dict       # (lower, upper, q) -> relative amplitude (nonzero entries only)
    reduced_dipole: ClassVar[float] = REDUCED_DIPOLE_CM  # C*m, the same for every scheme

    def __post_init__(self):
        # sublevel -> position, derived rather than a field
        object.__setattr__(self, "_positions", {s: i for i, s in enumerate(self.sublevels)})

    @property
    def dim(self) -> int:
        return len(self.sublevels)

    def index(self, s: Sublevel) -> int:
        try:
            return self._positions[s]
        except KeyError:
            raise ValueError(f"{s} is not in the level scheme") from None

    def coupling(self, lower: Sublevel, upper: Sublevel, q: int) -> float:
        return self.couplings.get((lower, upper, q), 0.0)

    def driven(self, q: int, transition) -> list:
        """(lower index, upper index, amplitude) of each coupling that a beam
        of polarization q on transition = (ground manifold, excited manifold)
        drives, in the order of `couplings`."""
        gman, eman = transition
        pos = self._positions
        return [(pos[lo], pos[up], amp) for (lo, up, cq), amp in self.couplings.items()
                if cq == q and lo.manifold is gman and up.manifold is eman]

    def manifold_levels(self, manifold: Manifold):
        return [s for s in self.sublevels if s.manifold is manifold]

    def decay_channels(self):
        """Spontaneous-decay branching as (excited index, ground index, fraction),
        the fractions of each excited sublevel being its squared dipole
        amplitudes normalized over every dipole-allowed channel."""
        pos = self._positions
        strength = {}
        for (lo, up, _q), amp in self.couplings.items():
            strength.setdefault(up, []).append((lo, amp * amp))
        channels = []
        for up, lst in strength.items():
            total = sum(w for _, w in lst)
            channels.extend((pos[up], pos[lo], w / total) for lo, w in lst)
        return channels


def build_level_scheme(b_gauss: float = 0.0, include_e1: bool = False) -> LevelScheme:
    """Enumerate the 13-level (or 16-level, with F'=1) D1 system."""
    manifolds = [Manifold.G1, Manifold.G2, Manifold.E2]
    if include_e1:
        manifolds.append(Manifold.E1)
    sublevels = tuple(
        Sublevel(man, m) for man in manifolds for m in range(-man.f, man.f + 1)
    )
    zeeman = {s: zeeman_shift(s, b_gauss) for s in sublevels}
    couplings = {}
    for lo in sublevels:
        if lo.manifold.is_excited:
            continue
        for up in sublevels:
            if not up.manifold.is_excited:
                continue
            q = up.m - lo.m
            if q not in (-1, 0, 1):
                continue
            amp = relative_dipole(lo, up, q)
            if amp != 0.0:
                couplings[(lo, up, q)] = amp
    return LevelScheme(sublevels, zeeman, couplings)
