"""Tilted periodic potentials and physical parameters.

A particle with friction ``gamma`` at inverse temperature ``beta`` moves in a
periodic potential V(q) tilted by a constant force F, i.e. in the effective
potential V(q) - F*q.  Potentials are finite trigonometric polynomials in the
fundamental frequency 2*pi/L, which is what the spectral machinery downstream
requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Harmonic",
    "PeriodicPotential",
    "ModelParams",
    "ReferenceScales",
    "reference_scales",
]


def _as_float_tuple(xs) -> tuple[float, ...]:
    return tuple(float(x) for x in xs)


def _scalar(x: float) -> np.ndarray:
    """x as a read-only 0-d array, which ufuncs take faster than a float (same bits)."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


class Harmonic(NamedTuple):
    """One nonzero term a*cos(k w1 q) or a*sin(k w1 q) of a potential, as 0-d arrays."""

    freq: np.ndarray    # k*w1
    coeff: np.ndarray   # a, the coefficient in V
    slope: np.ndarray   # a*k*w1, the amplitude of the term's derivative
    neg_slope: np.ndarray   # -a*k*w1, for a cosine term that opens V'


@dataclass(frozen=True)
class PeriodicPotential:
    """Periodic potential V(q) = sum_k c_k cos(k w1 q) + s_k sin(k w1 q) + offset.

    ``w1 = 2*pi/period`` is the fundamental frequency; ``cos_coeffs[k-1]`` and
    ``sin_coeffs[k-1]`` are the coefficients of harmonic k.  The offset is kept
    for evaluation but never enters the dynamics (only V' does, and the
    stationary density normalizes it away).
    """

    period: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", _as_float_tuple(self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", _as_float_tuple(self.sin_coeffs))
        object.__setattr__(self, "period", float(self.period))
        object.__setattr__(self, "offset", float(self.offset))
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        for c in (*self.cos_coeffs, *self.sin_coeffs, self.offset):
            if not math.isfinite(c):
                raise ValueError("potential coefficients must be finite")

    @classmethod
    def cosine(cls, amplitude: float, period: float) -> "PeriodicPotential":
        """Single-cosine potential V(q) = amplitude * cos(2*pi*q/period)."""
        return cls(period=period, cos_coeffs=(amplitude,))

    @property
    def omega1(self) -> float:
        return 2.0 * np.pi / self.period

    @property
    def n_harmonics(self) -> int:
        """Index of the highest harmonic carrying a nonzero coefficient."""
        k = 0
        for i, c in enumerate(self.cos_coeffs):
            if c != 0.0:
                k = max(k, i + 1)
        for i, s in enumerate(self.sin_coeffs):
            if s != 0.0:
                k = max(k, i + 1)
        return k

    @cached_property
    def harmonics(self) -> tuple[tuple[Harmonic, ...], tuple[Harmonic, ...]]:
        """Nonzero (cosine, sine) terms in summation order, built once per instance.

        Not a dataclass field, so equality, hashing, repr and ``replace`` see
        only the coefficients.
        """
        w1 = self.omega1

        def terms(coeffs):
            return tuple(Harmonic(_scalar(k * w1), _scalar(a), _scalar(a * k * w1),
                                  _scalar(-(a * k * w1)))
                         for k, a in enumerate(coeffs, start=1) if a != 0.0)

        return terms(self.cos_coeffs), terms(self.sin_coeffs)

    def evaluate(self, q):
        """V(q), vectorized over q."""
        q = np.asarray(q, dtype=float)
        out = np.full_like(q, self.offset, dtype=float)
        cos_terms, sin_terms = self.harmonics
        for h in cos_terms:
            out = out + h.coeff * np.cos(h.freq * q)
        for h in sin_terms:
            out = out + h.coeff * np.sin(h.freq * q)
        return out

    def derivative(self, q, out=None, work=None):
        """V'(q), the exact term-by-term derivative.

        A caller that steps many times passes ``out`` and ``work``, float
        arrays of q's shape (q itself a float array): V'(q) is then written
        into ``out`` and no array is allocated.  The bits are the same either
        way.  The first term is written straight into ``out``, so V' may read
        -0.0 where a sum started from +0.0 would read +0.0; nothing else
        differs from that sum.
        """
        if out is None or work is None:
            q = np.asarray(q, dtype=float)
            out = np.empty_like(q) if out is None else out
            work = np.empty_like(q) if work is None else work
        cos_terms, sin_terms = self.harmonics
        empty = True                 # out holds no term yet
        for h in cos_terms:          # out -= slope * sin(freq * q)
            np.multiply(q, h.freq, work)
            np.sin(work, work)
            if empty:
                np.multiply(work, h.neg_slope, out)
                empty = False
            else:
                work *= h.slope
                out -= work
        for h in sin_terms:          # out += slope * cos(freq * q)
            np.multiply(q, h.freq, work)
            np.cos(work, work)
            if empty:
                np.multiply(work, h.slope, out)
                empty = False
            else:
                work *= h.slope
                out += work
        if empty:
            out.fill(0.0)
        return out

    def is_symmetric(self) -> bool:
        """True iff V(q) = V(-q), i.e. no sine components."""
        return all(s == 0.0 for s in self.sin_coeffs)

    def reflected(self) -> "PeriodicPotential":
        """Potential of the mirrored problem q -> -q (sine coefficients negated)."""
        return replace(self, sin_coeffs=tuple(-s for s in self.sin_coeffs))

    def complex_coeffs(self) -> np.ndarray:
        """Coefficients v_k of V(q) = sum_k v_k exp(i k w1 q), k = 0..K.

        Negative harmonics follow from v_{-k} = conj(v_k); v_0 is the offset.
        """
        K = max(len(self.cos_coeffs), len(self.sin_coeffs))
        v = np.zeros(K + 1, dtype=complex)
        v[0] = self.offset
        for k in range(1, K + 1):
            c = self.cos_coeffs[k - 1] if k <= len(self.cos_coeffs) else 0.0
            s = self.sin_coeffs[k - 1] if k <= len(self.sin_coeffs) else 0.0
            v[k] = 0.5 * (c - 1j * s)
        return v

    def tilt_drift_coeffs(self, force: float) -> np.ndarray:
        """Coefficients u_k of the drift field -V'(q) + F, k = 0..K."""
        v = self.complex_coeffs()
        k = np.arange(len(v))
        u = -1j * k * self.omega1 * v
        u[0] = force
        return u

    def single_cosine_amplitude(self) -> float | None:
        """Amplitude V0 if the potential is exactly V0*cos(w1 q), else None."""
        if not self.is_symmetric():
            return None
        nonzero = [(k, c) for k, c in enumerate(self.cos_coeffs, start=1) if c != 0.0]
        if len(nonzero) == 1 and nonzero[0][0] == 1 and nonzero[0][1] > 0.0:
            return nonzero[0][1]
        return None


@dataclass(frozen=True)
class ModelParams:
    """Full problem instance: friction, inverse temperature, tilt, potential."""

    gamma: float
    beta: float
    force: float
    potential: PeriodicPotential = field(
        default_factory=lambda: PeriodicPotential.cosine(1.0, 2.0 * np.pi)
    )

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not math.isfinite(self.force):
            raise ValueError(f"force must be finite, got {self.force}")

    def reflected(self) -> "ModelParams":
        """Mirror image q -> -q: negates the tilt and the sine components."""
        return replace(self, force=-self.force, potential=self.potential.reflected())

    def with_force(self, force: float) -> "ModelParams":
        return replace(self, force=float(force))


@dataclass(frozen=True)
class ReferenceScales:
    """Axis scales used in the standard plots of this problem.

    ``critical_force`` is the conventional 3.36*gamma*sqrt(V0) for a
    single-cosine potential and None otherwise (it is used for axis scaling
    only, never in a computation).  ``free_drift`` and ``free_diffusion`` are
    the V=0 values F/gamma and 1/(beta*gamma).
    """

    critical_force: float | None
    free_drift: float
    free_diffusion: float


def reference_scales(params: ModelParams) -> ReferenceScales:
    """Reference scales (F_c, U_L, D_L) for the given problem instance."""
    v0 = params.potential.single_cosine_amplitude()
    fc = 3.36 * params.gamma * math.sqrt(v0) if v0 is not None else None
    return ReferenceScales(
        critical_force=fc,
        free_drift=params.force / params.gamma,
        free_diffusion=1.0 / (params.beta * params.gamma),
    )
