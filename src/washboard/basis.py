"""Hermite-Fourier basis bookkeeping, ladder operators, and the Gibbs pairing.

Functions of (q, p) on the periodic cell are expanded as

    g(q, p) = sum_n  g_n(q) H_n(p),      H_n(p) = He_n(p sqrt(beta)) / sqrt(n!),

with He_n the probabilists' Hermite polynomials, orthonormal against the
Maxwellian exp(-beta p^2/2).  A :class:`HermiteFourierField` may instead be
centred at a momentum p0, in H_n(p - p0), orthonormal against the Maxwellian
displaced to p0; the transport solver uses p0 = F/gamma.  Each level g_n(q)
is a real trigonometric polynomial stored in the packed real layout

    (xi_0, xi_1 .. xi_M, eta_1 .. eta_M),   g_n(q) = sum_j G_n^j e^{i w_j q},

with G_n^j = xi^j + i eta^j, G_n^{-j} = conj(G_n^j) and w_j = 2*pi*j/L.
The mean (1/L) int f g dq of two such functions is f . W g in the packed
metric W = diag(1, 2, .., 2).

This module is the one owner of the packed layout; every other module builds
and reads packed vectors only through its helpers:

    pack_complex                   packed coefficients from complex c_0..c_M
    packed_metric                  the diagonal of W
    packed_dq_matrix               d/dq
    packed_mult_matrix             multiplication by a real function
                                   (a Fourier convolution, Galerkin-truncated)
    fourier_table                  reconstruction: packed @ table = values on a q grid
    gibbs_gram                     the Gram matrix G of the equilibrium pairing:
                                   <g, h>_beta = sum_n g_n . G h_n (gibbs_inner)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, PeriodicPotential

__all__ = [
    "TruncationSpec",
    "HermiteFourierField",
    "hermite_table",
    "apply_raise",
    "apply_lower",
    "apply_momentum",
    "packed_dq_matrix",
    "packed_mult_matrix",
    "packed_metric",
    "pack_complex",
    "fourier_table",
    "gibbs_gram",
    "gibbs_inner",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Galerkin truncation: Hermite levels 0..n_hermite, harmonics 0..n_fourier.

    Every coefficient above level N = n_hermite is zero, in the cell problem
    and the stationary density alike.
    """

    n_hermite: int
    n_fourier: int

    def __post_init__(self):
        if self.n_hermite < 2:
            raise ValueError(f"n_hermite must be >= 2, got {self.n_hermite}")
        if self.n_fourier < 1:
            raise ValueError(f"n_fourier must be >= 1, got {self.n_fourier}")

    def check_potential(self, potential: PeriodicPotential) -> None:
        if potential.n_harmonics > self.n_fourier:
            raise ValueError(
                f"n_fourier={self.n_fourier} below the potential's highest "
                f"harmonic {potential.n_harmonics}"
            )

    def with_n_hermite(self, n: int) -> "TruncationSpec":
        return TruncationSpec(n, self.n_fourier)


# ---------------------------------------------------------------------------
# Hermite side
# ---------------------------------------------------------------------------

def hermite_table(n_max: int, x) -> np.ndarray:
    """Orthonormal probabilists' Hermite values He_n(x)/sqrt(n!), n = 0..n_max.

    Three-term recurrence in normalized form; returns shape (len(x), n_max+1),
    a column-major view, so that each level is written contiguously.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    T = np.empty((n_max + 1, x.size))
    T[0] = 1.0
    if n_max >= 1:
        T[1] = x
    root = np.sqrt(np.arange(n_max + 1))
    work = np.empty(x.size)
    for n in range(1, n_max):       # T[n+1] = (x T[n] - sqrt(n) T[n-1]) / sqrt(n+1)
        row = T[n + 1]
        np.multiply(x, T[n], row)
        np.multiply(root[n], T[n - 1], work)
        np.subtract(row, work, row)
        np.divide(row, root[n + 1], row)
    return T.T


# ---------------------------------------------------------------------------
# Packed real Fourier vectors
# ---------------------------------------------------------------------------

def pack_complex(coeffs: np.ndarray) -> np.ndarray:
    """Packed real coefficients from complex c_0..c_M (c_{-j} implied).

    Packs along the leading axis; trailing axes are carried along.
    """
    c = np.asarray(coeffs)
    return np.concatenate([c[:1].real, c[1:].real, c[1:].imag])


def packed_metric(n_fourier: int) -> np.ndarray:
    """Diagonal of W = diag(1, 2, .., 2): (1/L) int f g dq = f . W g."""
    w = np.full(2 * n_fourier + 1, 2.0)
    w[0] = 1.0
    return w


def fourier_table(n_fourier: int, period: float, q: np.ndarray) -> np.ndarray:
    """Reconstruction table: packed coefficients @ table = values on the q grid."""
    M = n_fourier
    w1 = 2.0 * np.pi / period
    T = np.empty((2 * M + 1, q.size))
    T[0] = 1.0
    for k in range(1, M + 1):
        T[k] = 2.0 * np.cos(k * w1 * q)
        T[M + k] = -2.0 * np.sin(k * w1 * q)
    return T


def packed_dq_matrix(n_fourier: int, period: float) -> np.ndarray:
    """(2M+1)^2 matrix of d/dq acting on packed vectors."""
    M = n_fourier
    k = np.arange(1, M + 1)
    wk = (2.0 * np.pi / period) * k
    D = np.zeros((2 * M + 1, 2 * M + 1))
    D[k, M + k] = -wk
    D[M + k, k] = wk
    return D


def packed_mult_matrix(coeffs: np.ndarray, n_fourier: int, period: float) -> np.ndarray:
    """(2M+1)^2 matrix of multiplication by the real function with complex
    coefficients ``coeffs[m]`` for harmonics m = 0..K (negative implied).

    Truncates output harmonics above M (Galerkin projection): the Toeplitz
    convolution c_{j-k} on output harmonics j = 0..M, applied to the two-sided
    expansion of each packed basis vector and packed again.  Raises
    ValueError if the mean coefficient ``coeffs[0]`` is not real.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c[0].imag != 0.0:
        raise ValueError(f"mean coefficient {c[0]} of a real function must be real")
    M, K = n_fourier, c.size - 1
    two_sided = np.concatenate([np.conj(c[:0:-1]), c])     # harmonics -K..K
    shift = np.arange(M + 1)[:, None] - np.arange(-M, M + 1)[None, :]
    C = np.where(np.abs(shift) <= K, two_sided[np.clip(shift + K, 0, 2 * K)], 0.0)
    pos, neg = C[:, M + 1 :], C[:, M - 1 :: -1]             # operand harmonics +k, -k
    # packed basis vector xi_k is e^{ikwq} + e^{-ikwq}, eta_k is i(e^{ikwq} - e^{-ikwq})
    return pack_complex(np.concatenate([C[:, M : M + 1], pos + neg, 1j * (pos - neg)],
                                       axis=1))


# ---------------------------------------------------------------------------
# Hermite-Fourier fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteFourierField:
    """Coefficient container for g(q,p) = sum_n g_n(q) H_n(p - p0).

    ``coeffs`` has shape (N+1, 2M+1): one packed Fourier vector per Hermite
    level.  ``p0`` is the centre of the Hermite basis: 0 for the Maxwellian
    basis of the module docstring, the free drift F/gamma for the displaced
    basis the transport solver works in.  Immutable; all operations return new
    fields in the same basis.
    """

    coeffs: np.ndarray
    period: float
    beta: float
    p0: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 2 or c.shape[1] % 2 != 1:
            raise ValueError("coeffs must have shape (N+1, 2M+1)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, n_hermite: int, n_fourier: int, period: float, beta: float):
        return cls(np.zeros((n_hermite + 1, 2 * n_fourier + 1)), period, beta)

    @classmethod
    def constant(cls, value: float, n_hermite: int, n_fourier: int, period: float, beta: float):
        f = np.zeros((n_hermite + 1, 2 * n_fourier + 1))
        f[0, 0] = value
        return cls(f, period, beta)

    @classmethod
    def momentum(cls, n_hermite: int, n_fourier: int, period: float, beta: float):
        """The observable g(q,p) = p, i.e. H_1 / sqrt(beta)."""
        f = np.zeros((n_hermite + 1, 2 * n_fourier + 1))
        f[1, 0] = 1.0 / np.sqrt(beta)
        return cls(f, period, beta)

    @property
    def n_hermite(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def n_fourier(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    def with_coeffs(self, coeffs: np.ndarray) -> "HermiteFourierField":
        return HermiteFourierField(coeffs, self.period, self.beta, self.p0)

    def plus(self, other: "HermiteFourierField") -> "HermiteFourierField":
        if other.p0 != self.p0:
            raise ValueError(f"fields in bases centred at p0={self.p0} and "
                             f"{other.p0} cannot be added coefficient-wise")
        return self.with_coeffs(self.coeffs + other.coeffs)


def apply_raise(field: HermiteFourierField) -> HermiteFourierField:
    """Creation operator -d_p + beta*p: raising, level n -> n+1 with factor
    sqrt(beta*(n+1)), plus beta*p0 times the field in a basis centred at p0.
    The overflow past the top level is dropped."""
    c = field.coeffs
    out = np.zeros_like(c)
    n = np.arange(c.shape[0] - 1)
    out[1:] = np.sqrt(field.beta * (n + 1))[:, None] * c[:-1]
    if field.p0:
        out += field.beta * field.p0 * c
    return field.with_coeffs(out)


def apply_lower(field: HermiteFourierField) -> HermiteFourierField:
    """Annihilation operator d_p: level n -> n-1 with factor sqrt(beta*n)."""
    c = field.coeffs
    out = np.zeros_like(c)
    n = np.arange(1, c.shape[0])
    out[:-1] = np.sqrt(field.beta * n)[:, None] * c[1:]
    return field.with_coeffs(out)


def apply_momentum(field: HermiteFourierField) -> HermiteFourierField:
    """Multiplication by p: tridiagonal coupling
    (p - p0) H_n = (sqrt(n+1) H_{n+1} + sqrt(n) H_{n-1}) / sqrt(beta),
    plus p0 times the field in a basis centred at p0."""
    c = field.coeffs
    out = np.zeros_like(c)
    sb = np.sqrt(field.beta)
    n = np.arange(c.shape[0])
    out[1:] += (np.sqrt(n[1:]) / sb)[:, None] * c[:-1]
    out[:-1] += (np.sqrt(n[1:]) / sb)[:, None] * c[1:]
    if field.p0:
        out += field.p0 * c
    return field.with_coeffs(out)


# ---------------------------------------------------------------------------
# Gibbs pairing
# ---------------------------------------------------------------------------

def gibbs_gram(params: ModelParams, n_fourier: int) -> np.ndarray:
    """Gram matrix G of the pairing against the equilibrium density
    rho_bar = Z^-1 e^{-beta H0} on packed Fourier vectors.

    The Hermite levels are orthonormal against the Maxwellian, so for fields
    in the centred basis <g, h>_beta = sum_n g_n . G h_n (:func:`gibbs_inner`),
    with G = L W packed_mult_matrix(w) and w = e^{-beta V}/Z_q normalized to
    int w dq = 1.  A product of two levels carries harmonics up to 2M, so w
    enters through its harmonics 0..2M, taken from an FFT on max(1024, 16M)
    points; G is symmetric and exact up to their aliasing error.  Column 0 is
    the functional <., 1>_beta on level 0.
    """
    L, M = params.potential.period, n_fourier
    n = max(1024, 16 * M)
    w = np.exp(-params.beta * params.potential.evaluate(np.arange(n) * L / n))
    w = w / (w.mean() * L)
    w_hat = np.fft.rfft(w)[: 2 * M + 1] / n
    return (L * packed_metric(M))[:, None] * packed_mult_matrix(w_hat, M, L)


def gibbs_inner(gram: np.ndarray, g: HermiteFourierField,
                h: HermiteFourierField) -> float:
    """<g, h>_beta = int g h rho_bar dp dq, with ``gram`` from :func:`gibbs_gram`."""
    for f in (g, h):
        if f.p0:
            raise ValueError(f"field is in the basis centred at p0={f.p0}; "
                             "the Gibbs pairing needs the centred basis")
    return float(np.vdot(g.coeffs, h.coeffs @ gram))
