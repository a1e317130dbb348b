"""Hermite-Fourier basis bookkeeping, ladder operators, and weighted quadrature.

Functions of (q, p) on the periodic cell are expanded as

    g(q, p) = sum_n  g_n(q) H_n(p),      H_n(p) = He_n(p sqrt(beta)) / sqrt(n!),

with He_n the probabilists' Hermite polynomials, orthonormal against the
Maxwellian exp(-beta p^2/2).  Each level g_n(q) is a real trigonometric
polynomial stored in the packed real layout

    (xi_0, xi_1 .. xi_M, eta_1 .. eta_M),   g_n(q) = sum_j G_n^j e^{i w_j q},

with G_n^j = xi^j + i eta^j, G_n^{-j} = conj(G_n^j) and w_j = 2*pi*j/L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermitenorm

from .model import ModelParams, PeriodicPotential

__all__ = [
    "TruncationSpec",
    "FourierVector",
    "HermiteFourierField",
    "hermite_eval",
    "hermite_table",
    "gauss_hermite_functions",
    "apply_raise",
    "apply_lower",
    "apply_momentum",
    "apply_q_derivative",
    "packed_dq_matrix",
    "packed_mult_matrix",
    "pack_complex",
    "unpack_complex",
    "gauss_maxwell_nodes",
    "GibbsQuadrature",
    "weighted_inner_product",
]


@dataclass(frozen=True)
class TruncationSpec:
    """Galerkin truncation: Hermite levels 0..n_hermite, harmonics 0..n_fourier.

    ``closure`` selects the boundary condition closing the cell-problem
    hierarchy at the top: level N+1 is set to zero ("dirichlet") or copied
    from level N ("neumann").  The stationary density is solved with the same
    factors, so its top row is the W-adjoint of the cell closure: level N+1
    set to zero for "dirichlet"; for "neumann" the top-row term
    sqrt(N+1) d_q R_{N+1} becomes sqrt(N+1) (d_q - beta (F - V')) R_N.
    """

    n_hermite: int
    n_fourier: int
    closure: str = "dirichlet"

    def __post_init__(self):
        if self.n_hermite < 2:
            raise ValueError(f"n_hermite must be >= 2, got {self.n_hermite}")
        if self.n_fourier < 1:
            raise ValueError(f"n_fourier must be >= 1, got {self.n_fourier}")
        if self.closure not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown closure {self.closure!r}")

    def check_potential(self, potential: PeriodicPotential) -> None:
        if potential.n_harmonics > self.n_fourier:
            raise ValueError(
                f"n_fourier={self.n_fourier} below the potential's highest "
                f"harmonic {potential.n_harmonics}"
            )

    def with_n_hermite(self, n: int) -> "TruncationSpec":
        return TruncationSpec(n, self.n_fourier, self.closure)


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
    for n in range(1, n_max):
        T[n + 1] = (x * T[n] - np.sqrt(n) * T[n - 1]) / np.sqrt(n + 1)
    return T.T


_RESCALE = 1e100


def gauss_hermite_functions(n_max: int, x) -> np.ndarray:
    """Hermite functions sqrt(w_i) He_n(x_i)/sqrt(n!), n = 0..n_max, on the
    nodes x of the Gauss rule for the unit Maxwellian, w_i its weights.

    The weights come from the Christoffel identity
    1/w_i = sum_{k < len(x)} He_k(x_i)^2/k!, summed along the same recurrence,
    which is rescaled per node whenever it grows large.  The table therefore
    stays finite and orthonormal (T.T @ T = I) where the bare polynomials
    overflow and the weights underflow: at the outer nodes of a rule with a
    few hundred points or more.  Returns shape (len(x), n_max+1), a
    column-major view like :func:`hermite_table`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n_max >= x.size:
        raise ValueError(f"n_max={n_max} needs more than {x.size} nodes")
    T = np.empty((n_max + 1, x.size))
    T[0] = 1.0
    prev, cur = np.zeros(x.size), np.ones(x.size)
    norm2 = np.ones(x.size)
    for k in range(1, x.size):
        prev, cur = cur, (x * cur - np.sqrt(k - 1) * prev) / np.sqrt(k)
        big = np.abs(cur) > _RESCALE
        if big.any():
            prev[big] /= _RESCALE
            cur[big] /= _RESCALE
            norm2[big] /= _RESCALE ** 2
            T[: min(k, n_max + 1), big] /= _RESCALE
        norm2 += cur * cur
        if k <= n_max:
            T[k] = cur
    T /= np.sqrt(norm2)
    return T.T


def hermite_eval(n: int, p, beta: float):
    """Rescaled Hermite polynomial H_n(p) = He_n(p sqrt(beta)) / sqrt(n!)."""
    if n < 0:
        raise ValueError("hermite level must be >= 0")
    x = np.asarray(p, dtype=float) * np.sqrt(beta)
    vals = hermite_table(n, np.atleast_1d(x))[:, n]
    return vals.reshape(np.shape(x)) if np.ndim(p) else float(vals[0])


def gauss_maxwell_nodes(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights for int f(p) rho_hat(p) dp, rho_hat the unit Maxwellian.

    Weights sum to 1; exact for polynomials in p of degree <= 2n-1.
    """
    x, w = roots_hermitenorm(n)
    return x / np.sqrt(beta), w / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Packed real Fourier vectors
# ---------------------------------------------------------------------------

def pack_complex(coeffs: np.ndarray) -> np.ndarray:
    """Packed real vector from complex coefficients c_0..c_M (c_{-j} implied)."""
    M = len(coeffs) - 1
    out = np.empty(2 * M + 1)
    out[0] = coeffs[0].real
    out[1 : M + 1] = coeffs[1:].real
    out[M + 1 :] = coeffs[1:].imag
    return out

def unpack_complex(values: np.ndarray) -> np.ndarray:
    """Complex coefficients c_0..c_M of a packed real vector."""
    M = (len(values) - 1) // 2
    c = np.empty(M + 1, dtype=complex)
    c[0] = values[0]
    c[1:] = values[1 : M + 1] + 1j * values[M + 1 :]
    return c


@dataclass(frozen=True)
class FourierVector:
    """Real periodic function in packed coefficient form."""

    values: np.ndarray
    period: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size % 2 != 1:
            raise ValueError("packed vector must be 1-d with odd length 2M+1")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, n_fourier: int, period: float) -> "FourierVector":
        return cls(np.zeros(2 * n_fourier + 1), period)

    @property
    def n_fourier(self) -> int:
        return (self.values.size - 1) // 2

    def evaluate(self, q):
        """Reconstruct the function at positions q."""
        q = np.asarray(q, dtype=float)
        M = self.n_fourier
        w1 = 2.0 * np.pi / self.period
        out = np.full_like(q, self.values[0], dtype=float)
        for k in range(1, M + 1):
            out = out + 2.0 * (
                self.values[k] * np.cos(k * w1 * q)
                - self.values[M + k] * np.sin(k * w1 * q)
            )
        return out

    def derivative(self) -> "FourierVector":
        return apply_q_derivative(self)


def apply_q_derivative(vec: FourierVector) -> FourierVector:
    """d/dq in packed form: (xi_k, eta_k) -> (-w_k eta_k, +w_k xi_k)."""
    M = vec.n_fourier
    w1 = 2.0 * np.pi / vec.period
    out = np.zeros_like(vec.values)
    k = np.arange(1, M + 1)
    out[1 : M + 1] = -(w1 * k) * vec.values[M + 1 :]
    out[M + 1 :] = (w1 * k) * vec.values[1 : M + 1]
    return FourierVector(out, vec.period)


def packed_dq_matrix(n_fourier: int, period: float) -> np.ndarray:
    """(2M+1)^2 matrix of d/dq acting on packed vectors."""
    M = n_fourier
    w1 = 2.0 * np.pi / period
    D = np.zeros((2 * M + 1, 2 * M + 1))
    for k in range(1, M + 1):
        D[k, M + k] = -w1 * k
        D[M + k, k] = w1 * k
    return D


def packed_mult_matrix(coeffs: np.ndarray, n_fourier: int, period: float) -> np.ndarray:
    """(2M+1)^2 matrix of multiplication by the real function with complex
    coefficients ``coeffs[m]`` for harmonics m = 0..K (negative implied).

    Truncates output harmonics above M (Galerkin projection).
    """
    M = n_fourier
    K = len(coeffs) - 1
    full = np.zeros(2 * M + 2 * K + 1, dtype=complex)   # index m+M+K
    full[M + K] = coeffs[0]
    for m in range(1, K + 1):
        full[M + K + m] = coeffs[m]
        full[M + K - m] = np.conj(coeffs[m])
    # complex convolution on harmonics -M..M
    C = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)
    for j in range(-M, M + 1):
        for k in range(max(-M, j - K), min(M, j + K) + 1):
            C[M + j, M + k] = full[M + K + (j - k)]
    # conjugate by the packed <-> complex maps
    U = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)   # packed -> complex(-M..M)
    U[M, 0] = 1.0
    for k in range(1, M + 1):
        U[M + k, k] = 1.0
        U[M + k, M + k] = 1.0j
        U[M - k, k] = 1.0
        U[M - k, M + k] = -1.0j
    P = np.zeros((2 * M + 1, 2 * M + 1), dtype=complex)   # complex -> packed
    P[0, M] = 1.0
    for k in range(1, M + 1):
        P[k, M + k] = 0.5          # xi_k = Re c_k = (c_k + c_{-k})/2
        P[k, M - k] = 0.5
        P[M + k, M + k] = -0.5j    # eta_k = Im c_k = (c_k - c_{-k})/(2i)
        P[M + k, M - k] = 0.5j
    A = (P @ C @ U)
    assert np.abs(A.imag).max() < 1e-12 * max(np.abs(A.real).max(), 1.0)
    return A.real


# ---------------------------------------------------------------------------
# Hermite-Fourier fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermiteFourierField:
    """Coefficient container for g(q,p) = sum_n g_n(q) H_n(p).

    ``coeffs`` has shape (N+1, 2M+1): one packed Fourier vector per Hermite
    level.  Immutable; all operations return new fields.
    """

    coeffs: np.ndarray
    period: float
    beta: float

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

    def level(self, n: int) -> FourierVector:
        return FourierVector(self.coeffs[n], self.period)

    def with_coeffs(self, coeffs: np.ndarray) -> "HermiteFourierField":
        return HermiteFourierField(coeffs, self.period, self.beta)

    def evaluate(self, q, p):
        """Point values g(q, p); q and p broadcast together."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        q, p = np.broadcast_arrays(q, p)
        H = hermite_table(self.n_hermite, p.ravel() * np.sqrt(self.beta))
        M = self.n_fourier
        w1 = 2.0 * np.pi / self.period
        levels = self.coeffs[:, :1] * np.ones((1, q.size))
        qr = q.ravel()
        for k in range(1, M + 1):
            ck, sk = np.cos(k * w1 * qr), np.sin(k * w1 * qr)
            levels += 2.0 * (np.outer(self.coeffs[:, k], ck)
                             - np.outer(self.coeffs[:, M + k], sk))
        vals = np.einsum("xn,nx->x", H, levels)
        return vals.reshape(q.shape) if q.ndim else float(vals[0])

    def scaled(self, a: float) -> "HermiteFourierField":
        return self.with_coeffs(a * self.coeffs)

    def plus(self, other: "HermiteFourierField") -> "HermiteFourierField":
        return self.with_coeffs(self.coeffs + other.coeffs)


def apply_raise(field: HermiteFourierField) -> HermiteFourierField:
    """Creation operator -d_p + beta*p: pure raising, level n -> n+1 with
    factor sqrt(beta*(n+1)).  The overflow past the top level is dropped."""
    c = field.coeffs
    out = np.zeros_like(c)
    n = np.arange(c.shape[0] - 1)
    out[1:] = np.sqrt(field.beta * (n + 1))[:, None] * c[:-1]
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
    p H_n = (sqrt(n+1) H_{n+1} + sqrt(n) H_{n-1}) / sqrt(beta)."""
    c = field.coeffs
    out = np.zeros_like(c)
    sb = np.sqrt(field.beta)
    n = np.arange(c.shape[0])
    out[1:] += (np.sqrt(n[1:]) / sb)[:, None] * c[:-1]
    out[:-1] += (np.sqrt(n[1:]) / sb)[:, None] * c[1:]
    return field.with_coeffs(out)


# ---------------------------------------------------------------------------
# Gibbs-weighted quadrature
# ---------------------------------------------------------------------------

class GibbsQuadrature:
    """Tensor quadrature against the equilibrium density rho_bar = Z^-1 e^{-beta H0}.

    Gauss nodes matched to the Maxwellian in p, uniform trapezoid against
    e^{-beta V}/Z_q in q.  Z is computed with the same rule, so <1,1> = 1 holds
    by construction.  Exact for pair products of fields resolved by the rule.

    The square root of each Gauss weight is folded into the Hermite table
    (:func:`gauss_hermite_functions`), so :meth:`values` returns sqrt(w_p) g
    on the grid and :meth:`integrate` takes a product of two such arrays
    (times any plain factor, such as p).
    """

    def __init__(self, params: ModelParams, n_hermite: int, n_fourier: int,
                 n_p: int | None = None, n_q: int | None = None):
        N, M = n_hermite, n_fourier
        if n_p is None:
            n_p = 2 * N + 8
        if n_q is None:
            n_q = max(64, 8 * M)
        if n_p < 2 * N + 2:
            raise ValueError(f"n_p={n_p} below 2N+2={2*N+2}: aliasing risk")
        if n_q < 4 * M:
            raise ValueError(f"n_q={n_q} below 4M={4*M}: aliasing risk")
        self.params = params
        self.n_hermite, self.n_fourier = N, M
        beta = params.beta
        L = params.potential.period
        self.x, _ = roots_hermitenorm(n_p)
        self.q = np.arange(n_q) * L / n_q
        wq = np.exp(-beta * params.potential.evaluate(self.q))
        self.wq = wq / wq.sum()
        self.hermite = gauss_hermite_functions(N, self.x)  # (n_p, N+1)
        self.fourier = _fourier_table(M, L, self.q)        # (2M+1, n_q)
        self.p = self.x / np.sqrt(beta)

    def values(self, g: HermiteFourierField) -> np.ndarray:
        """sqrt(w_p) times the field values on the (p, q) grid, shape (n_p, n_q)."""
        if g.n_hermite != self.n_hermite or g.n_fourier != self.n_fourier:
            raise ValueError("field truncation does not match quadrature grid")
        return self.hermite @ g.coeffs @ self.fourier

    def integrate(self, vals: np.ndarray) -> float:
        """Integral against rho_bar of a product of two :meth:`values` arrays."""
        return float(np.sum(vals @ self.wq))

    def inner(self, g: HermiteFourierField, h: HermiteFourierField) -> float:
        return self.integrate(self.values(g) * self.values(h))


def _fourier_table(M: int, period: float, q: np.ndarray) -> np.ndarray:
    """Reconstruction table: packed coefficients @ table = values on q grid."""
    w1 = 2.0 * np.pi / period
    T = np.empty((2 * M + 1, q.size))
    T[0] = 1.0
    for k in range(1, M + 1):
        T[k] = 2.0 * np.cos(k * w1 * q)
        T[M + k] = -2.0 * np.sin(k * w1 * q)
    return T


def weighted_inner_product(g: HermiteFourierField, h: HermiteFourierField,
                           params: ModelParams,
                           quadrature: tuple[int, int] | GibbsQuadrature | None = None
                           ) -> float:
    """<g, h>_beta = int g h rho_bar dp dq.

    ``quadrature`` may be a prebuilt :class:`GibbsQuadrature` (reused across
    many products) or an explicit (n_p, n_q) order pair.
    """
    if isinstance(quadrature, GibbsQuadrature):
        grid = quadrature
    else:
        n_p, n_q = quadrature if quadrature is not None else (None, None)
        grid = GibbsQuadrature(params, g.n_hermite, g.n_fourier, n_p, n_q)
    return grid.inner(g, h)
