"""Periodic spectral grid, Fourier transforms, and unit-band extraction.

The real line is truncated to a periodic box [-L, L) with N equispaced
points.  The transform pair follows the symmetric (2*pi)**(-1/2)
normalization

    fhat(xi) = (2*pi)**(-1/2) * integral exp(-i xi x) f(x) dx,

approximated by dx-weighted lattice sums, so that Plancherel reads
sum |f|^2 dx = sum |fhat|^2 dxi.  Spectra are stored in centered order,
xi_j = (pi/L) * j for j = -N/2 .. N/2-1.  Frequency space is partitioned
into the unit bands I_k = [k - 1/2, k + 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridError(ValueError):
    pass


class BandRangeError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """N-point periodic discretization of [-L, L) and its dual lattice."""

    n: int
    length: float

    @property
    def dx(self) -> float:
        return 2.0 * self.length / self.n

    @property
    def dxi(self) -> float:
        return np.pi / self.length

    @cached_property
    def x(self) -> np.ndarray:
        return -self.length + self.dx * np.arange(self.n)

    @cached_property
    def xi(self) -> np.ndarray:
        return self.dxi * np.arange(-self.n // 2, self.n // 2)

    @property
    def kmax(self) -> int:
        """Largest band index k with I_k fully inside the lattice window."""
        return int(np.floor(self.n // 2 * self.dxi - 0.5 + 1e-12))

    @cached_property
    def band_of(self) -> np.ndarray:
        """Band index of each lattice frequency: xi in I_k <=> k = floor(xi + 1/2)."""
        return np.floor(self.xi + 0.5).astype(int)

    @cached_property
    def band_edges(self) -> np.ndarray:
        """Lattice index at which each band I_k, k = -kmax .. kmax + 1, starts.

        band_of is nondecreasing in centered order, so I_k is the run of points
        from band_edges[k + kmax] up to band_edges[k + kmax + 1]; the run is
        empty where the lattice is coarser than the bands.
        """
        return np.searchsorted(self.band_of, np.arange(-self.kmax, self.kmax + 2))


def make_grid(n: int, length: float) -> GridSpec:
    if n < 16 or (n & (n - 1)) != 0:
        raise GridError(f"point count must be a power of two >= 16, got {n}")
    if not length > 0:
        raise GridError(f"domain half-length must be positive, got {length}")
    return GridSpec(int(n), float(length))


def forward_transform(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Discrete approximation of fhat on the centered lattice; Nyquist zeroed.

    `values` is (..., n): each row along the last axis is transformed alone.
    """
    spec = (grid.dx / np.sqrt(2.0 * np.pi)) * np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(values, axes=-1)), axes=-1
    )
    spec[..., 0] = 0.0  # unpaired Nyquist mode breaks Hermitian symmetry
    return spec


def inverse_transform(spectrum: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples of a centered (..., n) spectrum, row by row along the last axis."""
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(spectrum, axes=-1)), axes=-1) * (
        grid.dxi * grid.n / np.sqrt(2.0 * np.pi)
    )


class Field:
    """A complex function sampled on a grid, with its cached spectrum.

    Instances are immutable: both sample and spectrum arrays are read-only.
    """

    __slots__ = ("grid", "values", "spectrum")

    def __init__(self, grid: GridSpec, values: np.ndarray, spectrum: np.ndarray | None = None):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n,):
            raise GridError(f"expected {grid.n} samples, got shape {values.shape}")
        if spectrum is None:
            spectrum = forward_transform(values, grid)
        values.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spectrum", spectrum)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def from_spectrum(cls, grid: GridSpec, spectrum: np.ndarray) -> "Field":
        spectrum = np.asarray(spectrum, dtype=complex).copy()
        if spectrum.shape != (grid.n,):
            raise GridError(f"expected {grid.n} coefficients, got shape {spectrum.shape}")
        spectrum[0] = 0.0
        return cls(grid, inverse_transform(spectrum, grid), spectrum)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))


def spectral_power(f: Field | np.ndarray, grid: GridSpec | None = None) -> tuple:
    """(|fhat|^2, grid) of a Field, or of a (..., n) power array sampled on `grid`."""
    if isinstance(f, Field):
        return np.abs(f.spectrum) ** 2, f.grid
    power = np.asarray(f, dtype=float)
    if grid is None or power.shape[-1:] != (grid.n,):
        raise GridError("a power array needs its grid, with one sample per lattice point "
                        f"along its last axis; got shape {power.shape}")
    return power, grid


def band_profile(f: Field | np.ndarray, grid: GridSpec | None = None) -> np.ndarray:
    """L2 mass of the spectrum over each resolved unit band I_k (lattice quadrature),
    ordered k = -kmax .. kmax along the last axis.

    `f` is a Field, or a (..., n) array of |fhat|^2 on `grid` whose rows are
    binned together: each band is a contiguous run of lattice points (see
    GridSpec.band_edges), so one reduceat over the nonempty runs sums them all.
    """
    power, g = spectral_power(f, grid)
    if g.kmax < 0:
        raise BandRangeError(f"the lattice resolves no band (kmax = {g.kmax})")
    edges = g.band_edges
    full = edges[:-1] < edges[1:]
    sums = np.zeros(power.shape[:-1] + full.shape)
    sums[..., full] = np.add.reduceat(power[..., edges[0]:edges[-1]],
                                      edges[:-1][full] - edges[0], axis=-1)
    return np.sqrt(sums * g.dxi)


# the aliasing policy: the spectral mass within ALIAS_EDGE_FRACTION of the lattice
# edge (the quartic sum), or that a boost shifts off the lattice, may be at most
# ALIAS_THRESHOLD of the total
ALIAS_EDGE_FRACTION = 0.1
ALIAS_THRESHOLD = 1e-8


class AliasingError(ValueError):
    """Spectral mass too close to the lattice boundary, or shifted past it."""


def unresolved_mass_fraction(f: Field | np.ndarray, grid: GridSpec | None = None):
    """Spectral mass fraction outside the resolved bands |k| <= kmax; a float for a
    Field, one value per row for a (..., n) power array on `grid`."""
    power, g = spectral_power(f, grid)
    lost = np.sum(power[..., np.abs(g.band_of) > g.kmax], axis=-1)
    total = np.sum(power, axis=-1)
    frac = np.where(total > 0.0, lost / np.where(total > 0.0, total, 1.0), 0.0)
    return frac if frac.ndim else float(frac)


# ---------------------------------------------------------------------------
# stock initial data

def gaussian_samples(grid: GridSpec, width: float = 1.0, amplitude: float = 1.0,
                     center_freq: float = 0.0) -> np.ndarray:
    """Complex samples of amplitude * exp(-x^2 / (2 width^2)) * exp(i center_freq x)."""
    env = amplitude * np.exp(-grid.x**2 / (2.0 * width**2))
    if center_freq:
        return env * np.exp(1j * center_freq * grid.x)
    return env.astype(complex)


def gaussian_field(grid: GridSpec, width: float = 1.0, amplitude: float = 1.0,
                   center_freq: float = 0.0) -> Field:
    return Field(grid, gaussian_samples(grid, width, amplitude, center_freq))


def sech_field(grid: GridSpec, amplitude: float = 1.0, shift: float = 0.0) -> Field:
    return Field(grid, amplitude / np.cosh(grid.x - shift) + 0j)


def band_indicator_field(grid: GridSpec, lo: float, hi: float, amplitude: float = 1.0) -> Field:
    """Field whose spectrum is the lattice indicator of [lo, hi)."""
    spec = np.where((grid.xi >= lo) & (grid.xi < hi), amplitude, 0.0).astype(complex)
    return Field.from_spectrum(grid, spec)


def random_band_spectrum(grid: GridSpec, kmin: int, kmax: int, amplitude: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Random complex spectrum supported on bands kmin..kmax, L2-normalized then scaled."""
    mask = (grid.band_of >= kmin) & (grid.band_of <= kmax)
    spec = np.zeros(grid.n, dtype=complex)
    spec[mask] = rng.standard_normal(mask.sum()) + 1j * rng.standard_normal(mask.sum())
    norm = np.sqrt(np.sum(np.abs(spec) ** 2) * grid.dxi)
    if norm > 0:
        spec *= amplitude / norm
    return spec


def random_band_field(grid: GridSpec, kmin: int, kmax: int, amplitude: float,
                      rng: np.random.Generator) -> Field:
    return Field.from_spectrum(grid, random_band_spectrum(grid, kmin, kmax, amplitude, rng))
