"""Periodic spectral grid, Fourier transforms, and unit-band extraction.

The real line is truncated to a periodic box [-L, L) with N equispaced
points.  The transform pair follows the symmetric (2*pi)**(-1/2)
normalization

    fhat(xi) = (2*pi)**(-1/2) * integral exp(-i xi x) f(x) dx,

approximated by dx-weighted lattice sums, so that Plancherel reads
sum |f|^2 dx = sum |fhat|^2 dxi.  Spectra are stored in centered order,
xi_j = (pi/L) * j for j = -N/2 .. N/2-1.  Frequency space is partitioned
into the unit bands I_k = [k - 1/2, k + 1/2).

Every transform in the package, here and in the steppers and the quartic sum,
goes through one binding of numpy's pocketfft gufuncs (numpy >= 2.0; there is
no fallback): `fft`, `ifft`, `rfft` and `irfft` below transform the rows of
their input along the last axis into a caller-owned `out`, with numpy's own
scales, 1 forward and 1/len inverse, so each equals the numpy.fft call of the
same shapes bit for bit.  The steppers make thousands of one-row calls whose
shapes, axis and outputs are fixed, and numpy.fft's argument handling adds
about 2-3 us to each, against the gufunc's ~6 us for one 1024-point real row
(measured on a 2-core VM).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft


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


# The transform binding.  The length of each transform is out's last axis: fft
# zero-pads or crops its input to it, and irfft reads its input's first
# len(out) // 2 + 1 entries.  Every length is even (GridSpec.n is a power of
# two, and so is the quartic sum's padded length), which rfft's gufunc assumes.

def fft(a, out: np.ndarray) -> np.ndarray:
    """The unscaled DFT of each row of a, written to out."""
    return _pocketfft.fft(a, 1, out=out)


def ifft(a, out: np.ndarray) -> np.ndarray:
    """The inverse DFT, scaled by 1/len, of each row of a, written to out."""
    return _pocketfft.ifft(a, 1 / out.shape[-1], out=out)


def rfft(a, out: np.ndarray) -> np.ndarray:
    """The nonnegative half (len(out) entries) of the unscaled DFT of each real row of a."""
    return _pocketfft.rfft_n_even(a, 1, out=out)


def irfft(a, out: np.ndarray) -> np.ndarray:
    """The real rows, of out's length, whose rfft is each row of a, written to out."""
    return _pocketfft.irfft(a, 1 / out.shape[-1], out=out)


def _centered_transform(a, transform, scale: float) -> np.ndarray:
    """scale * transform(a) along the last axis, in and out in centered order.

    For even n, both ifftshift and fftshift swap the two halves of a row, so the
    reorder into natural order is two slice copies into one work buffer, the
    transform runs in place in it, and the scale is applied while the halves
    are copied back into centered order.  Reordering is a permutation and the
    scalar scale commutes with it, so this equals scale * fftshift(transform(
    ifftshift(a))) bit for bit, with no roll and no separate scaling pass.
    """
    a = np.asarray(a)
    h = a.shape[-1] // 2
    work = np.empty(a.shape, dtype=complex)
    work[..., :h] = a[..., h:]
    work[..., h:] = a[..., :h]
    transform(work, work)
    out = np.empty_like(work)
    np.multiply(work[..., h:], scale, out=out[..., :h])
    np.multiply(work[..., :h], scale, out=out[..., h:])
    return out


def forward_transform(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Discrete approximation of fhat on the centered lattice; Nyquist zeroed.

    `values` is (..., n): each row along the last axis is transformed alone,
    roll-free (see _centered_transform), into a new complex array.
    """
    spec = _centered_transform(values, fft, grid.dx / np.sqrt(2.0 * np.pi))
    spec[..., 0] = 0.0  # unpaired Nyquist mode breaks Hermitian symmetry
    return spec


def inverse_transform(spectrum: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples of a centered (..., n) spectrum, row by row along the last axis,
    roll-free (see _centered_transform), into a new complex array."""
    return _centered_transform(spectrum, ifft, grid.dxi * grid.n / np.sqrt(2.0 * np.pi))


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
    binned together in one pass: each band is a contiguous run of lattice points
    (see GridSpec.band_edges), so one reduceat over the nonempty runs sums them
    all, and the sums are scaled and square-rooted in place.  When every band
    holds a lattice point the reduceat result is the profile's own array; only
    a lattice coarser than the bands scatters its runs into a zero-filled one,
    so the empty bands read 0.  No temporary the size of the power array is
    made, and a stacked row equals the profile of that row alone bit for bit.
    """
    power, g = spectral_power(f, grid)
    if g.kmax < 0:
        raise BandRangeError(f"the lattice resolves no band (kmax = {g.kmax})")
    edges = g.band_edges
    full = edges[:-1] < edges[1:]
    runs = np.add.reduceat(power[..., edges[0]:edges[-1]], edges[:-1][full] - edges[0], axis=-1)
    if full.all():
        sums = runs
    else:
        sums = np.zeros(power.shape[:-1] + full.shape)
        sums[..., full] = runs
    sums *= g.dxi
    return np.sqrt(sums, out=sums)


# the aliasing policy: the spectral mass within ALIAS_EDGE_FRACTION of the lattice
# edge (the quartic sum), or that a boost shifts off the lattice, may be at most
# ALIAS_THRESHOLD of the total
ALIAS_EDGE_FRACTION = 0.1
ALIAS_THRESHOLD = 1e-8


class AliasingError(ValueError):
    """Spectral mass too close to the lattice boundary, or shifted past it."""


def unresolved_mass_fraction(f: Field | np.ndarray, grid: GridSpec | list | tuple | None = None):
    """Spectral mass fraction outside the resolved bands |k| <= kmax; a float for a
    Field, one value per row for a (..., n) power array on `grid`.

    `grid` may also be a list or tuple of grids sharing n (the power array read
    on each): the result is then a list with one entry per grid, and the total
    mass, the same on every grid, is summed once.  The lost mass is one
    contraction of the power against each grid's outside-band indicator, so no
    temporary the size of the power array is made; a stacked row equals the
    fraction of that row alone, and an entry of a list equals the call on its
    grid alone, bit for bit.
    """
    many = isinstance(grid, (list, tuple))
    pairs = [spectral_power(f, g) for g in (grid if many else [grid])]
    total = np.sum(pairs[0][0], axis=-1) if pairs else 0.0
    safe = np.where(total > 0.0, total, 1.0)
    fracs = []
    for power, g in pairs:
        outside = (np.abs(g.band_of) > g.kmax).astype(float)
        lost = np.einsum("...i,i->...", power, outside)
        frac = np.where(total > 0.0, lost / safe, 0.0)
        fracs.append(frac if frac.ndim else float(frac))
    return fracs if many else fracs[0]


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
