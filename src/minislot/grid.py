"""Scalable time-frequency resource grid and rectangle placement.

The radio frame is discretised on an integer lattice whose column width is
the shortest OFDM symbol group the system supports (set by the largest
subcarrier-spacing exponent) and whose row height is the narrowest
bandwidth-part width (set by the smallest exponent).  Every bandwidth part
(BWP) occupies an axis-aligned rectangle of whole lattice cells, so all
scheduling geometry reduces to integer rectangle packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

SYMBOLS_PER_SLOT = 14
SUBCARRIERS_PER_RB = 12
BASE_SCS_KHZ = 15.0
MAX_MINISLOT_SYMBOLS = 14

# tolerance when checking that frame duration / bandwidth are whole multiples
# of the lattice cell size (frame durations like 2/7 ms are not exactly
# representable in binary floating point)
_INT_TOL = 1e-9


class ConfigError(ValueError):
    """A static grid/system configuration is internally inconsistent."""


class Tier(str, Enum):
    """Transmission tier: base tier carries the full sphere, enhancement
    tier carries the predicted field-of-view region."""

    BT = "BT"
    ET = "ET"


@dataclass(frozen=True)
class GridSpec:
    """Static system parameters that determine the lattice.

    mu_min/mu_max bound the subcarrier-spacing exponents in use (spacing is
    15 * 2**mu kHz).  The frame duration and system bandwidth must be whole
    multiples of the resulting minimum cell dimensions.
    """

    mu_min: int
    mu_max: int
    frame_duration_ms: float
    system_bandwidth_khz: float

    def __post_init__(self) -> None:
        if self.mu_min < 0 or self.mu_max < self.mu_min:
            raise ConfigError(
                f"numerology exponents must satisfy 0 <= mu_min <= mu_max, "
                f"got mu_min={self.mu_min}, mu_max={self.mu_max}"
            )
        if self.frame_duration_ms <= 0:
            raise ConfigError(
                f"frame_duration_ms must be positive, got {self.frame_duration_ms}"
            )
        if self.system_bandwidth_khz <= 0:
            raise ConfigError(
                f"system_bandwidth_khz must be positive, got {self.system_bandwidth_khz}"
            )

    @property
    def dt_min_ms(self) -> float:
        """Duration of one lattice column: a 14th of the shortest slot."""
        return 1.0 / (SYMBOLS_PER_SLOT * 2**self.mu_max)

    @property
    def db_min_khz(self) -> float:
        """Width of one lattice row: one resource block at the narrowest spacing."""
        return SUBCARRIERS_PER_RB * BASE_SCS_KHZ * 2**self.mu_min


@dataclass(frozen=True)
class GridDims:
    """Lattice dimensions derived from a :class:`GridSpec`."""

    n_time_units: int
    n_freq_units: int
    rb_size_shz: float  # cell area in seconds * hertz (== ms * kHz)

    @property
    def total_units(self) -> int:
        return self.n_time_units * self.n_freq_units


def _exact_units(value: float, unit: float, field: str) -> int:
    ratio = value / unit
    n = round(ratio)
    if n <= 0 or abs(ratio - n) > _INT_TOL * max(1.0, abs(ratio)):
        raise ConfigError(
            f"{field}={value} is not a positive whole multiple of the "
            f"lattice unit {unit} (ratio {ratio})"
        )
    return int(n)


def derive_grid(spec: GridSpec) -> GridDims:
    """Derive lattice dimensions; rejects configs that do not tile exactly."""
    n_time = _exact_units(spec.frame_duration_ms, spec.dt_min_ms, "frame_duration_ms")
    n_freq = _exact_units(
        spec.system_bandwidth_khz, spec.db_min_khz, "system_bandwidth_khz"
    )
    return GridDims(
        n_time_units=n_time,
        n_freq_units=n_freq,
        rb_size_shz=spec.dt_min_ms * spec.db_min_khz,
    )


@dataclass(frozen=True)
class BwpShape:
    """Rectangular footprint of one bandwidth part on the lattice.

    A BWP with numerology exponent ``mu`` and ``eta`` OFDM symbols spans
    ``eta * 2**(mu_max - mu)`` columns and ``2**(mu - mu_min)`` rows, so its
    cell count ``eta * 2**(mu_max - mu_min)`` is independent of ``mu``.
    """

    mu: int
    eta: int
    time_len_units: int
    freq_width_units: int

    @property
    def area_units(self) -> int:
        return self.time_len_units * self.freq_width_units

    def area_shz(self, dims: GridDims) -> float:
        return self.area_units * dims.rb_size_shz


def bwp_shape(mu: int, eta: int, spec: GridSpec) -> BwpShape:
    """Footprint of a (numerology, mini-slot length) choice on the lattice."""
    if not spec.mu_min <= mu <= spec.mu_max:
        raise ConfigError(
            f"mu={mu} outside the configured numerology range "
            f"[{spec.mu_min}, {spec.mu_max}]"
        )
    if not 1 <= eta <= MAX_MINISLOT_SYMBOLS:
        raise ConfigError(
            f"eta={eta} outside the mini-slot symbol range [1, {MAX_MINISLOT_SYMBOLS}]"
        )
    return BwpShape(
        mu=mu,
        eta=eta,
        time_len_units=eta * 2 ** (spec.mu_max - mu),
        freq_width_units=2 ** (mu - spec.mu_min),
    )


@dataclass(frozen=True)
class BwpAllocation:
    """A placed BWP: who it serves, which tier, and where it sits."""

    ue_index: int
    tier: Tier
    shape: BwpShape
    time_offset_units: int
    freq_offset_units: int

    @property
    def time_end(self) -> int:
        return self.time_offset_units + self.shape.time_len_units

    @property
    def freq_end(self) -> int:
        return self.freq_offset_units + self.shape.freq_width_units


def allocations_overlap(a: BwpAllocation, b: BwpAllocation) -> bool:
    return (
        a.time_offset_units < b.time_end
        and b.time_offset_units < a.time_end
        and a.freq_offset_units < b.freq_end
        and b.freq_offset_units < a.freq_end
    )


def validate_allocation_set(allocations: list[BwpAllocation], dims: GridDims) -> bool:
    """True iff every allocation is in bounds and no two overlap."""
    for alloc in allocations:
        if alloc.time_offset_units < 0 or alloc.freq_offset_units < 0:
            return False
        if alloc.time_end > dims.n_time_units or alloc.freq_end > dims.n_freq_units:
            return False
    for i, a in enumerate(allocations):
        for b in allocations[i + 1 :]:
            if allocations_overlap(a, b):
                return False
    return True


class Occupancy:
    """The lattice as one array of uint8 cell codes, 0 marking a free cell.

    The caller picks the non-zero code each placement paints; the
    environment encodes owner and tier (see ``env.expand_cells``).
    Paint only through ``mark``/``place``: first-fit answers are cached
    per grid state and ``mark`` is what drops them.
    """

    def __init__(self, dims: GridDims):
        self.dims = dims
        self.code = np.zeros((dims.n_freq_units, dims.n_time_units), dtype=np.uint8)
        self._forget()

    def _forget(self) -> None:
        # a copy shares both until either side marks: the image is never
        # written in place, and the answers hold for the state they share
        self._csum: np.ndarray | None = None  # integral image, see find_first_fit
        self._fits: dict[tuple[int, int], tuple[int, int] | None] = {}

    def copy(self) -> "Occupancy":
        clone = Occupancy.__new__(Occupancy)
        clone.dims = self.dims
        clone.code = self.code.copy()
        clone._csum = self._csum
        clone._fits = self._fits
        return clone

    def free_units(self) -> int:
        return self.code.size - np.count_nonzero(self.code)

    def find_first_fit(self, shape: BwpShape) -> tuple[int, int] | None:
        """First position fitting ``shape``: minimum time offset, then
        minimum frequency offset.  Returns (time_offset, freq_offset)."""
        fw, tl = shape.freq_width_units, shape.time_len_units
        if (fw, tl) in self._fits:
            return self._fits[fw, tl]
        n_freq, n_time = self.code.shape
        if fw > n_freq or tl > n_time:
            return None
        # integral image of the codes, time-major; they are non-negative, so
        # a window sums to zero exactly when every cell in it is free.  It is
        # built once per grid state and shared by every shape tried on it.
        csum = self._csum
        if csum is None:
            csum = np.zeros((n_time + 1, n_freq + 1), dtype=np.int64)
            np.cumsum(self.code.T, axis=0, out=csum[1:, 1:])
            np.cumsum(csum[1:, 1:], axis=1, out=csum[1:, 1:])
            self._csum = csum
        window = (
            csum[tl:, fw:]
            - csum[:-tl, fw:]
            - csum[tl:, :-fw]
            + csum[:-tl, :-fw]
        )
        # row-major over (time offset, freq offset): the first free window
        # has the least time offset, then the least frequency offset
        free = (window == 0).ravel()
        first = int(free.argmax())
        pos = divmod(first, window.shape[1]) if free[first] else None
        self._fits[fw, tl] = pos
        return pos

    def mark(self, time_offset: int, freq_offset: int, shape: BwpShape, code: int) -> None:
        """Paint ``code`` (1-255) over the shape's cells, which must be free."""
        region = self.code[
            freq_offset : freq_offset + shape.freq_width_units,
            time_offset : time_offset + shape.time_len_units,
        ]
        if region.any():
            raise ValueError(
                f"placement at (t={time_offset}, f={freq_offset}) overlaps an "
                f"existing allocation"
            )
        region[:] = code
        self._forget()

    def place(self, shape: BwpShape, code: int) -> tuple[int, int] | None:
        """Find-and-mark in one call; None when the shape fits nowhere."""
        pos = self.find_first_fit(shape)
        if pos is not None:
            self.mark(pos[0], pos[1], shape, code)
        return pos
