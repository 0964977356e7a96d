"""Scalable time-frequency resource grid and rectangle placement.

The radio frame is discretised on an integer lattice whose column width is
the shortest OFDM symbol group the system supports (set by the largest
subcarrier-spacing exponent) and whose row height is the narrowest
bandwidth-part width (set by the smallest exponent).  Every bandwidth part
(BWP) occupies an axis-aligned rectangle of whole lattice cells, so all
scheduling geometry reduces to integer rectangle packing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

SYMBOLS_PER_SLOT = 14
SUBCARRIERS_PER_RB = 12
BASE_SCS_KHZ = 15.0
MAX_MINISLOT_SYMBOLS = 14
MAX_NUMEROLOGY = 6  # NR's largest subcarrier-spacing exponent (960 kHz)
# larger lattices are refused rather than allocated (the default has 1,344)
MAX_LATTICE_CELLS = 1 << 22

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
        if not 0 <= self.mu_min <= self.mu_max <= MAX_NUMEROLOGY:
            raise ConfigError(
                f"numerology exponents must satisfy 0 <= mu_min <= mu_max <= "
                f"{MAX_NUMEROLOGY}, got mu_min={self.mu_min}, mu_max={self.mu_max}"
            )
        if not 0 < self.frame_duration_ms < math.inf:
            raise ConfigError(
                f"frame_duration_ms must be positive and finite, got {self.frame_duration_ms}"
            )
        if not 0 < self.system_bandwidth_khz < math.inf:
            raise ConfigError(
                f"system_bandwidth_khz must be positive and finite, got "
                f"{self.system_bandwidth_khz}"
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
    if n_time * n_freq > MAX_LATTICE_CELLS:
        raise ConfigError(
            f"a {n_freq}x{n_time} lattice exceeds {MAX_LATTICE_CELLS} cells"
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


def _integer(name: str, value) -> int:
    """``value`` as a Python int (numpy integers included), so that shape
    sizes are exact, unbounded ints whatever type the config holds."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name}={value!r} is not an integer") from None


def bwp_shape(mu: int, eta: int, spec: GridSpec) -> BwpShape:
    """Footprint of a (numerology, mini-slot length) choice on the lattice."""
    mu, eta = _integer("mu", mu), _integer("eta", eta)
    mu_min, mu_max = _integer("mu_min", spec.mu_min), _integer("mu_max", spec.mu_max)
    if not mu_min <= mu <= mu_max:
        raise ConfigError(
            f"mu={mu} outside the configured numerology range [{mu_min}, {mu_max}]"
        )
    if not 1 <= eta <= MAX_MINISLOT_SYMBOLS:
        raise ConfigError(
            f"eta={eta} outside the mini-slot symbol range [1, {MAX_MINISLOT_SYMBOLS}]"
        )
    return BwpShape(
        mu=mu,
        eta=eta,
        time_len_units=eta * 2 ** (mu_max - mu),
        freq_width_units=2 ** (mu - mu_min),
    )


@dataclass(frozen=True)
class BwpAllocation:
    """A placed BWP: who it serves, which tier, and where it sits."""

    ue_index: int
    tier: Tier
    shape: BwpShape
    time_offset_units: int
    freq_offset_units: int


def validate_allocation_set(allocations: list[BwpAllocation], dims: GridDims) -> bool:
    """True iff every allocation is in bounds and no two overlap: each
    marks a fresh ``Occupancy`` in turn, whose ``mark`` checks both."""
    grid = Occupancy(dims)
    try:
        for alloc in allocations:
            grid.mark(alloc.time_offset_units, alloc.freq_offset_units, alloc.shape, 1)
    except ValueError:
        return False
    return True


@cache
def _repeat(n_freq: int, n_time: int) -> int:
    """A bit at row 0 of each of the first ``n_time`` columns.  Times a
    pattern of rows in one column, it repeats that pattern in each of them."""
    return ((1 << (n_freq * n_time)) - 1) // ((1 << n_freq) - 1)


def _cells(n_freq: int, time_offset: int, freq_offset: int, width: int, length: int) -> int:
    """The bits of a ``width`` x ``length`` rectangle at (time_offset,
    freq_offset) of a grid with ``n_freq`` rows, in Occupancy's bit order.
    The rectangle must lie inside the grid: a row past the top would set a
    bit of the next column."""
    rows = ((1 << width) - 1) << freq_offset
    return rows * _repeat(n_freq, length) << (time_offset * n_freq)


def _doubling(length: int, unit: int) -> tuple[int, ...]:
    """Right shifts, ``unit`` bits per cell, that grow a run of one cell to
    ``length`` cells when each is ANDed in turn: 1, 2, 4, ..., then the rest."""
    shifts, span = [], 1
    while span < length:
        step = min(span, length - span)
        shifts.append(step * unit)
        span += step
    return tuple(shifts)


@cache
def _fit_plan(n_freq: int, n_time: int, width: int, length: int):
    """For a ``width`` x ``length`` shape on an F x T grid: the shifts along
    frequency, the cells where the shape may start (rows 0..F-width, as a
    run from a higher row spills into the next column) and the shifts along
    time.  None when the shape is larger than the grid."""
    if width > n_freq or length > n_time:
        return None
    starts = ((1 << (n_freq - width + 1)) - 1) * _repeat(n_freq, n_time)
    return _doubling(width, 1), starts, _doubling(length, n_freq)


@cache
def live_plans(n_freq: int, n_time: int, shapes: tuple[BwpShape, ...]) -> tuple:
    """The fit plans ``live_cells`` reads: those of the shapes that fit the
    grid and hold no other shape of ``shapes``.  A window of a larger shape
    is covered by windows of each shape it holds, so these few suffice."""
    sizes = {(s.freq_width_units, s.time_len_units) for s in shapes}
    minimal = sorted(
        (w, n) for w, n in sizes
        if not any(v <= w and m <= n and (v, m) != (w, n) for v, m in sizes)
    )
    return tuple(
        plan for w, n in minimal if (plan := _fit_plan(n_freq, n_time, w, n)) is not None
    )


def _window_starts(free: int, plan: tuple) -> int:
    """The first cells of the free windows in ``free`` of the shape whose
    ``_fit_plan`` is ``plan``: each AND with ``fits >> k`` keeps bit i where i + k is set."""
    freq_shifts, starts, time_shifts = plan
    fits = free
    for k in freq_shifts:
        fits &= fits >> k
    fits &= starts
    for k in time_shifts:
        fits &= fits >> k
    return fits


def live_cells(free: int, plans: tuple) -> int:
    """The cells of the free-cell int ``free`` that lie in some free window
    of some shape, for the shapes whose ``live_plans`` are ``plans``.  Cells
    only ever leave ``free``, so a cell outside this set stays unusable, and
    every free window of every shape lies inside it."""
    live = 0
    for plan in plans:
        fits = _window_starts(free, plan)
        # each first cell grown back into its window's cells
        freq_shifts, _, time_shifts = plan
        for k in time_shifts:
            fits |= fits << k
        for k in freq_shifts:
            fits |= fits << k
        live |= fits
    return live


class Occupancy:
    """The lattice as one array of uint8 cell codes, 0 marking a free cell.

    The caller picks the non-zero code each placement paints; the
    environment encodes owner and tier (see ``env.expand_cells``).
    First fit and the free count read ``free``, a bitmask of the free
    cells with bit t*F + f set when cell (f, t) is free; paint only through
    ``mark``, which clears the shape's bits in it.
    """

    def __init__(self, dims: GridDims):
        self.code = np.zeros((dims.n_freq_units, dims.n_time_units), dtype=np.uint8)
        self.free = (1 << dims.total_units) - 1

    def copy(self) -> "Occupancy":
        clone = Occupancy.__new__(Occupancy)
        clone.code = self.code.copy()
        clone.free = self.free  # an int, never changed in place: shared
        return clone

    def free_units(self) -> int:
        return self.free.bit_count()

    def find_first_fit(self, shape: BwpShape) -> tuple[int, int] | None:
        """First position fitting ``shape``: minimum time offset, then
        minimum frequency offset.  Returns (time_offset, freq_offset)."""
        n_freq, n_time = self.code.shape
        plan = _fit_plan(n_freq, n_time, shape.freq_width_units, shape.time_len_units)
        # bit order is time order, then frequency order, so the lowest
        # window start is the first fit
        fits = _window_starts(self.free, plan) if plan else 0
        if not fits:
            return None
        return divmod((fits & -fits).bit_length() - 1, n_freq)

    def mark(self, time_offset: int, freq_offset: int, shape: BwpShape, code: int) -> None:
        """Paint ``code`` (1-255) over the shape's cells, which must lie on
        the grid and be free, and clear their bits in the free-cell int."""
        n_freq, n_time = self.code.shape
        width, length = shape.freq_width_units, shape.time_len_units
        if (
            time_offset < 0
            or freq_offset < 0
            or freq_offset + width > n_freq
            or time_offset + length > n_time
        ):
            raise ValueError(
                f"placement at (t={time_offset}, f={freq_offset}) of a "
                f"{width}x{length} shape leaves the {n_freq}x{n_time} grid"
            )
        cells = _cells(n_freq, time_offset, freq_offset, width, length)
        free = self.free
        if free & cells != cells:
            raise ValueError(
                f"placement at (t={time_offset}, f={freq_offset}) overlaps an "
                f"existing allocation"
            )
        self.code[freq_offset : freq_offset + width, time_offset : time_offset + length] = code
        self.free = free ^ cells
