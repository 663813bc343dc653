"""Monte Carlo sampling of lattice walks S_n = h(X_1 + ... + X_n).

A draw moves a walker by an exact m-step law p^{*m} (Chapman-Kolmogorov):
an n-step walk takes the fewest draws D (at least 2 for n > 1) whose tables
hold at most ``_TABLE_SITES`` outcomes together, the first D - e of
a = ceil(n / D) steps and the last e = D a - n of a - 1.  An m-step table
holds the m-step law (``evolve``'s FFT power) on the whole box that the
Chernoff bound certifies at ``_TABLE_EPSILON`` = 2^-41 (N fixed), within
2^-40 of p^{*m}, as a 32-bit draw resolves only 2^-32 per slot; the
one-step table is the sampler's.  An alias table over N outcomes draws
within total variation N * 2^-32 of its law, so a walk is within about
D N_max 2^-32.  Positions are summed in integer lattice coordinates, one
decode per block of a tile's codes, and scaled by the mesh width only on
output.

Determinism contract
--------------------
Walker ``w`` of a run with seed ``s`` consumes a dedicated, fixed window of
one PCG64DXSM sequence (numpy's recommended PCG variant, O'Neill 2014)
seeded through ``SeedSequence(s)``: the ceil(D / 2) raw 64-bit words from
word ceil(D / 2) w on, reached by ``advance``.  Draw j takes 32-bit half j,
two per word (its low half, then its high half, the order of numpy's own
``next_uint32``).  A draw u picks the alias slot (u N) >> 32 by
multiply-shift and keeps it iff u is below the slot's integer limit.  The
plan depends only on (kernel, n) and the window only on (s, w), so the
ensemble is identical for any chunking or thread count.  Walk stream
``STREAM_VERSION`` is 0.4.0 where every draw is one step; elsewhere each
version moved the ensembles, their statistics and ``ks_distance``, no law.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from threading import Thread
from typing import NamedTuple

import numpy as np
from numpy.random import PCG64DXSM

from .evolution import _fft_power, _first_marginal, _tail_reach
from .kernel import LatticeKernel, Owned, frozen, integer_count

# Raw words drawn per walk tile: small enough that its work arrays
# stay in cache, large enough that per-tile overhead does not matter.
# A tile holds them and three draw-major uint64 work arrays, 1.5 MiB in all.
_CHUNK_WORDS = 3 << 14

# Version of the seed -> ensemble mapping; README.md ("Determinism") says
# what each version draws and which earlier ensembles it does not reproduce.
STREAM_VERSION = "0.7.0"

# Most outcomes of a walk's m-step tables together: 1.5 MiB at 24 B per outcome,
# an L2-sized compromise between workloads (README.md, "Determinism").
_TABLE_SITES = 1 << 16

# Mass an m-step table may leave beyond its box, and as much again may wrap
# into it: 2^-9 of the 2^-32 that one 32-bit draw value stands for (README.md,
# "Determinism").  ``evolve`` keeps TAIL_EPSILON.
_TABLE_EPSILON = 2.0**-41

# Draw or step counts tried as divisors of n for a plan of fewer draws; the
# rest of a plan takes O(log n) Chernoff bounds, however large n is.
_DIVISOR_SCAN = 1 << 12

# Rows formatted per write in ``WalkEnsemble.to_csv``.
_CSV_BLOCK_ROWS = 1 << 16

# First-coordinate quantiles and densest histogram bins reported by
# ``WalkEnsemble.summary_dict``.
_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
_SUMMARY_BINS = 200

# Bin keys of ``_cells`` stay below this: they are int64.
_KEY_LIMIT = 1 << 63

_SHIFT32 = np.uint64(32)
_SHIFT33 = np.uint64(33)
_LOW32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class JumpSampler:
    """Alias table over every kernel outcome: the stay-put outcome 0, then
    the sites of ``kernel.shells.sites`` in order.

    A draw is a 32-bit u: slot i = (u N) >> 32 holds the c_i values from
    ceil(i 2^32 / N) up to the next slot's first value, takes i for those
    below its limit, that first value plus min(round(accept[i] 2^32 / N),
    c_i) computed exactly from Walker's float table (:func:`_alias_table`),
    and ``alias[i]`` for the rest.  ``codes[2i]`` and ``codes[2i + 1]`` pack the
    displacements of ``alias[i]`` and of i into one int64, one
    base-2^(63 // dim) digit per axis offset by the truncation radius K, so
    a walk step is one gather at the code index ``2 slot + keep`` in any
    dimension.  ``keys[i]`` = (2i + 1) 2^33 + limit[i] - 1 gives that index
    as ``(keys[slot] - u) >> 33``.  Summing at most ``block_steps`` codes
    leaves every digit below its base, so such a sum decodes by shift and
    mask.
    """

    kernel: LatticeKernel
    keys: np.ndarray   # (n_outcomes,) uint64, (2i + 1) 2^33 + limit[i] - 1
    codes: np.ndarray  # (2 n_outcomes,) int64, packed displacements of alias[i], then of i
    block_steps: int   # codes summed without a carry: block_steps * 2K < 2^(63 // dim)

    @property
    def n_outcomes(self) -> int:
        return len(self.keys)


class _Table(NamedTuple):
    """A packed table as in :class:`JumpSampler`, its digits offset by ``radius``."""

    keys: np.ndarray
    codes: np.ndarray
    block_steps: int
    radius: int


def _draw(table, u: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Code index ``2 slot + keep`` in a packed ``table`` of each 32-bit draw ``u`` (uint64).

    The slot is ``(u * N) >> 32`` (Lemire's multiply-shift), kept iff ``u``
    is below its limit.  ``work`` optionally holds two uint64 arrays shaped
    like ``u``; the index is returned in the second, viewed as int64.
    """
    slot, index = work or (None, None)
    slot = np.multiply(u, np.uint64(len(table.keys)), out=slot)
    slot >>= _SHIFT32
    # keys[slot] - u = (2 slot + 1) 2^33 + (limit - 1 - u), where the last
    # term lies in [0, 2^32) when u < limit and in [-2^32, 0) otherwise
    index = np.take(table.keys, slot.view(np.int64), out=index, mode="clip")
    index -= u
    index >>= _SHIFT33
    return index.view(np.int64)


def _alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(accept, alias) of Walker's alias method, built by one prefix-sum sweep.

    Slots with scaled weight q = N w below 1 are light, the rest heavy.  Lay
    the light deficits 1 - q end to end, and the heavy surpluses q - 1 beside
    them: each light slot takes its alias from the heavy slot whose surplus
    is current where its deficit starts, and a heavy slot that runs out
    inside a deficit keeps 1 - overdraft and passes the overdraft to the next
    heavy slot (Hübschle-Schneider & Sanders, ESA 2019).
    """
    n = len(weights)
    q = weights * n
    heavy = q >= 1.0
    heavy[np.argmax(q)] = True  # rounding can leave every q just below 1
    light_slots = np.flatnonzero(~heavy)
    heavy_slots = np.flatnonzero(heavy)
    del heavy
    accept = np.ones(n)
    if len(light_slots) == 0:  # every slot exactly full
        return accept, np.arange(n, dtype=np.int64)
    accept[light_slots] = q[light_slots]
    surplus_end = np.cumsum(q[heavy_slots] - 1.0)
    del q  # arrays of N floats set the peak memory: hold few at once
    # deficits end to end; each starts where the one before it ends
    deficit = np.zeros(len(light_slots) + 1)
    light_q = accept[light_slots]
    np.cumsum(np.subtract(1.0, light_q, out=light_q), out=deficit[1:])
    del light_q
    deficit_start, deficit_end = deficit[:-1], deficit[1:]
    # a light slot is served by the heavy slot after every surplus that ends at or
    # before its deficit's start: place the few surplus ends among the many sorted
    # starts and count them up
    ends_before = np.searchsorted(deficit_start, surplus_end)
    serving = np.cumsum(np.bincount(ends_before, minlength=len(light_slots) + 1)[:-1])
    del ends_before
    alias = np.arange(n, dtype=np.int64)
    # the last heavy slot serves the deficits that rounding leaves past every surplus
    alias[light_slots] = np.take(heavy_slots, serving, out=serving, mode="clip")
    del serving, light_slots

    # every heavy slot but the last runs out inside the deficit that starts
    # before and ends at or after its surplus end, if there is one; the last
    # keeps whatever rounding leaves
    ends = surplus_end[:-1]
    crossing = np.minimum(np.searchsorted(deficit_end, ends), len(deficit_end) - 1)
    inside = (deficit_start[crossing] < ends) & (deficit_end[crossing] >= ends)
    overdraft = np.zeros(len(ends))
    overdraft[inside] = deficit_end[crossing[inside]] - ends[inside]
    accept[heavy_slots[:-1]] = np.clip(1.0 - overdraft, 0.0, 1.0)
    alias[heavy_slots[:-1]] = heavy_slots[1:]
    full = accept == 1.0
    alias[full] = np.flatnonzero(full)
    return accept, alias


def _pack(accept: np.ndarray, alias: np.ndarray, sites: np.ndarray, radius: int) -> _Table:
    """Packed table of Walker's float table (accept, alias) over N outcomes: the rows
    of ``sites`` (within ``radius`` per axis), after a stay-put one if there are N - 1."""
    n, dim = len(accept), sites.shape[1]
    # slot i takes the u values from ceil(i 2^32 / N) up to ceil((i + 1) 2^32 / N)
    edge = np.arange(n + 1, dtype=np.uint64)
    edge <<= _SHIFT32
    edge += np.uint64(n - 1)
    edge //= np.uint64(n)
    # and keeps the first round(accept 2^32 / N) of them, at most all
    kept = accept * 2.0**32
    kept /= n
    np.round(kept, out=kept)
    np.minimum(kept, np.diff(edge), out=kept)
    keys = edge[:-1]
    keys += kept.astype(np.uint64)  # the limit
    del kept
    keys -= np.uint64(1)  # wraps at a limit of 0 and wraps back below
    keys += np.arange(1, 2 * n, 2, dtype=np.uint64) << _SHIFT33
    bits = 63 // dim  # bits per axis digit
    codes = np.zeros(2 * n, dtype=np.int64)
    own, digit = codes[1::2], np.empty(len(sites), dtype=np.int64)
    lead = n - len(sites)
    own[:lead] = sum(radius << (axis * bits) for axis in range(dim))  # the origin
    for axis in range(dim):
        np.add(sites[:, axis], radius, out=digit)
        digit <<= axis * bits
        own[lead:] += digit
    del digit
    codes[0::2] = own[alias]

    keys.setflags(write=False)
    codes.setflags(write=False)
    # the cube guard of enumerate_shells and the table budget keep 2 radius far below 2^bits
    return _Table(keys, codes, ((1 << bits) - 1) // (2 * radius), radius)


def build_sampler(kernel: LatticeKernel) -> JumpSampler:
    """Packed alias table over origin + all retained sites."""
    sites = kernel.shells.sites
    if len(sites) + 1 > 2**30:
        raise ValueError("an alias table draws at most 2^30 outcomes")
    weights = np.concatenate([[kernel.p0], kernel.site_probabilities])
    accept, alias = _alias_table(weights)
    del weights  # arrays of N numbers set the peak memory: hold few at once
    return JumpSampler(kernel, *_pack(accept, alias, sites, kernel.trunc_radius)[:3])


def _composite(kernel: LatticeKernel, steps: int, radius: int) -> _Table:
    """Packed table of the ``steps``-step law from the origin, ``evolve``'s FFT power on the
    box of ``radius``, normalized, every site an outcome, mass 0 included: N is fixed."""
    law = _fft_power(np.ones((1,) * kernel.dim), kernel.orthant(), steps, radius)[0]
    sites = np.indices(law.shape).reshape(kernel.dim, -1).T - radius
    return _pack(*_alias_table(law.ravel() / law.sum()), sites, radius)


def _plan(sampler: JumpSampler, n_steps: int) -> list[tuple[_Table, int]]:
    """(table, draws) of a walker's draws in draw order (see the module docstring)."""
    kernel, K, dim = sampler.kernel, sampler.kernel.trunc_radius, sampler.kernel.dim
    mgf = functools.cache(lambda: _first_marginal(kernel))
    radius = functools.cache(  # of a box
        lambda m: max(_tail_reach(kernel, m, mgf(), _TABLE_EPSILON)[0] - 1, K))

    def fits(*steps):  # do these tables hold at most _TABLE_SITES outcomes? radii lie in [K, mK]
        held = lambda r: sum((2 * r(m) + 1) ** dim for m in steps if m > 1) <= _TABLE_SITES
        return held(lambda m: K) and (held(lambda m: m * K) or held(radius))

    def largest(fits, hi):  # the largest m <= hi that fits: hi, or gallop up from 1 and bisect
        lo, step = (hi, 0) if fits(hi) else (1, 1)
        while step and lo + step < hi and fits(lo + step):
            step *= 2
        lo, hi = lo + step // 2, min(lo + step, hi)
        while hi - lo > 1:
            lo, hi = (mid, hi) if fits(mid := (lo + hi) // 2) else (lo, mid)
        return lo

    # longest draws: alone, and beside one a step shorter; >= 2 draws for n > 1, m an exact float
    single = largest(fits, min(-(-n_steps // 2), 1 << 53))
    pair = single if n_steps % single == 0 else largest(lambda m: fits(m, m - 1), single)
    # fewer than ceil(n / pair) draws only as n / a, a | n in (pair, single]: scan the
    # first _DIVISOR_SCAN candidates of the shorter range
    first, draws = -(-n_steps // single), -(-n_steps // pair)
    if draws - first < single - pair:
        draws = next((d for d in range(first, draws)[:_DIVISOR_SCAN] if n_steps % d == 0), draws)
    else:
        lengths = range(single, pair, -1)[:_DIVISOR_SCAN]
        draws = next((n_steps // a for a in lengths if n_steps % a == 0), draws)
    steps = -(-n_steps // draws)
    one = _Table(sampler.keys, sampler.codes, sampler.block_steps, K)
    pairs = ((steps, n_steps - draws * (steps - 1)), (steps - 1, draws * steps - n_steps))
    return [(one if m == 1 else _composite(kernel, m, radius(m)), count) for m, count in pairs if count]


@dataclass(frozen=True)
class Histogram:
    """Walker counts on the occupied cubic bins of side ``bin_width``, centred
    at ``bins * bin_width``: ``bins`` (bins, dim) int64 bin indices in C order."""

    dim: int
    bin_width: float
    bins: np.ndarray
    counts: np.ndarray
    n_samples: int

    @property
    def density(self) -> np.ndarray:  # per occupied bin
        return self.counts / (self.n_samples * self.bin_width**self.dim)


class Census(NamedTuple):
    """What the summary statistics and the KS distance read of an ensemble, counted once.

    ``first`` holds the distinct first lattice coordinates in ascending order
    and ``first_counts`` how many walkers hold each.  ``histogram`` is the
    summary's :class:`Histogram`: on the lattice sites in one dimension,
    where its bins are the first coordinates again, and on cubes of side 4h
    beyond.
    """

    first: np.ndarray
    first_counts: np.ndarray
    histogram: Histogram


@dataclass(frozen=True)
class WalkEnsemble:
    """Final positions of n_walkers >= 1 independent walkers after n_steps
    jumps, (n_walkers, dim) int64 lattice points; ValueError otherwise.
    They are kept read-only, a copy of the caller's array
    (:func:`~fracwalk.kernel.frozen`)."""

    dim: int
    h: float
    tau: float
    n_steps: int
    n_walkers: int
    seed: int
    lattice_positions: np.ndarray  # (n_walkers, dim) int64

    def __post_init__(self):
        integer_count(self.n_walkers, "n_walkers", 1)
        sites = self.lattice_positions
        held = sites.array if isinstance(sites, Owned) else sites
        if not (isinstance(held, np.ndarray) and held.dtype == np.int64
                and held.shape == (self.n_walkers, self.dim)):
            raise ValueError(f"lattice_positions must be int64 of shape ({self.n_walkers}, {self.dim})")
        object.__setattr__(self, "lattice_positions", frozen(sites))

    @property
    def final_positions(self) -> np.ndarray:
        """Physical positions, exact lattice points times the mesh width."""
        return self.lattice_positions.astype(float) * self.h

    def to_csv(self, path) -> None:
        """Header ``x1,...``, one row of ``repr`` floats per walker, CRLF ends:
        the format of :func:`fracwalk.output.write_csv`.

        ``repr`` runs once per distinct coordinate of each column (found by
        :func:`_distinct`), and rows are written in fixed-size blocks, each
        block's coordinates looked up among the distinct ones.
        """
        columns = []
        for column in self.lattice_positions.T:
            values, _ = _distinct(column)
            text = np.array([repr(x) for x in (values * self.h).tolist()], dtype=object)
            columns.append((column, _indexer(values, self.n_walkers), text))
        with open(path, "w", newline="") as f:
            f.write(",".join(f"x{i+1}" for i in range(self.dim)) + "\r\n")
            for start in range(0, self.n_walkers, _CSV_BLOCK_ROWS):
                fields = [
                    text[index(column[start : start + _CSV_BLOCK_ROWS])].tolist()
                    for column, index, text in columns
                ]
                rows = fields[0] if self.dim == 1 else map(",".join, zip(*fields))
                f.write("\r\n".join(rows) + "\r\n")

    def census(self) -> Census:
        """The ensemble's :class:`Census`, in memory proportional to the
        walkers whatever their spread."""
        first, first_counts = _distinct(self.lattice_positions[:, 0])
        hist = (Histogram(1, self.h, first[:, None], first_counts, self.n_walkers)  # sites: counted
                if self.dim == 1 else histogram(self, 4 * self.h))
        return Census(first, first_counts, hist)

    def summary_dict(self, census: Census | None = None) -> dict:
        """Moments, first-coordinate quantiles and the histogram's
        ``_SUMMARY_BINS`` densest bins, JSON-ready.

        The quantiles and the histogram come from ``census``, :meth:`census`
        if it is not given.
        """
        if census is None:
            census = self.census()
        qs = _quantiles(census.first * self.h, census.first_counts, _QUANTILE_LEVELS)
        x = self.final_positions
        mean = x.mean(axis=0).tolist()
        first = np.abs(x[:, 0], out=x[:, 0])  # x is a copy: its first column turns into |x1|
        # the densest bins, listed in C order
        hist = census.histogram
        bins, density = hist.bins, hist.density
        if len(bins) > _SUMMARY_BINS:
            keep = np.argsort(density)[::-1][:_SUMMARY_BINS]
            keep.sort()
            bins, density = bins[keep], density[keep]
        return {
            "dim": self.dim,
            "h": self.h,
            "tau": self.tau,
            "n_steps": self.n_steps,
            "n_walkers": self.n_walkers,
            "seed": self.seed,
            "stream": STREAM_VERSION,
            "mean": mean,
            "mean_abs_first_coordinate": float(first.mean()),
            "quantiles_first_coordinate": {
                str(q): float(v) for q, v in zip(_QUANTILE_LEVELS, qs)
            },
            "histogram": {
                "bin_width": hist.bin_width,
                "n_samples": self.n_walkers,
                "centers": (bins * hist.bin_width).tolist(),
                "density": density.tolist(),
            },
        }


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of an int64 array in ascending order and how
    often each occurs, as ``np.unique(keys, return_counts=True)`` gives them.

    One ``bincount`` counts them when they span at most 4 integers per entry,
    with none of the sort np.unique takes; np.unique itself otherwise.
    """
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span <= 4 * len(keys):
        counts = np.bincount(np.subtract(keys, lo), minlength=span)
        values = np.flatnonzero(counts)
        counts = counts[values]
        values += lo
        return values, counts
    return np.unique(keys, return_counts=True)


def _indexer(values: np.ndarray, n: int):
    """A function giving the index in the ascending int64 ``values`` of each
    key, all of them among the values.  It looks keys up in a table over the
    values' span when that holds at most 4 integers per entry of the n-entry
    array the values came from (the rule of :func:`_distinct`), and by binary
    search otherwise."""
    lo = int(values[0])
    span = int(values[-1]) - lo + 1
    if span > 4 * n:
        return functools.partial(np.searchsorted, values)
    table = np.empty(span, np.intp)
    table[values - lo] = np.arange(len(values))

    def index(keys: np.ndarray) -> np.ndarray:
        offset = np.subtract(keys, lo)
        return np.take(table, offset, out=offset, mode="clip")  # every offset is in range

    return index


def _cells(rows) -> tuple[np.ndarray, np.ndarray]:
    """The occupied cells of per-axis int64 index rows in C order, (cells, dim),
    and how many entries hold each.

    The rows fold into one int64 key per entry, built in place, the first
    axis most significant: key * side + (row - min).  The distinct keys give
    the cells; keys spanning at most 4 per entry are counted by one
    ``bincount`` over their span, the key freed before the occupied keys are
    picked out, and by :func:`_distinct` otherwise.  When the product of the
    sides reaches ``_KEY_LIMIT`` no int64 key holds every cell, and np.unique
    counts the stacked rows instead: its lexicographic row order is C order.
    """
    lows = [int(row.min()) for row in rows]
    sides = [int(row.max()) - lo + 1 for row, lo in zip(rows, lows)]
    span = math.prod(sides)
    if span >= _KEY_LIMIT:
        return np.unique(np.column_stack(rows), axis=0, return_counts=True)
    key = np.subtract(rows[0], lows[0])
    for row, side, lo in zip(rows[1:], sides[1:], lows[1:]):
        key *= side
        key += row  # wraps past 2^63 at most in between: the result is below span
        key -= lo
    if span <= 4 * len(key):
        counts = np.bincount(key, minlength=span)
        del key
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    else:
        keys, counts = _distinct(key)
        del key
    cells = np.empty((len(keys), len(sides)), np.int64)
    for axis in reversed(range(len(sides))):
        keys, offset = np.divmod(keys, sides[axis])
        cells[:, axis] = offset + lows[axis]
    return cells, counts


def _quantiles(values: np.ndarray, counts: np.ndarray, levels) -> np.ndarray:
    """``np.quantile`` by numpy's default "linear" rule, bit for bit, of the
    sample that holds ``counts[i]`` copies of the ascending ``values[i]``.

    numpy's own index and interpolation formulas, read off the census:
    np.quantile would need the walkers themselves, partition them, and on
    first use import numpy.ma (about 15 ms) through np.unique.
    """
    ends = np.cumsum(counts)  # one past the last sorted entry of each value
    n = int(ends[-1])
    virtual = (n - 1) * np.asarray(levels, dtype=float)
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1
    below[top] = above[top] = -1  # the last entry
    below, above = below.astype(np.intp), above.astype(np.intp)
    a, b = (values[np.searchsorted(ends, entry % n, side="right")] for entry in (below, above))
    t = virtual - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _run_chunks(plan: list, seed: int, draws: int, chunks: list, out: np.ndarray) -> None:
    """Walk ``(first, count)`` chunks of walkers in tiles, reusing one set of arrays.

    A tile is the whole chunk, or the next span of at most ``_CHUNK_WORDS``
    words of a walker whose window is longer; draw j is draw j of the
    walker's window either way, from its table in ``plan``.  A tile is
    walked draw-major, a row of walkers per word: the low (even) halves of
    its words, then the high (odd) halves, so each table's draws are whole
    rows and the tile's codes its first rows.  A position is an order-free
    sum of codes, so those rows are summed in blocks short enough for every
    table's digits (the plan's least ``block_steps``) and each block sum is
    decoded into the chunk's axis-major positions, which start at minus the
    digits' offsets.  Fresh temporaries per tile would go back to the
    operating system and be faulted in on every tile, doubling walk time.
    """
    dim, bits = out.shape[1], 63 // out.shape[1]
    mask = (1 << bits) - 1
    words = (draws + 1) // 2
    span = min(draws, 2 * _CHUNK_WORDS)
    most = max(count for _, count in chunks)
    size = most * ((span + 1) // 2)
    halves, work = np.empty(2 * size, np.uint64), np.empty(size, np.uint64)
    position = np.empty((dim, most), np.int64)
    ends = np.cumsum([0] + [count for _, count in plan]).tolist()  # each table's draws
    block = min(table.block_steps for table, _ in plan)
    offset = sum(count * table.radius for table, count in plan)  # of every axis
    # one generator, rewound per chunk: seeding hashes the seed afresh,
    # which costs several times a rewind
    bitgen = PCG64DXSM(seed)
    origin = bitgen.state
    for first, count in chunks:
        bitgen.state = origin
        bitgen.advance(first * words)
        walked = position[:, :count]
        walked.fill(-offset)
        for start in range(0, draws, span):
            length = min(span, draws - start)
            # the chunk's windows, or the next span of one walker's window
            stride = (length + 1) // 2
            raw = bitgen.random_raw(count * stride)
            # draw-major: row r of each half holds word r of every walker
            u = halves[: 2 * count * stride].reshape(2 * stride, count)
            low, high = u[:stride], u[stride:]
            index = work[: count * stride].reshape(stride, count)
            np.copyto(high, raw.reshape(count, stride).T)
            slot = raw.reshape(stride, count)  # copied: its buffer takes the slots
            np.bitwise_and(high, _LOW32, out=low)
            high >>= _SHIFT32
            for half, drawn in enumerate((low, high)):  # row r is draw start + 2 r + half
                # the draws are spent once indexed: their buffer takes the codes
                codes = drawn.view(np.int64)
                for (table, _), lo, hi in zip(plan, ends, ends[1:]):
                    lo, hi = ((min(max(e - start, 0), length) + 1 - half) // 2 for e in (lo, hi))
                    picked = _draw(table, drawn[lo:hi], (slot[lo:hi], index[lo:hi]))
                    np.take(table.codes, picked, out=codes[lo:hi], mode="clip")
            # the low half's stride rows and the high half's first length - stride
            codes = u[:length].view(np.int64)
            digit = index[0].view(np.int64)
            for row in range(0, length, block):
                total = np.sum(codes[row : row + block], axis=0, out=slot[0].view(np.int64))
                for axis in range(dim - 1):
                    walked[axis] += np.bitwise_and(total, mask, out=digit)
                    total >>= bits
                walked[dim - 1] += total
        out[first : first + count] = walked.T


def run_walks(
    sampler: JumpSampler,
    n_steps: int,
    n_walkers: int,
    seed: int,
    threads: int = 1,
) -> WalkEnsemble:
    """Simulate walkers; output depends only on (kernel, seed, n_steps, n_walkers)."""
    n_steps = integer_count(n_steps, "n_steps", 0)  # PCG64DXSM.advance takes no numpy integer
    n_walkers = integer_count(n_walkers, "n_walkers", 1)
    threads = integer_count(threads, "threads", 1)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    kernel = sampler.kernel
    plan = _plan(sampler, n_steps) if n_steps > 0 and kernel.sigma > 0.0 else []
    draws = sum(count for _, count in plan)
    words = (draws + 1) // 2  # a walker's window
    if n_walkers * words > 1 << 128:  # windows past the period would overlap
        raise ValueError(f"{n_walkers} walker windows of 2^{math.log2(words):.1f} words overrun "
                         "the generator's period of 2^128 words")
    positions = np.zeros((n_walkers, kernel.dim), dtype=np.int64)
    if plan:
        # cap per-tile buffers; tile boundaries never affect results because
        # each walker owns a fixed stream window
        chunk = max(1, _CHUNK_WORDS // words)
        chunks = [(start, min(chunk, n_walkers - start)) for start in range(0, n_walkers, chunk)]
        workers = min(threads, len(chunks), os.cpu_count() or 1)
        errors = [None] * workers

        def walk(w: int) -> None:
            try:
                _run_chunks(plan, seed, draws, chunks[w::workers], positions)
            except BaseException as exc:  # re-raised once every worker is done
                errors[w] = exc

        # the calling thread walks as worker 0
        pool = [Thread(target=walk, args=(w,)) for w in range(1, workers)]
        for thread in pool:
            thread.start()
        walk(0)
        for thread in pool:
            thread.join()
        for exc in errors:
            if exc is not None:
                raise exc
    return WalkEnsemble(
        dim=kernel.dim,
        h=kernel.h,
        tau=kernel.tau,
        n_steps=n_steps,
        n_walkers=n_walkers,
        seed=int(seed),
        lattice_positions=Owned(positions),
    )


def histogram(ensemble: WalkEnsemble, bin_width: float) -> Histogram:
    """The ensemble's walkers counted on cubic bins of ``bin_width``, bin
    floor(x / bin_width + 0.5) on each axis, in memory proportional to the
    walkers however far apart they land.  Bins of width h are the lattice
    sites themselves: floor(k h / h + 0.5) = k for every |k| < 2^50."""
    if not ensemble.h <= bin_width < math.inf:
        raise ValueError(f"bin_width must be finite and at least the mesh width h: {bin_width!r}")

    def bin_row(column):
        x = column * ensemble.h
        x /= bin_width
        x += 0.5
        return np.floor(x, out=x).astype(np.int64)

    # one axis at a time (a column reduction of the (M, dim) layout is slow);
    # site bins are the columns themselves, views with no copy.  Other rows are
    # made up front: rows freed and made afresh per axis are faulted in anew
    columns = ensemble.lattice_positions.T
    bins, counts = _cells(columns if bin_width == ensemble.h else list(map(bin_row, columns)))
    bins.setflags(write=False)
    counts.setflags(write=False)
    return Histogram(ensemble.dim, float(bin_width), bins, counts, ensemble.n_walkers)
