"""Monte Carlo sampling of lattice walks S_n = h(X_1 + ... + X_n).

Sampling is exact with respect to the (truncated, renormalized) kernel up to
the 32-bit resolution of the draws: an alias table over the finitely many
jump outcomes gives O(1) draws whose law is within total variation N * 2^-32
of the kernel's (N outcomes).  Positions are accumulated in integer lattice
coordinates and scaled by the mesh width only on output, so no float drift
can move a walker off the lattice.

Determinism contract
--------------------
Walker ``w`` of a run with seed ``s`` consumes a dedicated, fixed window of
the counter-based Philox-4x64 stream keyed by ``s``: one raw 64-bit word per
step, the window padded to a whole number of 256-bit counter blocks (four
words).  The high 32 bits of a word pick the alias slot by multiply-shift,
the low 32 bits decide between the slot and its alias.  Philox comes from
the Random123 family and passes the standard statistical batteries (TestU01
BigCrush); because the window depends only on (s, w), the resulting ensemble
is identical for any chunking or thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .kernel import LatticeKernel

# Raw words drawn per walk tile: small enough that its work arrays
# stay in cache, large enough that per-tile overhead does not matter.
_CHUNK_WORDS = 1 << 16

# Rows formatted per write in ``WalkEnsemble.to_csv``.
_CSV_BLOCK_ROWS = 1 << 16

_SHIFT32 = np.uint64(32)


@dataclass(frozen=True)
class JumpSampler:
    """Alias table over every kernel outcome (the stay-put outcome included).

    ``displacements[i]`` is the integer jump of outcome i; a draw picks slot
    i uniformly and takes it with probability ``accept[i]``, otherwise takes
    ``alias[i]``.  ``threshold`` is ``accept`` on the 32-bit scale the draws
    use.  ``codes[2i]`` and ``codes[2i + 1]`` pack the displacements of
    ``alias[i]`` and of i into one int64, one base-2^(63 // dim) digit per
    axis offset by the truncation radius K, so a walk step is one gather at
    ``2 slot + keep`` in any dimension.  Summing at most ``block_steps``
    codes leaves every digit below its base, so such a sum decodes by shift
    and mask.
    """

    kernel: LatticeKernel
    displacements: np.ndarray  # (n_outcomes, dim) int64
    weights: np.ndarray        # (n_outcomes,) the exact outcome probabilities
    accept: np.ndarray         # (n_outcomes,) float64 in [0, 1]
    alias: np.ndarray          # (n_outcomes,) int64; alias[i] == i where accept[i] == 1
    threshold: np.ndarray      # (n_outcomes,) uint32, round(accept * 2^32) capped at 2^32 - 1
    codes: np.ndarray          # (2 n_outcomes,) int64, packed displacements[alias[i]], displacements[i]
    block_steps: int           # codes summed without a carry: block_steps * 2K < 2^(63 // dim)

    @property
    def n_outcomes(self) -> int:
        return len(self.weights)

    def induced_probabilities(self) -> np.ndarray:
        """Outcome law the table actually samples from (for exactness checks)."""
        n = self.n_outcomes
        p = self.accept / n
        np.add.at(p, self.alias, (1.0 - self.accept) / n)
        return p

    def sample(self, rng: Generator, size: int) -> np.ndarray:
        """Draw ``size`` outcome indices (used for single-law statistics)."""
        slot, keep = _draw(self, rng.bit_generator.random_raw(size))
        return np.where(keep, slot, self.alias[slot])


def _draw(
    sampler: JumpSampler, raw: np.ndarray, work: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Alias slot and keep flag of each raw 64-bit word (any array shape).

    The slot is ``(hi * N) >> 32`` with ``hi = raw >> 32`` (Lemire's
    multiply-shift); the slot is kept iff ``raw & 0xFFFFFFFF`` is below its
    threshold.  ``work`` optionally holds uint64, uint32, uint32 and bool
    arrays shaped like ``raw`` that receive the results instead of new ones.
    """
    slot, low, threshold, keep = work or (None,) * 4
    slot = np.right_shift(raw, _SHIFT32, out=slot)
    slot *= np.uint64(sampler.n_outcomes)
    slot >>= _SHIFT32
    slot = slot.view(np.int64)  # every slot is below N < 2^32
    if low is None:
        low = np.empty(raw.shape, np.uint32)
    np.copyto(low, raw, casting="unsafe")  # unsigned narrowing keeps raw & 0xFFFFFFFF
    threshold = np.take(sampler.threshold, slot, out=threshold, mode="clip")
    return slot, np.less(low, threshold, out=keep)


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
    serving = np.searchsorted(surplus_end, deficit_start, side="right")
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


def build_sampler(kernel: LatticeKernel) -> JumpSampler:
    """Alias table over origin + all retained sites."""
    sites = kernel.shells.sites
    displacements = np.vstack([np.zeros((1, kernel.dim), dtype=np.int64), sites])
    weights = np.concatenate([[kernel.p0], kernel.site_probabilities])
    if len(weights) >= 2**32:
        raise ValueError("an alias table draws at most 2^32 - 1 outcomes")
    accept, alias = _alias_table(weights)
    threshold = np.minimum(np.round(accept * 2.0**32), 2.0**32 - 1).astype(np.uint32)
    K, bits = kernel.trunc_radius, _digit_bits(kernel.dim)
    codes = np.zeros(2 * len(weights), dtype=np.int64)
    own, digit = codes[1::2], np.empty(len(weights), dtype=np.int64)
    for axis in range(kernel.dim):
        np.add(displacements[:, axis], K, out=digit)
        digit <<= axis * bits
        own += digit
    del digit
    codes[0::2] = own[alias]

    fields = (displacements, weights, accept, alias, threshold, codes)
    for arr in fields:
        arr.setflags(write=False)
    # the cube guard of enumerate_shells keeps 2K far below 2^bits
    return JumpSampler(kernel, *fields, block_steps=((1 << bits) - 1) // (2 * K))


def _digit_bits(dim: int) -> int:
    """Bits per axis digit of a packed displacement code."""
    return 63 // dim


@dataclass(frozen=True)
class WalkEnsemble:
    """Final positions of independent walkers after n_steps jumps."""

    dim: int
    h: float
    tau: float
    n_steps: int
    n_walkers: int
    seed: int
    lattice_positions: np.ndarray  # (n_walkers, dim) int64

    @property
    def final_positions(self) -> np.ndarray:
        """Physical positions, exact lattice points times the mesh width."""
        return self.lattice_positions.astype(float) * self.h

    def to_csv(self, path) -> None:
        """Header ``x1,...``, one row of ``repr`` floats per walker, CRLF ends.

        ``repr`` runs once per distinct coordinate of each column, and rows
        are written in fixed-size blocks; the bytes are those of
        ``csv.writer`` fed ``repr(float(x))`` fields.
        """
        columns = []
        for axis in range(self.dim):
            values, inverse = np.unique(self.lattice_positions[:, axis], return_inverse=True)
            text = np.array([repr(x) for x in (values * self.h).tolist()], dtype=object)
            columns.append((text, inverse))
        with open(path, "w", newline="") as f:
            f.write(",".join(f"x{i+1}" for i in range(self.dim)) + "\r\n")
            for start in range(0, self.n_walkers, _CSV_BLOCK_ROWS):
                fields = [
                    text[inverse[start : start + _CSV_BLOCK_ROWS]].tolist()
                    for text, inverse in columns
                ]
                rows = fields[0] if self.dim == 1 else map(",".join, zip(*fields))
                f.write("\r\n".join(rows) + "\r\n")

    def summary_dict(self, quantile_levels=(0.05, 0.25, 0.5, 0.75, 0.95)) -> dict:
        x = self.final_positions
        first = x[:, 0]
        qs = _quantiles(first, quantile_levels)
        hist = histogram(self, bin_width=self.h if self.dim == 1 else 4 * self.h)
        return {
            "dim": self.dim,
            "h": self.h,
            "tau": self.tau,
            "n_steps": self.n_steps,
            "n_walkers": self.n_walkers,
            "seed": self.seed,
            "mean": x.mean(axis=0).tolist(),
            "mean_abs_first_coordinate": float(np.abs(first).mean()),
            "quantiles_first_coordinate": {
                str(q): float(v) for q, v in zip(quantile_levels, qs)
            },
            "histogram": hist.to_json_dict(max_bins=200),
        }


def _quantiles(x: np.ndarray, levels) -> np.ndarray:
    """``np.quantile(x, levels)`` by numpy's default "linear" rule, bit for bit.

    One sort and numpy's own index and interpolation formulas; np.quantile
    itself partitions through np.unique, which imports numpy.ma (14 ms).
    """
    x = np.sort(x)
    n = len(x)
    virtual = (n - 1) * np.asarray(levels, dtype=float)
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1
    below[top] = above[top] = -1  # the last value
    below, above = below.astype(np.intp), above.astype(np.intp)
    a, b = x[below], x[above]
    t = virtual - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _walker_words(n_steps: int) -> int:
    # one raw word per step, padded to whole Philox blocks (4 words)
    return 4 * ((n_steps + 3) // 4)


def _run_chunks(
    sampler: JumpSampler, seed: int, n_steps: int, chunks: list, out: np.ndarray,
) -> None:
    """Walk ``(first, count)`` chunks of walkers in tiles, reusing one set of arrays.

    A tile is the whole chunk, or, for a walker whose window exceeds
    ``_CHUNK_WORDS``, one run of at most that many of its steps, drawn in
    whole Philox blocks where the previous run stopped; step s is word s of
    the walker's window either way.  Fresh temporaries per tile would go
    back to the operating system and be faulted in again on every tile,
    which doubles the walk time.
    """
    kernel = sampler.kernel
    bits = _digit_bits(kernel.dim)
    mask = (1 << bits) - 1
    words = _walker_words(n_steps)
    # a walker longer than one tile walks in spans of whole Philox blocks
    span = min(n_steps, max(4, _CHUNK_WORDS - _CHUNK_WORDS % 4))
    size = max(count for _, count in chunks) * span
    work = [np.empty(size, t) for t in (np.uint64, np.uint32, np.uint32, bool)]
    for first, count in chunks:
        rows = slice(first, first + count)
        bitgen = Philox(key=np.uint64(seed)).advance(first * words // 4)
        for start in range(0, n_steps, span):
            length = min(span, n_steps - start)
            # the chunk's windows, or the next span of one walker's window
            stride = _walker_words(length)
            raw = bitgen.random_raw(count * stride)
            tile = [w[: count * length].reshape(count, length) for w in work]
            slot, keep = _draw(sampler, raw.reshape(count, stride)[:, :length], tuple(tile))
            slot <<= 1
            slot += keep
            # the raw words are spent once drawn: their buffer takes the codes
            codes = raw[: count * length].view(np.int64).reshape(count, length)
            np.take(sampler.codes, slot, out=codes, mode="clip")
            for lo in range(0, length, sampler.block_steps):
                block = codes[:, lo : lo + sampler.block_steps]
                total = block.sum(axis=1)
                for axis in range(kernel.dim):
                    digit = (total >> (axis * bits)) & mask
                    out[rows, axis] += digit - block.shape[1] * kernel.trunc_radius


def run_walks(
    sampler: JumpSampler,
    n_steps: int,
    n_walkers: int,
    seed: int,
    threads: int = 1,
) -> WalkEnsemble:
    """Simulate walkers; output depends only on (kernel, seed, n_steps, n_walkers)."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if n_walkers < 1:
        raise ValueError("n_walkers must be >= 1")
    kernel = sampler.kernel
    positions = np.zeros((n_walkers, kernel.dim), dtype=np.int64)
    if n_steps > 0 and kernel.sigma > 0.0:
        # cap per-tile buffers; tile boundaries never affect results because
        # each walker owns a fixed stream window
        chunk = max(1, _CHUNK_WORDS // _walker_words(n_steps))
        chunks = [
            (start, min(chunk, n_walkers - start))
            for start in range(0, n_walkers, chunk)
        ]
        workers = min(threads, len(chunks), os.cpu_count() or 1)
        if workers <= 1:
            _run_chunks(sampler, seed, n_steps, chunks, positions)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_chunks, sampler, seed, n_steps, chunks[w::workers], positions)
                    for w in range(workers)
                ]
                for fut in futures:
                    fut.result()
    positions.setflags(write=False)
    return WalkEnsemble(
        dim=kernel.dim,
        h=kernel.h,
        tau=kernel.tau,
        n_steps=n_steps,
        n_walkers=n_walkers,
        seed=int(seed),
        lattice_positions=positions,
    )


@dataclass(frozen=True)
class Histogram:
    """Density histogram on cubic bins centered at multiples of bin_width."""

    dim: int
    bin_width: float
    origin_index: np.ndarray  # (dim,) lattice index of counts[0,...,0]
    counts: np.ndarray
    n_samples: int

    @property
    def density(self) -> np.ndarray:
        return self.counts / (self.n_samples * self.bin_width**self.dim)

    def bin_centers_first_axis(self) -> np.ndarray:
        n = self.counts.shape[0]
        return (np.arange(n) + self.origin_index[0]) * self.bin_width

    def to_json_dict(self, max_bins: int | None = None) -> dict:
        idx = np.argwhere(self.counts > 0)
        dens = self.density[tuple(idx.T)]
        if max_bins is not None and len(idx) > max_bins:
            keep = np.argsort(dens)[::-1][:max_bins]
            keep.sort()
            idx, dens = idx[keep], dens[keep]
        centers = (idx + self.origin_index) * self.bin_width
        return {
            "bin_width": self.bin_width,
            "n_samples": self.n_samples,
            "centers": centers.tolist(),
            "density": dens.tolist(),
        }


def histogram(ensemble: WalkEnsemble, bin_width: float) -> Histogram:
    """Bin the ensemble; densities integrate to 1 over the binned volume."""
    if bin_width < ensemble.h:
        raise ValueError("bin_width must be at least the mesh width h")
    x = ensemble.final_positions
    bins = np.floor(x / bin_width + 0.5).astype(np.int64)
    lo = bins.min(axis=0)
    shape = tuple(bins.max(axis=0) - lo + 1)
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, tuple((bins - lo).T), 1)
    counts.setflags(write=False)
    return Histogram(
        dim=ensemble.dim,
        bin_width=float(bin_width),
        origin_index=lo,
        counts=counts,
        n_samples=ensemble.n_walkers,
    )
