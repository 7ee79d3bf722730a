"""Exact posterior pattern distributions by finite Markov chain imbedding.

For a two-state posterior chain with staying probabilities a_t (state 1) and
b_t (state 2), each supported statistic gets an augmented (counter, situation)
Markov chain whose step-t transition matrix is a sparse function of
(a_t, b_t).  Propagating the augmented initial vector through the sequence
and aggregating the final vector yields the exact posterior distribution of
the statistic, truncated at a level ell with the remaining mass reported as
an explicit ">= ell+1" overflow bucket.  auto_truncation chooses ell from the
chain, without sampling: exact for the counting statistics, overflow at most
1e-12 for longest_run.

Statistics:

  jumps        number of 1 -> 2 transitions of the hidden chain
  runs         number of runs of state 2 (a start in state 2 opens a run)
  positions    number of positions spent in state 2
  exact_run    number of maximal state-2 runs of exactly a given length;
               a run still open when the sequence ends counts by its
               current length
  longest_run  length of the longest state-2 run

Blocks and templates.  The imbedding of a counting statistic is ell + 1
blocks of identical situations, block c for the paths that have counted c
so far, followed by one absorbing overflow state.  jumps, runs and
positions have two situations per block (in state 2, in state 1); exact_run
with run length k has k + 2 (a run already longer than k, in state 1, and a
run of length 1..k in progress).  One block's transitions, its template,
describe the whole step matrix: an entry (src, dst, kind, advance) moves the
mass of situation src to dst with probability a, 1-a, b or 1-b by kind, and
counts one more if advance is 1.  src and dst may be ranges (runs growing by
one) or a range into one situation (runs ending).  longest_run is the
exception: its spec has one state per value 0..ell and then the overflow,
and propagate computes it by the longest-run scan below, not from a
template.  A spec holds only the state space; the step rule is propagate's.

The blocked scan.  propagate carries a counting statistic as a (count x
situation) array v through blocks of in-block steps, not position by
position.  It builds the transfers of a group of blocks at once, in one
batched pass over the template per in-block step, and multiplies v by one
block's transfer at a time; counts above ell go to the overflow.  After each
carry the window loses the count rows at either end whose every entry is at
most 1e-30 (_NEGLIGIBLE), so it holds only the counts with mass: it no
longer grows by a block's degree per block down into subnormal tails, and a
row lost at the low end never comes back, since counts never decrease.  Each
trim drops at most the spec's size times 1e-30, so a call drops at most
(blocks + 1) * size * 1e-30 in all, below 8e-20 at n = 10^6.  With W
situations, a transfer takes one of two forms:

  dense       M[i, j, d], the probability of going from situation i to j
              inside the block while counting d.  Blocks have
              L = min(isqrt(n - 1), 32) steps, and d runs to the most a
              block can count (L for positions, (L + 1) // 2 for jumps and
              runs, (L + k) // (k + 1) for exact_run:k) or to ell + 1, whose
              entry then holds every count from ell + 1 on.  The carry
              v'[c, j] = sum_i sum_d v[c - d, i] M[i, j, d] is one
              batched matrix product in place.  With P = D + 1 degrees,
              the window sits in one of two buffers, allocated once per
              call, between P - 1 zero rows and the zero rows its carry
              reads past it.  Row c reads the P * W values that end with
              count c; grouped by c mod P, one strided view holds every
              window, the product takes M with its degrees reversed, as the
              build lays it out with one transpose per group of blocks, and
              writes the carried rows straight into the other buffer.  The
              trim then moves the live rows to the front and zeroes only the
              rows after them that the next carry reads.  The build keeps
              the blocks of a group along the contiguous axis, so that each
              of its updates is one long loop over them.  Per block of
              D + 1 degrees this costs O(L W^2 D) to build and
              O(counts W^2 D) to carry, plus about 15 us of fixed cost per
              block on a 2-core host.
              On the trimmed window a carry costs about the same at any L,
              while the build grows with L, so L is capped (_BLOCK_STEPS).
              Over caps of 32 to 64 in steps of 8, the eight counting
              calls of the fmci-auto benchmark series (n = 10^4, seeds 0
              and 5, medians of 3 rounds) took 0.095-0.097 s at 32, 0.10 s
              at 40, 0.10-0.11 s at 48, 0.11 s at 56 and 0.13 s at 64, and
              five of them at n = 10^5 0.60, 0.59, 0.62, 0.65 and 0.73 s;
              32 was the fastest or within noise of it at both n.
  count-free  exact_run with large k.  Blocks have
              L = min(isqrt(n - 1), 32, k) steps, so a run that starts
              inside a block cannot reach length k there; a block counts
              once at most, when a carried run of length k + 1 - s ends at
              in-block step s.  The rest of the block is the count-free
              two-state chain: F[tau, r], the chance of ending the block in
              state 1 (r = 0) or in a run of length r given state 1 after
              in-block step tau, is all it needs.  The carry gathers the
              mass that enters state 1 at each in-block step, by count, into
              one matrix, multiplies it by F, and shifts the carried runs
              that survive the block by L.  F costs O(L^2) per block, so it
              is built for a group of blocks that fits in 1 MB at a time,
              and the carry costs O(counts L^2).

exact_run takes the count-free form when W = k + 2 is wider than
_DENSE_WIDTH_MAX = 15.  On earthquake-model series with blocks of 32 steps,
the two forms took equal time between k = 12 and 13 at n = 10^4, between 13
and 14 at n = 3 * 10^4 and between 16 and 18 at n = 10^5: the dense form
grows with W^2 D, about W (L + k), and the count-free form with the n / k
blocks it carries one at a time.  With the switch between k = 13 and 14, the
form taken was within about 25% of the faster one at each of these n.
jumps, runs and positions always take the dense form; jumps and runs share
one template and differ only in eta.

The longest-run scan.  P(L <= m) is the mass of the paths whose runs never
pass m.  The scan follows that mass for every level m = 0..ell at once:
u[m] in state 1, V[m, j] in a run of length m - j, and K[m], the mass
removed when a run reaches m + 1, so that P(L <= m) = u[m] + sum_j V[m, j]
and K[m] = P(L > m).  The levels fall into tiers by the block length d = 6:

  dense       the levels m < d, each as an (m + 2)-state chain (state 1,
              runs 1..m, removed) on blocks of d steps; the transfers of all
              these levels form one block-diagonal matrix per block, built a
              group of blocks at a time.
  count-free  the levels [d, 4d) on blocks of d steps, [4d, 16d) on blocks
              of 4d, and so on, with blocks of at most 127 steps, so that a
              1 MB group holds at least 8 transfers.  No run that starts
              inside a block of L <= m steps passes m there, so every level
              of a tier shares exact_run's count-free transfer (F, beta and
              the in-block stay products stay[s - 1]).  The carried run of
              length m - j, j < L, leaves the level at in-block step j + 1
              if it stays: K[m] += sum_{j<L} V[m, j] stay[j].  One GEMM of
              the entry rows (u[m], beta[s - 1] sum_{j >= s-1} V[m, j]) by
              F gives the new u and the runs of length 1..L that start in
              the block, and the runs that survive it shift by L in place.

Each tier is carried through its own blocks, so the scan makes about
2.3 n / d block carries (n / d for the dense levels, then n / d, n / 4d, ...)
instead of n - 1 steps.  The tier of the levels [T, 4T) on blocks of L steps
costs O(L^2) per block to build F, O(T L^2) to carry and O(T^2) to shift,
so O(n T (L + T / L)) over the series, most of it in the top tier.  On the
earthquake series of n = 10^4 (ell = 98-137), propagate took 0.08-0.10 s
on a 2-core host, and 0.5 s with a run of 1300 counts of 30 in it
(ell = 1319).  Levels above n keep all their mass, since no run is longer
than n.  P(L = m) is a difference of neighbouring cumulatives, of P(L <= .)
where it is below 1/2 and of K above, clamped at 0, and the overflow is
K[ell], summed directly.

No term cancels.  Every entry of M and F, and every carried value, is a sum
of products of probabilities; the count-free carry sums the state-2 mass
that is not counted from prefix and suffix sums of the runs, not as a total
minus the counted run.  So no value turns negative, and the result differs
from the product of the n - 1 step matrices by rounding and the trimmed
rows alone: on an earthquake-model series of n = 10^5, every counting
statistic was within 1e-16 of the untrimmed scan, and every value the trim
left at 0 was below 6e-30 there.  The one
subtraction is longest_run's last step, between neighbouring cumulatives
that are each accurate to rounding; on an earthquake series of n = 3000 its
result was within 2.1e-15 of an extended-precision recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import PosteriorChain, stay_probabilities

__all__ = [
    "ImbeddingSpec",
    "Distribution",
    "ExpectedRunCounts",
    "build_spec",
    "propagate",
    "aggregate",
    "expected_exact_run_counts",
    "auto_truncation",
]

# coefficient kinds of the block template entries
_A, _NA, _B, _NB = 0, 1, 2, 3

# most bytes of block transfers built at a time
_GROUP_BYTES = 2**20

# longest count-free block of the longest-run tiers: a group holds at least
# 8 of its (L + 1)^2 response matrices, since the build loops once per
# in-block step for each group.  exact_run's count-free blocks, at most
# _BLOCK_STEPS long, are shorter
_COUNT_FREE_STEPS = math.isqrt(_GROUP_BYTES // 64) - 1

# widest exact_run template (k + 2) that propagate carries in the dense form
_DENSE_WIDTH_MAX = 15

# longest block of the counting statistics' scan: once the window holds only
# the counts with mass, a carry costs about the same at any block length,
# while building a transfer grows with it
_BLOCK_STEPS = 32

# a count row whose every entry is at most this leaves the carried window at
# either end
_NEGLIGIBLE = 1e-30

# block length of longest_run's lowest tier of levels; each tier above has
# blocks four times longer
_LONGEST_RUN_BLOCK = 6

# largest overflow mass auto_truncation allows for longest_run
OVERFLOW_TOL = 1e-12

# largest longest_run level the CLI accepts.  The scan's run-length arrays
# hold one value per level and run length, at most 8 ell^2 bytes.  At
# ell = 1412, on 1413 counts that keep mass at every level, they take 13 MB,
# and propagate peaks at 16 MB and takes 0.1 s on a 2-core host
_MAX_LONGEST_RUN_LEVEL = 1412

# one block of jumps or runs: situation 0 is "in state 2", situation 1 "in
# state 1", and a 1 -> 2 transition counts one more
_JUMP_BLOCK = ((0, 0, _B, 0), (0, 1, _NB, 0), (1, 1, _A, 0), (1, 0, _NA, 1))
# positions: every step spent in state 2 counts one more
_POSITIONS_BLOCK = ((0, 0, _B, 1),) + _JUMP_BLOCK[1:]


@dataclass(frozen=True)
class ImbeddingSpec:
    """An imbedded state space for one pattern statistic.

    size        : number of imbedded states M.
    statistic   : one of jumps / runs / positions / exact_run / longest_run.
    truncation  : largest statistic value tracked exactly.
    run_length  : the target run length for exact_run, else None.
    eta_slots   : indices receiving (P(y_1=1|x), P(y_1=2|x)).
    values      : statistic value of each imbedded state; truncation + 1
                  designates the overflow bucket.

    For jumps, runs, positions and exact_run, state c * width + s is
    situation s of block c (see the module docstring), so the states before
    the last, the overflow, are row-major (count x situation), the array
    propagate carries through its blocks; for longest_run, state m is the
    value m.  The spec stores no step matrix: propagate derives the block
    template and the block transfers from the statistic.
    """

    statistic: str
    truncation: int
    size: int
    run_length: int | None
    eta_slots: tuple[int, int]
    values: np.ndarray

    def initial_vector(self, eta1: float, eta2: float) -> np.ndarray:
        """Imbedded initial distribution from the two conditional initial probs."""
        v = np.zeros(self.size)
        v[self.eta_slots[0]] += eta1
        v[self.eta_slots[1]] += eta2
        return v


def _freeze_spec(statistic, truncation, run_length, eta_slots, values):
    values.flags.writeable = False
    return ImbeddingSpec(statistic, truncation, values.size, run_length, eta_slots, values)


def _tiled(statistic, ell, width, eta_slots, run_length=None, open_run=None):
    """ell + 1 blocks of `width` situations, then the overflow state.

    `open_run` is the exact_run situation that counts one more when the
    sequence ends in it.
    """
    values = np.arange((ell + 1) * width + 1, dtype=np.int64) // width
    if open_run is not None:
        values[open_run::width] += 1
    return _freeze_spec(statistic, ell, run_length, eta_slots, values)


def _exact_run_block(k: int) -> tuple:
    # situation 0: the run is longer than k; 1: in state 1; 2..k+1: a run of
    # length 1..k.  Only a run that ends at exactly k counts.
    runs = ((slice(2, k + 1), slice(3, k + 2), _B, 0), (slice(2, k + 1), 1, _NB, 0))
    return ((0, 0, _B, 0), (0, 1, _NB, 0), (1, 1, _A, 0), (1, 2, _NA, 0),
            *runs[: 2 * (k > 1)], (k + 1, 0, _B, 0), (k + 1, 1, _NB, 1))


def _block_template(statistic: str, run_length: int | None) -> tuple:
    """The block template of jumps, runs, positions or exact_run.

    Each entry (src, dst, kind, advance) moves situation src of a block to
    situation dst of the same block (advance 0) or of the next (advance 1)
    with the coefficient `kind`; a slice pairs a range of situations.
    """
    if statistic == "exact_run":
        return _exact_run_block(run_length)
    return _POSITIONS_BLOCK if statistic == "positions" else _JUMP_BLOCK


def build_spec(statistic: str, truncation: int, run_length: int | None = None) -> ImbeddingSpec:
    """The imbedding for a statistic by name; exact_run also needs run_length."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if statistic in ("jumps", "runs"):
        # a start in state 2 opens a run but is no jump
        eta_slots = (1, 0) if statistic == "jumps" else (1, 2)
        return _tiled(statistic, truncation, 2, eta_slots)
    if statistic == "positions":
        return _tiled(statistic, truncation, 2, (1, 2))
    if statistic == "longest_run":  # one state per value, then the overflow
        return _tiled(statistic, truncation, 1, (0, 1))
    if statistic == "exact_run":
        if run_length is None:
            raise ValueError("exact_run requires run_length")
        if run_length < 1:
            raise ValueError("run length must be at least 1")
        k = run_length
        return _tiled(statistic, truncation, k + 2, (1, 2), k, k + 1)
    raise ValueError(f"unknown statistic {statistic!r}")


def _block_groups(a, b, length, per_group):
    """Consecutive blocks of `length` steps as (blocks, length) arrays of a and b.

    At most per_group blocks at a time, then the shorter last block, if any.
    """
    full = a.size // length
    for lo in range(0, full, per_group):
        hi = min(lo + per_group, full)
        yield (a[lo * length : hi * length].reshape(-1, length),
               b[lo * length : hi * length].reshape(-1, length))
    if a.size > full * length:
        yield a[full * length :][None], b[full * length :][None]


def _most_counts(statistic: str, run_length: int | None, steps: int) -> int:
    """The most a block template counts in `steps` steps."""
    if statistic == "positions":
        return steps
    if statistic == "exact_run":  # one run ends at the first step, then one every k + 1
        return (steps + run_length) // (run_length + 1)
    return (steps + 1) // 2  # jumps and runs: a 1 -> 2 jump at most every other step


def _dense_transfers(template, width, tops, saturate, a, b, length):
    """Every block's transfer, one block at a time, in the layout _carry_dense reads.

    M[i, j, d] is the probability of going from situation i to j inside the
    block while counting d < P = tops[-1]; after in-block step s the block
    has counted less than tops[s - 1].  With `saturate`, M[:, :, -1] holds
    every count from tops[-1] - 1 on.  A transfer is M with its degrees
    reversed, as a (P * W, W) matrix: row (P - 1 - d) * W + i, column j holds
    M[i, j, d].
    """
    degree = tops[-1] - 1
    per_group = max(1, _GROUP_BYTES // (24 * (degree + 1) * width * width))  # m, nxt and laid
    eye = np.arange(width)
    buffers = None  # one group's, reused: each transfer is carried before the next group
    for ga, gb in _block_groups(a, b, length, per_group):
        blocks = ga.shape[0]
        coef = np.stack([ga.T, 1.0 - ga.T, gb.T, 1.0 - gb.T], axis=1)  # [step, kind, block]
        if buffers is None:
            buffers = np.empty((2, width, width, degree + 1, blocks))
            laid = np.empty((blocks, degree + 1, width, width))
        # m[j, i, d, block]: from situation i to j, counting d; blocks run
        # along the contiguous axis, so that each update is one long loop
        m, nxt = buffers[..., :blocks]
        m.fill(0.0)
        nxt.fill(0.0)
        m[eye, eye, 0] = 1.0
        for step, top in enumerate(tops[: ga.shape[1]]):
            nxt[:, :, :top] = 0.0
            c = coef[step]
            for src, dst, kind, advance in template:
                terms = m[src, :, : top - advance]
                if isinstance(src, slice) and not isinstance(dst, slice):
                    terms = terms.sum(axis=0)  # a range of situations into one
                nxt[dst, :, advance:top] += terms * c[kind]
                if advance and saturate:  # each advancing entry moves one situation
                    nxt[dst, :, degree] += m[src, :, degree] * c[kind]
            m, nxt = nxt, m
        group = laid[:blocks]
        np.copyto(group, m[:, :, ::-1].transpose(3, 2, 1, 0))
        yield from group.reshape(blocks, -1, width)


def _live(v, lo, ell):
    """(mass above ell, first, stop) of carried count rows v whose row 0 is count lo.

    Rows first..stop-1 are what is left once the counts above ell and the
    rows at either end whose every entry is at most _NEGLIGIBLE are dropped;
    first == stop when nothing is.
    """
    top, width = ell + 1 - lo, v.shape[1]
    overflow = v[top:].sum() if v.shape[0] > top else 0.0
    live = np.flatnonzero(v[:top] > _NEGLIGIBLE)
    if live.size == 0:
        return overflow, 0, 0
    return overflow, live[0] // width, live[-1] // width + 1


def _read_end(rows, p):
    """End of the buffer rows that _carry_dense reads for a window of `rows` counts."""
    return (-(-(rows + p - 1) // p) + 1) * p - 1


def _carry_dense(source, target, lo, rows, transfer, ell):
    """Carry the window of `source` through one dense block into `target`, then trim it.

    A buffer holds P - 1 zero rows, the window of `rows` counts from count
    lo on, and zero rows up to _read_end.  Row c of the carried window,
    v'[c, j] = sum_i sum_d v[c - d, i] M[i, j, d], reads the P counts that
    reach count c: the P * W values of the buffer that end with count c.
    Grouped by c mod P, the windows of a group start P * W values apart, so
    one strided view of `source` holds them all, and one product with the
    transfer writes the carried rows in place, row c at row P - 1 + c of
    `target`.  The trim sums the counts above ell into the overflow, drops
    the rows at either end whose every entry is at most _NEGLIGIBLE, moves
    the rest to row P - 1 and zeroes the rows after them that the next carry
    reads.  Returns (lo, rows, overflow) of the window left in `target`.
    """
    width, item = source.shape[1], source.itemsize
    p = transfer.shape[0] // width
    groups = -(-(rows + p - 1) // p)
    strides = (width * item, p * width * item, item)
    windows = np.ndarray((p, groups, p * width), buffer=source, strides=strides)
    carried = np.ndarray((p, groups, width), buffer=target, offset=(p - 1) * width * item,
                         strides=strides)
    np.matmul(windows, transfer, out=carried)
    v = target[p - 1 : p - 1 + rows + p - 1]
    overflow, first, stop = _live(v, lo, ell)
    if first:
        v[: stop - first] = v[first:stop]
    target[p - 1 + stop - first : _read_end(stop - first, p)] = 0.0
    return lo + first, stop - first, overflow


def _count_free_transfers(a, b, length):
    """Every block's (F, beta, stay) for the count-free form, one block at a time.

    F[tau, 0] is the probability of ending the block in state 1 and F[tau, r]
    in a run of length r, given state 1 after in-block step tau; beta[s - 1]
    is that of leaving state 2 first at in-block step s, and stay[s - 1] that
    of staying in state 2 through in-block step s.
    """
    per_group = max(1, _GROUP_BYTES // (8 * (length + 1) ** 2))
    buffer = None  # one group's, reused: each transfer is carried before the next group
    for ga, gb in _block_groups(a, b, length, per_group):
        blocks, steps = ga.shape
        if buffer is None:
            buffer = np.empty((blocks, steps + 1, steps + 1))
        stay = np.cumprod(gb, axis=1)  # stay[:, s - 1]: in state 2 through step s
        beta = np.empty_like(gb)
        beta[:, 0] = 1.0 - gb[:, 0]
        beta[:, 1:] = stay[:, :-1] * (1.0 - gb[:, 1:])
        # tail[:, r]: a run that starts at step steps - r + 1 lasts to the end
        tail = np.ones((blocks, steps + 1))
        tail[:, 1:] = 1.0 - ga[:, ::-1]
        tail[:, 2:] *= np.cumprod(gb[:, :0:-1], axis=1)
        # ones[:, tau] / twos[:, tau]: in state 1 / 2 after step sigma, given
        # state 1 after step tau <= sigma; F[tau, r] reads it at sigma = steps - r
        f = buffer[:blocks, : steps + 1, : steps + 1]
        f.fill(0.0)
        ones = np.ones((blocks, steps + 1))
        twos = np.zeros((blocks, steps + 1))
        f[:, 0, steps] = 1.0
        for sigma in range(1, steps + 1):
            at, bt = ga[:, sigma - 1, None], gb[:, sigma - 1, None]
            o, w = ones[:, :sigma], twos[:, :sigma]
            o, w = o * at + w * (1.0 - bt), o * (1.0 - at) + w * bt
            ones[:, :sigma], twos[:, :sigma] = o, w
            f[:, : sigma + 1, steps - sigma] = ones[:, : sigma + 1]
        f *= tail[:, None, :]
        for block in range(blocks):
            yield f[block], beta[block], stay[block]


def _carry_count_free(v, transfer):
    """One block of exact_run:k in the count-free form; v has situations 0..k+1."""
    f, beta, stay = transfer
    steps, survive = beta.size, stay[-1]
    k = v.shape[1] - 2
    runs = v[:, 2:]
    # runs of length k - steps + 1..k can end at exactly k inside the block:
    # the one of length k + 1 - s at step s
    near = runs[:, k - steps :]
    rest = v[:, 0] + runs[:, : k - steps].sum(axis=1)
    before = np.zeros_like(near)
    np.cumsum(near[:, :-1], axis=1, out=before[:, 1:])
    after = np.zeros_like(near)
    np.cumsum(near[:, :0:-1], axis=1, out=after[:, -2::-1])
    # state 1 after step s, by the count it holds then
    entry = np.zeros((v.shape[0] + 1, steps + 1))
    entry[:-1, 0] = v[:, 1]
    entry[:-1, 1:] = ((rest[:, None] + before) + after)[:, ::-1] * beta
    entry[1:, 1:] += near[:, ::-1] * beta
    out = np.zeros((v.shape[0] + 1, k + 2))
    out[:, 1 : steps + 2] = entry @ f
    out[:-1, steps + 2 :] = runs[:, : k - steps] * survive
    out[:-1, 0] = (v[:, 0] + near.sum(axis=1)) * survive
    return out


def _scan_low_levels(levels, init, a, b, length):
    """(kept, removed) of the levels m < `levels`, carried by dense block transfers.

    Level m has m + 2 states from offset m (m + 3) / 2: in state 1, in a
    run of length 1..m, and removed, once a run reaches m + 1.  The transfers
    of every level form one block-diagonal matrix, built a group of blocks
    at a time.
    """
    offsets = [m * (m + 3) // 2 for m in range(levels + 1)]
    size = offsets[-1]
    x = np.zeros(size)
    for o in offsets[:-1]:
        x[o], x[o + 1] = init  # level 0's run of length 1 is removed at once
    per_group = max(1, _GROUP_BYTES // (8 * size * size))
    buffer = None  # one group's, reused: each transfer is carried before the next group
    for ga, gb in _block_groups(a, b, length, per_group):
        if buffer is None:
            buffer = np.empty((ga.shape[0], size, size))
        t = buffer[: ga.shape[0]]
        t.fill(0.0)
        for m, o in enumerate(offsets[:-1]):
            z = t[:, o : o + m + 2, o : o + m + 2]  # z[block, from, to]
            z[:, range(m + 2), range(m + 2)] = 1.0
            for step in range(ga.shape[1]):
                at, bt = ga[:, step, None], gb[:, step, None]
                if m == 0:  # a run of length 1 already passes level 0
                    z[..., 1] += z[..., 0] * (1.0 - at)
                    z[..., 0] *= at
                    continue
                z[..., m + 1] += z[..., m] * bt
                ends = z[..., 1 : m + 1].sum(axis=2) * (1.0 - bt)
                z[..., 2 : m + 1] = z[..., 1:m] * bt[..., None]
                z[..., 1] = z[..., 0] * (1.0 - at)
                z[..., 0] = z[..., 0] * at + ends
        for transfer in t:
            x = np.matmul(x, transfer)
    kept = np.array([x[o : o + m + 1].sum() for m, o in enumerate(offsets[:-1])])
    return kept, x[np.array(offsets[1:]) - 1]


def _scan_levels(lo, hi, init, a, b):
    """(kept, removed) of the levels lo..hi-1, carried in the count-free form.

    Blocks have at most lo steps, so no run that starts inside a block
    passes any of these levels there.  runs[j, i] holds the mass of level lo + i in a run
    of length lo + i - j, which that level removes after j + 1 more steps in
    state 2: in-block step j + 1 takes it out for j below the block length,
    and a block shifts the runs that survive it by its length.  The runs that
    start inside the block land on the diagonals runs[lo + i - r, i].
    """
    levels, width = hi - lo, hi - 1
    runs = np.zeros((width, levels))
    flat, item = runs.reshape(-1), runs.itemsize

    def started(steps):  # started(steps)[c, i] is runs[lo + i - (steps - c), i]
        return np.lib.stride_tricks.as_strided(
            flat[(lo - steps) * levels :], (steps, levels), (levels * item, (levels + 1) * item)
        )

    def views(steps):
        # shift in place, one block length at a time; of the top rows that
        # keep their values, those at or above a level are zero, and the
        # runs that started in the block overwrite the rest
        shifts = [(runs[c + steps : min(c + 2 * steps, width)],
                   runs[c : min(c + steps, width - steps)]) for c in range(0, width - steps, steps)]
        return runs[:steps], runs[steps:], shifts, started(steps), np.empty((steps + 1, levels))

    started(1)[0] = init[1]
    state1 = np.full(levels, init[0])
    removed = np.zeros(levels)
    steps = 0  # the block length the views were made for; only the last block is shorter
    for f, beta, stay in _count_free_transfers(a, b, min(lo, _COUNT_FREE_STEPS)):
        if beta.size != steps:
            steps = beta.size
            near, far, shifts, start, entry = views(steps)
        removed += stay @ near
        # state 1 after in-block step s: the runs that leave state 2 then,
        # those not yet removed (j >= s - 1), summed without a difference
        entry[0] = state1
        np.cumsum(near[::-1], axis=0, out=entry[:0:-1])
        entry[1:] += far.sum(axis=0)
        entry[1:] *= beta[:, None]
        out = np.matmul(f.T, entry)  # in state 1 (row 0) or a run of length r (row r)
        state1 = out[0]
        for src, dst in shifts:
            np.multiply(src, stay[-1], out=dst)
        start[:] = out[steps:0:-1]
    return state1 + runs.sum(axis=0), removed


def _propagate_longest_run(ell, init, a, b):
    """P(L = m) for m = 0..ell, then P(L > ell), by the tiers of the module docstring."""
    top = min(ell, a.size + 1)  # no run is longer than n: the levels above keep all the mass
    kept, removed = np.ones(ell + 1), np.zeros(ell + 1)
    lo = min(_LONGEST_RUN_BLOCK, top + 1)
    kept[:lo], removed[:lo] = _scan_low_levels(lo, init, a, b, _LONGEST_RUN_BLOCK)
    while lo <= top:
        hi = min(4 * lo, top + 1)
        kept[lo:hi], removed[lo:hi] = _scan_levels(lo, hi, init, a, b)
        lo *= 4
    # a difference of the smaller neighbouring cumulatives: of P(L <= m)
    # below 1/2, of the removed mass P(L > m) above
    probs = np.where(kept < 0.5, np.diff(kept, prepend=0.0), -np.diff(removed, prepend=1.0))
    return np.append(np.maximum(probs, 0.0), removed[-1])


def propagate(spec: ImbeddingSpec, chain: PosteriorChain) -> np.ndarray:
    """Final imbedded distribution: eta * prod_t Lambda(a_t, b_t).

    The result sums to one.  For jumps, runs, positions and exact_run it is
    computed by the blocked scan of the module docstring: eta, reshaped to
    (count x situation) and cut to the counts that hold mass, is carried
    through one block transfer after another, dense or count-free, of at
    most 32 steps each, with the mass above ell summed into the overflow and
    the count rows whose entries are all at most 1e-30 trimmed off both
    ends.  The trim drops at most (blocks + 1) * size * 1e-30 in all, and
    values that small come out as 0.

    For longest_run it is (P(L = 0), ..., P(L = ell), P(L > ell)), from the
    longest-run scan of the module docstring: each tier of levels is carried
    through its own blocks, and the final vector takes the differences of
    the cumulatives P(L <= m) and K[m] that the tiers end with.  It is
    within rounding of the product over the loop-built imbedding's entries,
    not bit-identical to it.
    """
    a, b = stay_probabilities(chain)
    if spec.statistic == "longest_run":
        return _propagate_longest_run(spec.truncation, chain.init, a, b)
    ell, k = spec.truncation, spec.run_length
    width = (spec.size - 1) // (ell + 1)
    v = np.zeros((2, width))  # counts 0 and 1 hold the eta slots
    np.put(v, spec.eta_slots, chain.init)
    _, lo, stop = _live(v, 0, ell)
    v = v[lo:stop]
    overflow = 0.0
    length = max(min(math.isqrt(a.size), _BLOCK_STEPS), 1)
    if k is not None and width > _DENSE_WIDTH_MAX:
        for transfer in _count_free_transfers(a, b, min(length, k)):
            v = _carry_count_free(v, transfer)
            over, first, stop = _live(v, lo, ell)
            overflow += over
            lo, v = lo + first, v[first:stop]
            if v.size == 0:
                break
    else:
        # a block that counts ell + 1 or more ends in the overflow
        tops = [min(_most_counts(spec.statistic, k, s), ell + 1) + 1 for s in range(1, length + 1)]
        saturate = _most_counts(spec.statistic, k, length) > ell + 1
        template = _block_template(spec.statistic, k)
        p, rows = tops[-1], v.shape[0]
        # P - 1 zero rows, a window of at most ell + 1 - lo counts and the
        # 2 (P - 1) rows past it that a carry reads
        buffers = np.empty((2, ell + 1 - lo + 3 * (p - 1), width))
        buffers[:, : _read_end(rows, p)] = 0.0
        buffers[0, p - 1 : p - 1 + rows] = v
        source, target = buffers
        for transfer in _dense_transfers(template, width, tops, saturate, a, b, length):
            lo, rows, over = _carry_dense(source, target, lo, rows, transfer, ell)
            overflow += over
            source, target = target, source
            if rows == 0:
                break
        v = source[p - 1 : p - 1 + rows]
    final = np.zeros(spec.size)
    final[lo * width : lo * width + v.size] = v.ravel()
    final[-1] = overflow
    return final


@dataclass(frozen=True)
class Distribution:
    """Truncated distribution of a pattern statistic.

    probs[v] = P(statistic = v) for v = 0..truncation; `overflow` is
    P(statistic >= truncation + 1).
    """

    statistic: str
    support: np.ndarray
    probs: np.ndarray
    overflow: float
    run_length: int | None = None

    @property
    def truncation(self) -> int:
        return int(self.support[-1])


def aggregate(spec: ImbeddingSpec, final: np.ndarray) -> Distribution:
    """Group a final imbedded vector by statistic value."""
    final = np.asarray(final, dtype=float)
    if final.shape != (spec.size,):
        raise ValueError(f"final vector must have length {spec.size}")
    total = final.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"final vector sums to {total}, expected 1 within 1e-9")
    ell = spec.truncation
    grouped = np.bincount(spec.values, weights=final, minlength=ell + 2)
    return Distribution(
        statistic=spec.statistic,
        support=np.arange(ell + 1),
        probs=grouped[: ell + 1],
        overflow=float(grouped[ell + 1]),
        run_length=spec.run_length,
    )


@dataclass(frozen=True)
class ExpectedRunCounts:
    """Posterior expected number of exact-length state-2 runs per length.

    lower_bound[k-1] marks lengths whose truncation left more than 1e-9 of
    probability mass in the overflow bucket, making expected[k-1] a lower
    bound (overflow counted at truncation + 1).
    """

    run_lengths: np.ndarray
    expected: np.ndarray
    lower_bound: np.ndarray


def expected_exact_run_counts(
    chain: PosteriorChain,
    k_max: int,
    truncation: int | None = None,
    computed: dict[int, Distribution] | None = None,
) -> ExpectedRunCounts:
    """Expected count of exact-length-k runs for k = 1..k_max.

    Each k is propagated at auto_truncation's exact level, so every count is
    exact, or at `truncation` where that is lower.  `computed` maps a run
    length k to the exact_run distribution the caller already holds for this
    chain; one at the level this call uses is taken in place of a second
    propagation.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    computed = computed or {}
    expected = np.empty(k_max)
    lower = np.zeros(k_max, dtype=bool)
    for k in range(1, k_max + 1):
        if truncation is None:
            ell = auto_truncation(chain, "exact_run", k)
        else:  # no value lies above the exact level
            ell = min(truncation, _largest_count(chain.n, "exact_run", k))
        dist = computed.get(k)
        if dist is None or dist.truncation != ell:
            spec = build_spec("exact_run", ell, k)
            dist = aggregate(spec, propagate(spec, chain))
        # the overflow mass counts at truncation + 1
        expected[k - 1] = (dist.support * dist.probs).sum() + (ell + 1) * dist.overflow
        lower[k - 1] = dist.overflow > 1e-9
    return ExpectedRunCounts(
        run_lengths=np.arange(1, k_max + 1), expected=expected, lower_bound=lower
    )


def _largest_count(n: int, statistic: str, run_length: int | None = None) -> int | None:
    """Largest value a counting statistic takes on n positions, at least 1.

    None for longest_run, whose level auto_truncation chooses from the chain.
    """
    if statistic == "jumps":
        return max(n // 2, 1)
    if statistic == "runs":
        return max((n + 1) // 2, 1)
    if statistic == "positions":
        return n
    if statistic == "exact_run":
        if run_length is None or run_length < 1:
            raise ValueError("exact_run requires a run_length of at least 1")
        return max((n + 1) // (run_length + 1), 1)
    if statistic != "longest_run":
        raise ValueError(f"unknown statistic {statistic!r}")
    return None


def auto_truncation(chain: PosteriorChain, statistic: str, run_length: int | None = None) -> int:
    """Truncation level for a statistic, computed from the chain alone.

    Counting statistics get the largest value any path of length n can take,
    so their overflow is exactly 0.  longest_run gets the smallest ell whose
    union bound P(L >= ell+1) <= sum_t s_t * prod_{j=1..ell} b_{t+j} is at
    most OVERFLOW_TOL, where s_1 = P(y_1 = 2 | x) and s_t = 1 - a_t bound the
    probability that a state-2 run starts at t.
    """
    top = _largest_count(chain.n, statistic, run_length)
    if top is not None:
        return top
    a, b = stay_probabilities(chain)
    # bound[t] = s_t * prod of the next ell stay probabilities, for the runs
    # that can still be longer than ell
    bound = np.concatenate(([chain.init[1]], 1.0 - a))[:-1] * b
    ell = 1
    while bound.sum() > OVERFLOW_TOL:  # empty, so 0, once ell reaches n
        ell += 1
        bound = bound[:-1] * b[ell - 1 :]
    return ell
