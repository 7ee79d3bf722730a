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
describe the whole step matrix: propagate repeats each template entry (src,
dst, kind, advance) in every block, and an entry with advance 1 counts one
more, so it lands in the next block, or in the overflow state from the last
block.  longest_run is the exception: its block m holds the run lengths
1..m in progress, so its blocks grow with m, and propagate steps it on a
dense run-length x block array instead of entries.  A spec holds only the
state space; the step rule is propagate's.

Every transition row has at most two nonzero entries drawn from
{a, 1-a, b, 1-b, 1}, and a step reads only the window of imbedded states
that hold mass, so propagation costs in proportion to the sum over the n
steps of that window's width, at most O(n * size).  longest_run fills
almost all of its (ell + 1)(ell + 2)/2 + 1 states (see propagate).
"""

from __future__ import annotations

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

# coefficient kinds for sparse entries
_A, _NA, _B, _NB, _ONE = 0, 1, 2, 3, 4

# largest overflow mass auto_truncation allows for longest_run
OVERFLOW_TOL = 1e-12

# most imbedded states the CLI builds for longest_run (see _longest_run_size);
# a whole longest-run call near this size (ell = 1412, 998,992 states) took
# about 6 s and a peak RSS of 101-104 MB on a 2-core host
_MAX_LONGEST_RUN_STATES = 10**6

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

    For every statistic but longest_run, state c * width + s is situation s
    of block c (see the module docstring); the last state is the overflow.
    The spec stores no step matrix: propagate derives it from the statistic.
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


def _exact_run_block(k: int) -> list[tuple[int, int, int, int]]:
    # situation 0: the run is longer than k; 1: in state 1; 2..k+1: a run of
    # length 1..k.  Only a run that ends at exactly k counts.
    block = [(0, 0, _B, 0), (0, 1, _NB, 0), (1, 1, _A, 0), (1, 2, _NA, 0)]
    for j in range(2, k + 1):
        block += [(j, j + 1, _B, 0), (j, 1, _NB, 0)]
    return block + [(k + 1, 0, _B, 0), (k + 1, 1, _NB, 1)]


def _entries(spec: ImbeddingSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step matrix of a tiled spec as (rows, cols, kinds).

    Entry (rows[e], cols[e]) holds a, 1-a, b, 1-b or 1 according to
    kinds[e].  The entries run block by block in the template's order, then
    the overflow's self-loop.
    """
    if spec.statistic == "exact_run":
        template = _exact_run_block(spec.run_length)
    else:
        template = _POSITIONS_BLOCK if spec.statistic == "positions" else _JUMP_BLOCK
    src, dst, kind, advance = np.array(template, dtype=np.int64).T
    overflow = spec.size - 1
    width = overflow // (spec.truncation + 1)
    base = np.arange(spec.truncation + 1, dtype=np.int64)[:, None] * width
    rows = np.append(base + src, overflow)
    cols = np.append(np.minimum(base + dst + advance * width, overflow), overflow)
    kinds = np.append(np.tile(kind, spec.truncation + 1), _ONE)
    return rows, cols, kinds


def _longest_run_size(ell: int) -> int:
    # block 0 has one state, block m >= 1 has m + 1, then the overflow state
    return (ell + 1) * (ell + 2) // 2 + 1


def _longest_run_spec(ell: int) -> ImbeddingSpec:
    """Imbedding for the longest state-2 run.

    Block m means "longest run so far is m".  Block 0 is the single state
    "never entered state 2"; block m >= 1 holds the in-progress run lengths
    1..m followed by an in-state-1 state.  A run reaching length m+1 enters
    block m+1 (or the overflow state beyond the truncation); shorter runs
    move within their block.
    """
    blocks = np.arange(ell + 1, dtype=np.int64)
    values = np.append(np.repeat(blocks, blocks + 1), ell + 1)
    return _freeze_spec("longest_run", ell, None, (0, 1), values)


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
    if statistic == "longest_run":
        return _longest_run_spec(truncation)
    if statistic == "exact_run":
        if run_length is None:
            raise ValueError("exact_run requires run_length")
        if run_length < 1:
            raise ValueError("run length must be at least 1")
        k = run_length
        return _tiled(statistic, truncation, k + 2, (1, 2), k, k + 1)
    raise ValueError(f"unknown statistic {statistic!r}")


def _propagate_longest_run(
    ell: int, init: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """propagate for longest_run, stepped on the dense layout its docstring gives."""
    width, diag = ell + 1, ell + 2  # diag: the flat stride of diagonals
    dense = np.zeros((2, ell + 2, width))  # the state after an even / odd step
    # the spec's eta slots: block 0 (in state 1) and block 1's run of length 1;
    # the overflow stays outside the dense buffers
    dense[0, 0, 0], dense[0, 1, 1] = init
    overflow = 0.0

    def views(buf, lo, hi):
        # read: rows 0..hi of blocks lo..hi; written: rows 0..hi+1 of them,
        # the records (m + 1, m) of blocks lo..hi, and the diagonal entries
        # (m + 1, m + 1) of the records that stay below the overflow
        live, flat = buf[: hi + 2, lo : hi + 1], buf.reshape(-1)
        records = flat[lo * diag + width : hi * diag + width + 1 : diag]
        top = min(hi, ell - 1) - lo + 1
        targets = flat[(lo + 1) * diag :: diag][:top]
        return (live[0], live[1 : hi + 1]), (
            live[0], live[1], live[2:], live[1:], records, records[:top], targets
        )

    lo, hi = 0, 1  # the live blocks; at least two, or the reduce may sum pairwise
    window = [views(buf, lo, hi) for buf in dense]
    for step, (at, nat, bt, nbt) in enumerate(zip(a, 1.0 - a, b, 1.0 - b)):
        row0, rest = window[step & 1][0]
        state1, row1, below, summed, records, moved, targets = window[~step & 1][1]
        np.multiply(row0, at, out=row1)
        np.multiply(rest, nbt, out=below)
        np.add.reduce(summed, axis=0, out=state1)
        np.multiply(row0, nat, out=row1)
        np.multiply(rest, bt, out=below)
        np.add(targets, moved, out=targets)  # each record up one block
        if hi == ell:
            overflow = overflow + records[-1]
        records.fill(0.0)
        stepped = (lo, hi)
        if hi < ell and targets[-1] != 0.0:
            hi += 1
        nxt = dense[~step & 1]
        while lo < hi - 1 and nxt[0, lo] == 0.0 and not nxt[1 : lo + 1, lo].any():
            dense[step & 1][: lo + 1, lo] = 0.0  # left from the step before
            lo += 1
        if (lo, hi) != stepped:
            window = [views(buf, lo, hi) for buf in dense]
    # block m of the spec is rows 1..m of column m, then row 0: copy row 0
    # onto the records (m + 1, m) and read the triangle block by block
    last = dense[a.size & 1]
    np.fill_diagonal(last[1:], last[0])
    return np.append(last[1:].T[np.tri(width, dtype=bool)], overflow)


def propagate(spec: ImbeddingSpec, chain: PosteriorChain) -> np.ndarray:
    """Final imbedded distribution: eta * prod_t Lambda(a_t, b_t).

    One sparse vector-matrix product per position; the result sums to one.
    The entries of the step matrix are the block template repeated in every
    block, then the overflow's self-loop (see _entries), so their rows never
    decrease.  A step costs in proportion to the width of the window
    [lo, hi] of imbedded states that hold mass, not to the size of the
    imbedding: the entries whose row lies in the window are the slice
    first[lo]:last[hi], with first and last binary-searched in the rows, and
    bincount adds each bin's terms in entry order.  Rows inside the window
    may hold exact zeros, and adding +0.0 to a sum of non-negative terms
    leaves it unchanged, so every bin is bit-identical to the product over
    all entries.  After a step the mass lies within [low[lo], high[hi]],
    the suffix minimum of the columns from entry first[lo] on and their
    prefix maximum up to entry last[hi] - 1, and zeros are trimmed off both
    ends.

    longest_run steps two dense buffers of shape (ell + 2, ell + 1) instead:
    row 0 is "in state 1", row r "a run of length r in progress", column m
    the block "longest run so far is m", and entries with r > m are zero.
    One step multiplies row 0 by a and the rows below by 1 - b, and adds
    them down each column with np.add.reduce(axis=0) into the new row 0; it
    multiplies row 0 by 1 - a into row 1 and each row r by b into row r + 1;
    then it moves each record, block m's run of length m + 1, from (m + 1, m)
    to (m + 1, m + 1), or from block ell into the overflow.  The reduce adds
    the rows in order, so each state-1 sum is ((T0 a + T1 (1-b)) + T2 (1-b))
    + ..., the order of the loop-built entries (block by block, each block's
    state 1 first, then its runs), and every other state has at most two
    terms, which add alike in either order: the result is bit-identical to
    the product over those entries.  A window of at least two columns keeps
    numpy from summing a single column pairwise.  The window spans the live
    blocks: it grows by one block with each nonzero record and drops
    emptied blocks from the left.  The layout follows from ell alone: eta
    starts at (0, 0) and (1, 1), the spec's eta slots, and the final vector
    reads block m as rows 1..m of column m, then row 0.
    """
    a, b = stay_probabilities(chain)
    if spec.statistic == "longest_run":
        return _propagate_longest_run(spec.truncation, chain.init, a, b)
    v = spec.initial_vector(chain.init[0], chain.init[1])
    rows, cols, kinds = _entries(spec)
    size = spec.size
    lo, hi = sorted(spec.eta_slots)
    first, last = (np.searchsorted(rows, np.arange(size), side=s) for s in ("left", "right"))
    low = np.minimum.accumulate(cols[::-1])[::-1][first].tolist()
    high = np.maximum.accumulate(cols)[last - 1].tolist()
    first, last = first.tolist(), last.tolist()
    coef = np.empty((a.size, 5))
    coef[:, _A] = a
    coef[:, _NA] = 1.0 - a
    coef[:, _B] = b
    coef[:, _NB] = 1.0 - b
    coef[:, _ONE] = 1.0
    for step in coef:
        live = slice(first[lo], last[hi])
        v = np.bincount(cols[live], weights=v[rows[live]] * step[kinds[live]], minlength=size)
        lo, hi = low[lo], high[hi]
        while lo < hi and v[lo] == 0.0:
            lo += 1
        while hi > lo and v[hi] == 0.0:
            hi -= 1
    return v


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
