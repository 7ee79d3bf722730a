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

Every transition row has at most two nonzero entries drawn from
{a, 1-a, b, 1-b, 1}, and a step reads only the window of imbedded states
that hold mass, so propagation costs in proportion to the sum over the n
steps of that window's width, at most O(n * size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import PosteriorChain, stay_probabilities

__all__ = [
    "ImbeddingSpec",
    "Distribution",
    "ExpectedRunCounts",
    "build_jump_chain",
    "build_positions_chain",
    "build_exact_run_chain",
    "build_longest_run_chain",
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

    rows/cols/kinds encode the sparse step matrix: entry (rows[e], cols[e])
    holds a, 1-a, b, 1-b or 1 according to kinds[e].
    """

    statistic: str
    truncation: int
    size: int
    run_length: int | None
    eta_slots: tuple[int, int]
    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    kinds: np.ndarray

    def initial_vector(self, eta1: float, eta2: float) -> np.ndarray:
        """Imbedded initial distribution from the two conditional initial probs."""
        v = np.zeros(self.size)
        v[self.eta_slots[0]] += eta1
        v[self.eta_slots[1]] += eta2
        return v


def _freeze_spec(statistic, truncation, size, run_length, eta_slots, values, entries):
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    kinds = np.array([e[2] for e in entries], dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    assert values.size == size
    for a in (rows, cols, kinds, values):
        a.flags.writeable = False
    return ImbeddingSpec(
        statistic=statistic,
        truncation=truncation,
        size=size,
        run_length=run_length,
        eta_slots=eta_slots,
        values=values,
        rows=rows,
        cols=cols,
        kinds=kinds,
    )


def build_jump_chain(truncation: int, mode: str = "jumps") -> ImbeddingSpec:
    """Imbedding for the number of 1 -> 2 jumps, or of state-2 runs.

    States come in (count, current-state) pairs: index 2c is (c, in state 2),
    index 2c+1 is (c, in state 1), for c = 0..truncation, plus an absorbing
    overflow state; 2*truncation + 3 states in total.  In "jumps" mode a
    start in state 2 counts zero, in "runs" mode it opens a run and counts
    one.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if mode not in ("jumps", "runs"):
        raise ValueError(f"mode must be 'jumps' or 'runs', got {mode!r}")
    ell = truncation
    size = 2 * ell + 3
    overflow = size - 1
    entries = []
    values = np.empty(size, dtype=np.int64)
    for c in range(ell + 1):
        in2, in1 = 2 * c, 2 * c + 1
        values[in2] = values[in1] = c
        entries.append((in2, in2, _B))
        entries.append((in2, in1, _NB))
        entries.append((in1, in1, _A))
        entries.append((in1, 2 * (c + 1) if c < ell else overflow, _NA))
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    eta_slots = (1, 0) if mode == "jumps" else (1, 2)
    return _freeze_spec(mode, ell, size, None, eta_slots, values, entries)


def build_positions_chain(truncation: int) -> ImbeddingSpec:
    """Imbedding for the total number of positions in state 2.

    Index 0 is (0 positions, in state 1); for c = 1..truncation index 2c-1 is
    (c, in state 2) and index 2c is (c, in state 1); the last of the
    2*truncation + 2 states absorbs counts beyond the truncation.  Entering
    or remaining in state 2 increments the count.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    ell = truncation
    size = 2 * ell + 2
    overflow = size - 1
    entries = [(0, 0, _A), (0, 1, _NA)]
    values = np.empty(size, dtype=np.int64)
    values[0] = 0
    for c in range(1, ell + 1):
        in2, in1 = 2 * c - 1, 2 * c
        values[in2] = values[in1] = c
        entries.append((in2, 2 * c + 1 if c < ell else overflow, _B))
        entries.append((in2, in1, _NB))
        entries.append((in1, in1, _A))
        entries.append((in1, 2 * c + 1 if c < ell else overflow, _NA))
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    return _freeze_spec("positions", ell, size, None, (0, 1), values, entries)


def build_exact_run_chain(run_length: int, truncation: int) -> ImbeddingSpec:
    """Imbedding for the count of state-2 runs of exactly `run_length`.

    Block m tracks "m completed runs of the target length" with run_length+2
    situations: an overshoot state (current run already longer than the
    target), the in-state-1 state, and one state per in-progress run length
    1..run_length.  Finishing a run at exactly the target length moves to the
    next block; extending it past the target moves to the overshoot state.
    The final vector is read with the open run at the sequence end included:
    ending in the "run length == target" state counts one more run.
    """
    if run_length < 1:
        raise ValueError("run length must be at least 1")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    k, ell = run_length, truncation
    width = k + 2
    size = (ell + 1) * width + 1
    overflow = size - 1
    entries = []
    values = np.empty(size, dtype=np.int64)
    for m in range(ell + 1):
        base = m * width
        values[base : base + width] = m
        values[base + k + 1] = min(m + 1, ell + 1)  # open run of exactly k at the end
        entries.append((base, base, _B))  # overshoot keeps running
        entries.append((base, base + 1, _NB))  # overlong run ends, not counted
        entries.append((base + 1, base + 1, _A))
        entries.append((base + 1, base + 2, _NA))  # a new run starts
        for j in range(2, k + 1):  # run of length j-1 < k
            entries.append((base + j, base + j + 1, _B))
            entries.append((base + j, base + 1, _NB))  # ends short, not counted
        done = base + width + 1 if m < ell else overflow
        entries.append((base + k + 1, base, _B))  # grows past k: overshoot
        entries.append((base + k + 1, done, _NB))  # completed at exactly k
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    return _freeze_spec("exact_run", ell, size, k, (1, 2), values, entries)


def build_longest_run_chain(truncation: int) -> ImbeddingSpec:
    """Imbedding for the longest state-2 run.

    Block m means "longest run so far is m".  Block 0 is the single state
    "never entered state 2"; block m >= 1 holds the in-progress run lengths
    1..m followed by an in-state-1 state.  A run reaching length m+1 enters
    block m+1 (or the overflow state beyond the truncation); shorter runs
    move within their block.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    ell = truncation
    bases = np.empty(ell + 1, dtype=np.int64)
    bases[0] = 0
    off = 1
    for m in range(1, ell + 1):
        bases[m] = off
        off += m + 1
    size = off + 1
    overflow = size - 1
    entries = [(0, 0, _A), (0, bases[1], _NA)]
    values = np.empty(size, dtype=np.int64)
    values[0] = 0
    for m in range(1, ell + 1):
        base = bases[m]
        state1 = base + m
        values[base : base + m + 1] = m
        entries.append((state1, state1, _A))
        entries.append((state1, base, _NA))  # new run of length 1
        for r in range(1, m):
            entries.append((base + r - 1, base + r, _B))
            entries.append((base + r - 1, state1, _NB))
        longer = bases[m + 1] + m if m < ell else overflow
        entries.append((base + m - 1, longer, _B))  # record length m+1
        entries.append((base + m - 1, state1, _NB))
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    return _freeze_spec("longest_run", ell, size, None, (0, 1), values, entries)


def build_spec(statistic: str, truncation: int, run_length: int | None = None) -> ImbeddingSpec:
    """The imbedding for a statistic by name; exact_run also needs run_length."""
    if statistic in ("jumps", "runs"):
        return build_jump_chain(truncation, mode=statistic)
    if statistic == "positions":
        return build_positions_chain(truncation)
    if statistic == "longest_run":
        return build_longest_run_chain(truncation)
    if statistic == "exact_run":
        if run_length is None:
            raise ValueError("exact_run requires run_length")
        return build_exact_run_chain(run_length, truncation)
    raise ValueError(f"unknown statistic {statistic!r}")


def _min_from(rows: np.ndarray, values: np.ndarray, size: int) -> list[int]:
    # out[r] = min of values[e] over the entries with rows[e] >= r; every
    # row has an entry, so the fill value never survives
    out = np.full(size, np.iinfo(np.int64).max)
    np.minimum.at(out, rows, values)
    return np.minimum.accumulate(out[::-1])[::-1].tolist()


def _max_upto(rows: np.ndarray, values: np.ndarray, size: int) -> list[int]:
    # out[r] = max of values[e] over the entries with rows[e] <= r
    out = np.full(size, -1)
    np.maximum.at(out, rows, values)
    return np.maximum.accumulate(out).tolist()


def propagate(spec: ImbeddingSpec, chain: PosteriorChain) -> np.ndarray:
    """Final imbedded distribution: eta * prod_t Lambda(a_t, b_t).

    One sparse vector-matrix product per position; the result sums to one.
    A step costs in proportion to the width of the window [lo, hi] of
    imbedded states that hold mass, not to the size of the imbedding.
    Entries first[lo]:last[hi] cover every entry whose row lies in the
    window, in the spec's own entry order, and bincount adds each bin's
    terms in that order.  The slice may take in rows outside the window;
    they hold exact zeros, and adding +0.0 to a sum of non-negative terms
    leaves it unchanged, so every bin is bit-identical to the product over
    all entries (sorting the entries by row would not be: it reorders the
    sums).  After a step the mass lies within [low[lo], high[hi]], the
    lowest column of an entry whose row is at least lo and the highest of
    one whose row is at most hi, and zeros are trimmed off both ends.
    """
    a, b = stay_probabilities(chain)
    v = spec.initial_vector(chain.init[0], chain.init[1])
    rows, cols, kinds = spec.rows, spec.cols, spec.kinds
    size = spec.size
    lo, hi = sorted(spec.eta_slots)
    index = np.arange(rows.size)
    first, last = _min_from(rows, index, size), _max_upto(rows, index + 1, size)
    low, high = _min_from(rows, cols, size), _max_upto(rows, cols, size)
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

    def tail_prob(self, v: int) -> float:
        """P(statistic >= v) for v <= truncation + 1."""
        if v > self.truncation + 1:
            raise ValueError(f"tail cut {v} exceeds truncation+1 = {self.truncation + 1}")
        return float(self.probs[max(v, 0) :].sum() + self.overflow)

    def mean_lower_bound(self) -> float:
        """Expected value with overflow mass counted at truncation + 1."""
        return float((self.support * self.probs).sum() + (self.truncation + 1) * self.overflow)


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
    chain: PosteriorChain, k_max: int, truncation: int | None = None
) -> ExpectedRunCounts:
    """Expected count of exact-length-k runs for k = 1..k_max.

    With truncation None each k is propagated at auto_truncation's exact
    level, so every count is exact.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    expected = np.empty(k_max)
    lower = np.zeros(k_max, dtype=bool)
    for k in range(1, k_max + 1):
        ell = auto_truncation(chain, "exact_run", k) if truncation is None else truncation
        spec = build_exact_run_chain(k, ell)
        dist = aggregate(spec, propagate(spec, chain))
        expected[k - 1] = dist.mean_lower_bound()
        lower[k - 1] = dist.overflow > 1e-9
    return ExpectedRunCounts(
        run_lengths=np.arange(1, k_max + 1), expected=expected, lower_bound=lower
    )


def auto_truncation(chain: PosteriorChain, statistic: str, run_length: int | None = None) -> int:
    """Truncation level for a statistic, computed from the chain alone.

    Counting statistics get the largest value any path of length n can take,
    so their overflow is exactly 0.  longest_run gets the smallest ell whose
    union bound P(L >= ell+1) <= sum_t s_t * prod_{j=1..ell} b_{t+j} is at
    most OVERFLOW_TOL, where s_1 = P(y_1 = 2 | x) and s_t = 1 - a_t bound the
    probability that a state-2 run starts at t.
    """
    n = chain.n
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
    a, b = stay_probabilities(chain)
    # bound[t] = s_t * prod of the next ell stay probabilities, for the runs
    # that can still be longer than ell
    bound = np.concatenate(([chain.init[1]], 1.0 - a))[:-1] * b
    ell = 1
    while bound.sum() > OVERFLOW_TOL:  # empty, so 0, once ell reaches n
        ell += 1
        bound = bound[:-1] * b[ell - 1 :]
    return ell
