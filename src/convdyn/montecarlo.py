"""Seeded random-walk sampling as an independent check on exact powers.

Pseudorandom scheme
-------------------
Draws come from SplitMix64 (Steele, Lea & Vigna, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014; reference implementation
``splitmix64.c`` by Vigna), used here as a two-level counter-based
generator so that every draw is a pure function of (seed, trial, step):

    stream(t)  = mix64(seed + (t + 1) * GAMMA)        # per-trial stream seed
    draw(t, j) = mix64(stream(t) + (j + 1) * GAMMA)   # j-th step of trial t

where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finalizer.
All arithmetic is modulo 2^64.  Trials are therefore independent streams
derived from (seed, trial index): results are bit-reproducible and do not
depend on evaluation or aggregation order.

Element selection
-----------------
Weights are turned into exact cumulative boundaries, scaled by 2^64 and
ceiled to integers once per measure; a raw 64-bit draw r selects the
first element whose boundary exceeds r.  No float rounding enters the
selection, so exact-mode weights are sampled without bias beyond the
2^-64 lattice.

A walk multiplies its step draws left to right:
g(draw 0) * g(draw 1) * ... * g(draw steps-1).

Evaluation order
----------------
Walks are evaluated column by column over chunks of CHUNK_TRIALS trials:
for each step j the chunk's draws are made as one column, turned into
elements, and multiplied onto the running products; endpoint counts are
added up chunk by chunk.  The memory a run takes is therefore set by
CHUNK_TRIALS and the group, not by trials or steps.  Since every draw is
a function of (seed, trial, step) alone, the counts are those of any
other order, such as the row-per-trial ``draw_matrix``.

Each step writes its column into a buffer made once per call and hashes
it there, in place, with the finalizer that ``mix64`` applies to a copy
of its input.  The element index i = #{distinct boundaries <= r} is counted by
one comparison pass per boundary while there are few of them, and found
by binary search otherwise.  Both compute the same integer from the same
64-bit r, and the walk then reads the same table entries, so the counts
do not depend on which way i is found.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import BudgetError, DomainError
from .groups import _Frozen, _set
from .measures import ProbMeasure, l1_distance

if TYPE_CHECKING:  # numpy is imported only by the functions that use it
    import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

MC_BUDGET = 10**8  # cap on trials * steps draws per sampling run
CHUNK_TRIALS = 1 << 16  # trials walked together; bounds the sampler's memory
# Up to this many distinct boundaries a draw's element is found by one
# comparison pass per boundary, above it by binary search: counting is the
# faster of the two below about 100 boundaries (x86-64), and its uint8
# count holds at most 255.
_MAX_COUNTED_BOUNDS = 64


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 output finalizer applied to the uint64 array ``z`` in
    place; ``tmp`` is scratch of the same shape.  Array arithmetic on
    uint64 wraps modulo 2^64 without warnings."""
    import numpy as np

    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)


def mix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer over uint64 arrays; ``state`` is left
    unchanged."""
    import numpy as np

    z = np.array(state, dtype=np.uint64)
    _mix64_into(z, np.empty_like(z))
    return z


def _streams(seed: int, first: int, trials: int) -> np.ndarray:
    """Stream seeds of trials first .. first+trials-1."""
    import numpy as np

    with np.errstate(over="ignore"):
        t = np.arange(first + 1, first + trials + 1, dtype=np.uint64)
        return mix64(np.uint64(seed) + t * np.uint64(GAMMA))


def draw_matrix(seed: int, trials: int, steps: int) -> np.ndarray:
    """The (trials, steps) matrix of raw 64-bit draws defined above."""
    import numpy as np

    with np.errstate(over="ignore"):
        j = np.arange(1, steps + 1, dtype=np.uint64)
        return mix64(_streams(seed, 0, trials)[:, None] + j[None, :] * np.uint64(GAMMA))


class WalkConfig(_Frozen):
    """Configuration for sampling n-step products with i.i.d. steps."""

    __slots__ = ("measure", "steps", "trials", "seed")
    _fields = __slots__

    def __init__(self, measure: ProbMeasure, steps: int, trials: int, seed: int):
        if steps < 1:
            raise DomainError("steps must be >= 1")
        if trials < 1:
            raise DomainError("trials must be >= 1")
        if not 0 <= seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if steps * trials > MC_BUDGET:
            raise BudgetError(
                f"{trials} trials x {steps} steps exceeds the draw "
                f"budget {MC_BUDGET} (MC_BUDGET)"
            )
        _set(self, "measure", measure)
        _set(self, "steps", steps)
        _set(self, "trials", trials)
        _set(self, "seed", seed)


def cdf_thresholds(measure: ProbMeasure) -> np.ndarray:
    """ceil(cumulative weight * 2^64) for the leading elements, exact.

    A draw r selects element i = #{thresholds <= r}.  Boundaries that
    reach 2^64 exactly (the cumulative mass is already 1, so every later
    element has weight zero) are dropped: no 64-bit r ever meets them, and
    they would not fit in the uint64 array.
    """
    import numpy as np

    out = []
    acc = Fraction(0)
    boundary = 0
    for w in measure.weights[:-1]:
        if w:  # a zero weight repeats the previous boundary
            acc += Fraction(w)
            scaled = acc * (1 << 64)
            boundary = -((-scaled.numerator) // scaled.denominator)
            if boundary > _MASK:
                break
        out.append(boundary)
    return np.array(out, dtype=np.uint64)


def _endpoint_chunks(cfg: WalkConfig, first: int, trials: int):
    """Endpoints of trials first .. first+trials-1, CHUNK_TRIALS at a time."""
    import numpy as np

    g = cfg.measure.group
    thresholds = cdf_thresholds(cfg.measure)
    # Each interval between consecutive distinct boundaries selects one
    # element: compare with the distinct boundaries only, and keep only the
    # table columns of the selected elements (table[a * width + s] = a * selected[s]).
    bounds = np.unique(thresholds)
    selected = [0, *np.searchsorted(thresholds, bounds, side="right").tolist()]
    width = len(selected)
    table = np.column_stack(
        [np.fromiter(map(itemgetter(b), g.cayley), np.intp, g.order) for b in selected]
    ).ravel()
    counted = list(bounds) if len(bounds) <= _MAX_COUNTED_BOUNDS else None
    size = min(CHUNK_TRIALS, trials)
    buffers = [np.empty(size, t) for t in (np.uint64, np.uint64, np.bool_, np.uint8)]
    for lo in range(first, first + trials, CHUNK_TRIALS):
        n = min(CHUNK_TRIALS, first + trials - lo)
        streams = _streams(cfg.seed, lo, n)
        state = np.full(n, g.identity, dtype=np.intp)
        draws, scratch, hits, index = (b[:n] for b in buffers)
        for j in range(1, cfg.steps + 1):
            np.add(streams, np.uint64(j * GAMMA & _MASK), out=draws)  # wraps mod 2^64
            _mix64_into(draws, scratch)
            state *= width
            if counted is None:
                state += np.searchsorted(bounds, draws, side="right")
            else:
                index.fill(0)
                for bound in counted:
                    np.greater_equal(draws, bound, out=hits)
                    index += hits.view(np.uint8)
                state += index
            np.take(table, state, out=state)
        yield state


def sample_walk(cfg: WalkConfig, trial: int = 0) -> int:
    """One realization: the ordered product of ``steps`` i.i.d. draws,
    taken from the stream for (seed, trial)."""
    if not 0 <= trial < cfg.trials:
        raise DomainError(f"trial must be in 0..{cfg.trials - 1}")
    return int(next(_endpoint_chunks(cfg, trial, 1))[0])


def empirical_distribution(cfg: WalkConfig) -> ProbMeasure:
    """Frequency vector of walk endpoints over all trials (float mode)."""
    import numpy as np

    order = cfg.measure.group.order
    counts = np.zeros(order, dtype=np.int64)
    for endpoints in _endpoint_chunks(cfg, 0, cfg.trials):
        counts += np.bincount(endpoints, minlength=order)
    return ProbMeasure(
        cfg.measure.group, tuple(float(c) / cfg.trials for c in counts)
    )


def tv_distance(a: ProbMeasure, b: ProbMeasure) -> float:
    """Total variation distance, half the l1 distance."""
    return 0.5 * float(l1_distance(a.to_float(), b.to_float()))
