"""Random code sampling and exact badness decisions at finite n.

The sharp-threshold statement is asymptotic; this module measures how the
transition looks at desk scale.  A random code keeps every word of
Sigma^n independently with probability q^{-n(1-R)}, which is sampled
distribution-exactly as a Binomial count of codewords followed by that
many distinct uniform words.

A tuple of L distinct codewords (as matrix columns) is "bad" when sets
K_i of ell symbols exist, one per coordinate, leaving each column with at
most floor(p*n) uncovered coordinates.  The decision is made exactly by a
dynamic program over coordinates whose state is the vector of per-column
violation counts; counts above the budget are clipped and such states
dropped as unrecoverable.  Per coordinate only the distinct coverage
patterns matter: every size-ell set K induces the same pattern as its
intersection with the symbols actually present, so at most
C(min(q, L), ell) transitions are built, once per distinct symbol column,
each with its K (padded by the smallest absent symbols when fewer than ell
are present).

Codes are lexicographically sorted (M, n) symbol arrays, and a row's bytes
are its identity.  The DP's columns and the search's code follow one word
rule: integer symbols in 0..q-1, one nonzero length, distinct words.
_code_array checks it once, where a caller's words enter is_bad_tuple or
contains_bad_matrix.  A sweep's sampled codes keep it by construction and
the DP's tuples are row subsets of a checked code, so the sweep and the
search pass them on as _Checked views, which it takes as they are.  The
sampler's rejection branch and that check deduplicate words by a base-b int64
key per row (b: the largest symbol + 1) from 128 rows with b^n < 2^63, else
by a stable sort of their bytes, linear on sorted codes.  For every q, ell
and n the search holds the code as ceil(log2 q) bit planes, at most one per
bit of the code's integer type, of ceil(n/64) uint64 words, and two words
differ where the OR over the planes of their XOR is set.
Badness is hereditary: the K-sets of a bad tuple leave each of its
sub-tuples bad.  So one depth-first search over ascending row prefixes,
for every ell, extends a prefix only by rows with which each
(ell+1)-subset passes a count test: at most (ell+1)*floor(p*n)
coordinates carry ell+1 distinct symbols, as each such coordinate leaves
one of them uncovered.  For ell = 1 this is the Hamming
test d <= 2*floor(p*n).  With L = ell+1 the test is exact, since those
misses may go to any column and so spread evenly; for larger L the DP
decides the L-tuples that pass.  The search returns at the first bad tuple.

The tests run in one pair table per prefix P, not one array call per
(prefix, row): for candidates w < x it says whether {S, w, x} passes for
every (ell-1)-set S of P's rows, and the walk reads the candidates of
P + [w] from row w.  The children of a prefix of ell-2 rows (none at
ell = 1) have one S each and suffixes of one candidate list as theirs, so
their tables are slices of one table over (k, w, x): a leading axis of
siblings fills several in one pass.  Tables fill lazily, a block of whole
sibling tables or a chunk of one table's rows at a time, each block one
broadcast over the later candidates: a popcount of the AND of the
difference masks of every pair in {S, w, x}, those not of (w, x) built once
per prefix or block.  So an early stop wastes little.  PAIR_BUDGET is
charged for the masks and for each block before they are built.  Each block
counts the candidates its rows keep, and the walk skips with no call the rows
left with too few for a full tuple.  SUBSET_BUDGET, PAIR_BUDGET, STATE_BUDGET
and DEPTH_BUDGET cap a search at run time.  Each helper a sweep forks runs
and seeds an equal run of every point's trials, largest expected code first.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import BudgetError, ValidationError, integer, real, shown
from .qmath import check_alphabet

__all__ = [
    "RandomCodeSpec",
    "BadnessCertificate",
    "SweepRow",
    "SweepReport",
    "trial_seed",
    "sample_random_code",
    "is_bad_tuple",
    "contains_bad_matrix",
    "empirical_threshold_sweep",
]

#: Cap on the expected code size q^{nR}.
SIZE_CAP = 2_000_000

#: Cap on the total trials of one sweep, all (n, rate) points together.
TRIAL_BUDGET = 1_000_000

#: Cap on one search's pair tests, one per pair of words and 64-bit word of bit planes.
PAIR_BUDGET = 2**31

#: Cap on the state entries (states times L) one badness DP keeps, over all coordinates.
STATE_BUDGET = 2**20

#: Cap on the rows of the tuples a search builds, the depth of its recursion.
DEPTH_BUDGET = 64

#: Cap on the candidate tuples one search tests.
SUBSET_BUDGET = 2_000_000

# Bytes of candidate words behind one block of a search pair table.
_TABLE_BYTES = 1 << 18

# At most this many behind a block that sibling tables share.  Sharing saves
# calls where small tables make fixed numpy costs dominate; a larger block saves
# little time and raises the peak memory.
_SHARED_BYTES = 1 << 16


@dataclass(frozen=True)
class RandomCodeSpec:
    """Parameters of one random code draw."""

    n: int
    rate: float
    q: int
    seed: int

    def __post_init__(self) -> None:
        integer(self.n, "n", 1)
        object.__setattr__(self, "rate", real(self.rate, "rate", 0.0, 1.0))  # stored as a float
        integer(self.q, "q", 2, 2**63, "an integer in 2..2**63")  # rng.integers' largest bound
        integer(self.seed, "seed", 0, 2**64 - 1, "an integer in [0, 2**64)")


@dataclass(frozen=True)
class BadnessCertificate:
    """A witness that L codewords violate (p, ell, L)-list-recovery.

    ``k_sets[i]`` is the chosen ell-symbol set at coordinate i and
    ``violation_counts[j]`` counts the coordinates where column j falls
    outside them; each count is at most ``budget`` = floor(p*n).
    """

    column_codewords: tuple[tuple[int, ...], ...]
    k_sets: tuple[frozenset[int], ...]
    violation_counts: tuple[int, ...]
    budget: int

    def recheck(self) -> bool:
        """Recompute the violation counts from scratch and re-validate."""
        if any(len(col) != len(self.k_sets) for col in self.column_codewords):
            return False
        recount = tuple(sum(s not in k for s, k in zip(col, self.k_sets))
                        for col in self.column_codewords)
        return recount == self.violation_counts and max(recount) <= self.budget


class SweepRow(NamedTuple):
    n: int
    rate: float
    trials: int
    satisfied: int
    fraction: float


@dataclass(frozen=True)
class SweepReport:
    """Per-(n, rate) badness fractions plus interpolated 1/2-crossings."""

    rows: tuple[SweepRow, ...]
    crossings: dict[int, Optional[float]]
    base_seed: int
    elapsed_s: float


def trial_seed(base_seed: int, n: int, rate: float, trial: int) -> int:
    """Deterministic per-trial seed, independent of execution order.

    Mixing function: numpy SeedSequence over the entropy tuple
    (base_seed, n, round(rate * 1e9), trial).  ValidationError unless
    base_seed is an int in [0, 2**64), n an int >= 1, trial an int >= 0 and
    rate a real in [0, 1].
    """
    integer(base_seed, "base_seed", 0, 2**64 - 1, "an integer in [0, 2**64)")
    integer(n, "n", 1)
    integer(trial, "trial", 0)
    rate = real(rate, "rate", 0.0, 1.0)
    ss = np.random.SeedSequence((base_seed, n, round(rate * 1e9), trial))
    return int(ss.generate_state(1, np.uint64)[0])


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows of symbols >= 0, sorted by a base-b int64 key each from 128 rows on where
    b^n < 2^63 (b: the largest symbol + 1), else by bytes (lexicographic if unsigned big-endian)."""
    rows = np.ascontiguousarray(rows)
    count, n = rows.shape
    # Keys win from about 128 rows; below, bytes sort as fast and fault in no matmul or quicksort.
    if count >= 128 and (b := int(rows.max()) + 1) ** n < 2**63:
        keys = np.matmul(rows, b ** np.arange(n - 1, -1, -1, dtype=np.int64), dtype=np.int64)
        order = np.argsort(keys)
    else:  # Timsort: linear on sorted codes. np.sort raises MemoryError past ~90 kB rows.
        keys = rows.view(np.dtype((np.void, n * rows.itemsize))).ravel()
        order = np.argsort(keys, kind="stable")
    keys = keys[order]
    keep = np.ones(count, bool)
    keep[1:] = keys[1:] != keys[:-1]
    return rows[order[keep]]


def _expected_size(n: int, rate: float, q: int) -> float:
    """q^{nR}, or BudgetError past SIZE_CAP (also when it overflows a float)."""
    try:
        expected = float(q) ** (n * rate)
    except OverflowError:
        expected = math.inf
    if expected > SIZE_CAP:
        raise BudgetError(
            f"(n={shown(n)}, rate={rate}): expected code size {expected:.3g} exceeds the cap {SIZE_CAP}"
        )
    return expected


def sample_random_code(spec: RandomCodeSpec) -> np.ndarray:
    """Draw one random code, deterministically in the seed.

    The count M ~ Binomial(q^n, q^{-n(1-R)}) is sampled first (exactly, for
    spaces within 64-bit range; via the Poisson limit beyond, where the
    total-variation gap is below 1e-18 at any size passing the memory cap),
    then M distinct uniform words are drawn: past 2^22 words by rejection,
    deduplicated by an integer key per word below 2^63 words (from 128 words
    on), else by their bytes.
    Returned as an (M, n) array of symbols with rows in lexicographic order,
    so the word order carries no information.
    """
    n, q, rate = spec.n, spec.q, spec.rate
    expected = _expected_size(n, rate, q)
    space = q**n
    rng = np.random.default_rng(spec.seed)
    prob = float(q) ** -(n * (1.0 - rate))
    m = int(rng.binomial(space, prob) if space < 2**63 else rng.poisson(expected))
    # Unsigned and, past one byte, big-endian: row bytes sort lexicographically.
    dtype = np.dtype(np.uint8 if q <= 256 else ">u8")
    if space <= 1 << 22:
        idx = np.sort(rng.choice(space, size=m, replace=False))
        # Base-q digits, most significant first: index order is word order.
        powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return (idx[:, None] // powers % q).astype(dtype)

    # Rejection: the space dwarfs m, so collisions are rare.
    words = np.empty((0, n), dtype=dtype)
    while len(words) < m:  # the int64 draws are freed before the sort
        words = _unique_rows(np.concatenate(
            [words, rng.integers(0, q, size=(m - len(words), n))], dtype=dtype, casting="unsafe"))
    return words


@functools.lru_cache(maxsize=4096)
def _pattern_listing(syms: tuple[int, ...], ell: int, q: int) -> tuple:
    """Distinct transitions of one symbol column: (miss indicator per column, K).

    Only subsets of the symbols present in this coordinate matter; any
    size-ell set acts through its intersection with them, and supersets
    dominate, so taking min(ell, #present) of the present symbols is
    exhaustive up to domination.  When fewer than ell symbols are present,
    K is padded to ell symbols with the smallest absent ones of 0..q-1.
    """
    present = sorted(set(syms))
    absent = (s for s in range(q) if s not in present)
    pad = frozenset(itertools.islice(absent, max(0, ell - len(present))))
    return tuple(
        (tuple(0 if s in core else 1 for s in syms), pad.union(core))
        for core in itertools.combinations(present, min(ell, len(present)))
    )


def is_bad_tuple(
    columns: np.ndarray | Sequence[Sequence[int]], p: float, ell: int, q: int
) -> Optional[BadnessCertificate]:
    """Exact badness decision for L columns, with a certificate when bad.

    The columns follow the same word rule as a code (_code_array).  Dynamic
    program over coordinates; state = per-column violation counts, states
    exceeding the floor(p*n) budget are dropped.  Back-pointers reconstruct
    one witnessing assignment of K_i sets.  BudgetError past STATE_BUDGET state entries.
    """
    p = _check_search(p, ell, q)
    cols = tuple(map(tuple, _code_array(columns, q).tolist()))
    L, n = integer(len(cols), "L", 1), len(cols[0])

    budget = math.floor(p * n)
    kept = 0  # state entries in the trace, as STATE_BUDGET counts them
    states = {(0,) * L}
    trace = []  # per coordinate, {state: (its state before, the K that led to it)}
    patterns = {}  # per distinct symbol column, this call only
    for syms in zip(*cols):
        if syms not in patterns:  # counted against STATE_BUDGET before they are listed
            present = len(set(syms))
            if (count := math.comb(present, min(ell, present))) * L > STATE_BUDGET:
                raise BudgetError(f"{count} coverage patterns of {L} columns pass "
                                  f"{STATE_BUDGET} badness DP state entries")
            # Only small listings are cached, so the cache holds a few MB at most.
            listing = _pattern_listing if count * L <= 64 else _pattern_listing.__wrapped__
            patterns[syms] = listing(syms, ell, q)
        step = {}
        for miss, k_set in patterns[syms]:
            if not any(miss):  # the only pattern: every state carries over
                step = {st: (st, k_set) for st in states}
                continue
            for st in states:
                nxt = tuple(map(operator.add, st, miss))
                if max(nxt) <= budget and nxt not in step:
                    step[nxt] = (st, k_set)
        if not step:
            return None
        kept += len(step) * L
        if kept > STATE_BUDGET:
            raise BudgetError(f"more than {STATE_BUDGET} badness DP state entries")
        trace.append(step)
        states = set(step)

    state = final = min(states)
    k_sets = []
    for step in reversed(trace):
        state, k_set = step[state]
        k_sets.append(k_set)
    return BadnessCertificate(cols, tuple(reversed(k_sets)), final, budget)


# ---------------------------------------------------------------------------
# Whole-code search


class _Checked(np.ndarray):
    """Rows of a code already known to keep the word rule over the q at hand.

    Only the sampler's codes and row subsets of a checked code carry this type,
    so _code_array takes them without a second range check and distinctness sort.
    """


def _code_array(code, q: int) -> np.ndarray:
    """The code as an (M, n) integer array of distinct words over 0..q-1."""
    if type(code) is _Checked:
        return code.view(np.ndarray)
    try:
        arr = np.asarray(code)
    except ValueError as exc:
        raise ValidationError("codewords must share a common length") from exc
    if arr.shape[:1] == (0,):  # no words; None, an int or a generator gives a 0-d array
        return np.empty((0, 0), dtype=np.uint8)
    # numpy reads words mixing bools and ints as ints; an array's own dtype decides.
    if arr.ndim != 2 or arr.shape[1] == 0 or arr.dtype.kind not in "iu" or arr is not code and (
            {bool, np.bool_} & set(map(type, itertools.chain(*code)))):
        raise ValidationError("codewords must be nonempty integer words of one length")
    if arr.min() < 0 or arr.max() >= q:
        raise ValidationError(f"codeword symbols must lie in 0..{shown(q - 1)}")
    if len(_unique_rows(arr)) != len(arr):
        raise ValidationError("code must consist of distinct codewords")
    return arr


def _bit_planes(arr: np.ndarray, q: int) -> np.ndarray:
    """(b, W, M) uint64 words: bit i % 64 of [k, i // 64, m] is bit k of symbol (m, i)."""
    count, n = arr.shape
    bits = np.zeros((count, 64 * -(-n // 64)), np.uint8)  # one plane, a byte per bit
    planes = []
    for k in range(min((q - 1).bit_length(), 8 * arr.itemsize)):  # q >= 2; symbols fit the type
        bits[:, :n] = arr >> k & 1 if q > 2 else arr
        planes.append(np.packbits(bits, bitorder="little").view("<u8").reshape(count, -1).T)
    return np.stack(planes) if q > 2 else planes[0][None]  # one plane: no copy


def _differ(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Where words x and y differ: the OR over their bit planes (axis 0) of the XOR."""
    apart = x[0] ^ y[0]
    for k in range(1, len(x)):
        apart |= x[k] ^ y[k]
    return apart


def _popcount(masks: np.ndarray, n: int) -> np.ndarray:
    """Set bits of (W, ...) masks over n coordinates, summed word by word from word 0."""
    count = np.bitwise_count(masks[0])
    for word in masks[1:]:  # in uint8 while n < 256
        count = np.add(count, np.bitwise_count(word), dtype=np.uint8 if n < 256 else np.intp)
    return count


def _check_search(p: float, ell: int, q: int) -> float:
    check_alphabet(q, ell)
    return real(p, "p", 0.0, 1.0)


def contains_bad_matrix(
    code: np.ndarray | Sequence[Sequence[int]], p: float, ell: int, L: int, q: int
) -> tuple[bool, Optional[BadnessCertificate]]:
    """Whether some L distinct codewords form a bad tuple, and the first such tuple's certificate.

    The code is an (M, n) array or a sequence of distinct words.  Tuples
    are tried depth first over ascending prefixes, in lexicographic order of
    row indices, pruned by the (ell+1)-subset count test.  A prefix with at
    least ell-1 rows and two or more to add reads its rows from a lazily
    filled pair table (module docstring), and the children of a prefix of
    ell-2 rows read theirs from one table with a leading axis of siblings.
    Blocks hold about _TABLE_BYTES of candidate bit planes, shared ones at
    most _SHARED_BYTES.  The DP decides the L-tuples that pass; when
    L <= ell+1 the test is exact, and the DP only writes the first one's
    certificate.  A tuple counts as tested when the count test checks its
    last row against a surviving prefix of L-1 rows, whether or not the DP
    then runs on it; for every ell, BudgetError is raised once SUBSET_BUDGET,
    PAIR_BUDGET, STATE_BUDGET or DEPTH_BUDGET is passed.
    """
    p = _check_search(p, ell, q)
    integer(L, "L", 1)
    arr = _code_array(code, q)
    if len(arr) < L:  # no L-tuple: nothing is tested, and no planes are built
        return False, None
    n = arr.shape[1]
    limit = (ell + 1) * math.floor(p * n)
    planes = _bit_planes(arr, q)
    checked = arr.view(_Checked)  # the DP's tuples are row subsets of it
    compared = 0  # pair tests so far, as PAIR_BUDGET counts them

    def pay(tests: int) -> None:
        nonlocal compared
        compared += tests
        if compared > PAIR_BUDGET:
            raise BudgetError(f"more than {PAIR_BUDGET} pair tests of 64-bit plane words")

    def masks(sets, count: int, block: np.ndarray) -> list[np.ndarray]:
        # Per (ell-1)-set S of rows, as (b, W, K, 1) plane arrays (K > 1: a leading
        # axis of sibling rows), where they differ pairwise and from each candidate
        # in block.  ``count``: the sets, or the sibling rows, paid for first in
        # pair tests times plane words.
        pay(count * ((ell - 1) * block.shape[-1] + math.comb(ell - 1, 2)) * block[:, :, 0].size)
        return [functools.reduce(operator.and_, itertools.starmap(_differ, itertools.chain(
            ((r, block[:, :, None]) for r in rows), itertools.combinations(rows, 2))))
            for rows in sets]

    def pair_table(prefix: list[int], cand: list[int], least: int, siblings: bool = False):
        # The pair table of prefix over cand or, with siblings, those of each
        # prefix + [cand[s]] over cand[s + 1 :], in order.  Each is a list or an
        # iterator of (k, the candidates after its k-th that pass every test with
        # the prefix and it), for the rows k that keep at least ``least`` of them.
        index = np.array(cand)
        block = planes.take(index, axis=-1)
        column = block.nbytes // len(cand)
        first, tables = (1, len(cand) - least - 1) if siblings else (0, 1)

        def run(ms: list[np.ndarray], s0: int, s1: int, i0: int, i1: int):
            # The rows of tables s0:s1 among rows i0:i1 of cand, a list per table.
            width, height = len(cand) - i0 - 1, i1 - i0
            pay((s1 - s0) * height * (2 * width - height + 1) // 2 * (column // 8))
            apart = _differ(block[:, :, i0:i1, None], block[:, :, None, i0 + 1 :])
            # At ell = 1 the pair's own mask; else one test per (ell-1)-set S.
            ok = _popcount(apart, n) <= limit if ell == 1 else functools.reduce(
                operator.and_, [_popcount(apart[:, None] & m[:, :, i0:i1, None]
                                          & m[:, :, None, i0 + 1 :], n) <= limit for m in ms])
            # Passing pairs in row-major order; keep those past each row's own column
            # (row t * height + r of a block of siblings is row r of its table t).
            row, j = np.divmod(np.flatnonzero(ok), width)
            keep = j >= (row % height if s1 - s0 > 1 else row)
            hits = index[i0 + 1 :][j[keep]].tolist()
            ends = [0, *np.bincount(row[keep], minlength=ok.size // width).cumsum().tolist()]
            # Table t of a block of siblings reads its rows from the t-th on.
            return [[(k, hits[a:b]) for k, (a, b) in enumerate(itertools.pairwise(
                ends[t * (height + 1) : (t + 1) * height + 1]), i0 - s0 - first) if b - a >= least]
                for t in range(s1 - s0)]

        def chunks(s: int, ms: list[np.ndarray]):
            i0 = s + first
            while i0 < len(cand) - least:  # later rows have fewer candidates left
                width = len(cand) - i0 - 1
                i1 = min(len(cand), i0 + max(1, _TABLE_BYTES // (width * column)))
                yield from run(ms, s, s + 1, i0, i1)[0]
                i0 = i1

        ms = [] if siblings or ell == 1 else masks(
            ([planes[:, :, a, None, None] for a in s] for s in itertools.combinations(prefix, ell - 1)),
            math.comb(len(prefix), ell - 1), block)
        s = 0
        while s < tables:
            i0 = s + first
            whole = (len(cand) - i0) * (len(cand) - i0 - 1) * column  # one table at once
            s1 = s + max(1, min(tables - s, min(_TABLE_BYTES, _SHARED_BYTES) // whole))
            if siblings:
                rows = [planes[:, :, a, None, None] for a in prefix] + [block[:, :, s:s1, None]]
                ms = masks([rows], s1 - s, block)
            yield from run(ms, s, s1, i0, len(cand)) if whole <= _TABLE_BYTES else [chunks(s, ms)]
            s = s1

    tested = 0

    def charge(start: int, c: int, done: int) -> int:
        # Last level: each of the first ``done`` of c candidates, skipped or not,
        # was tested against every later one.
        if (total := start + done * (2 * c - done - 1) // 2) > SUBSET_BUDGET:
            raise BudgetError(f"more than {SUBSET_BUDGET} candidate {L}-tuples tested")
        return total

    def extend(prefix: list[int], cand: list[int], rows=None) -> Optional[BadnessCertificate]:
        # ``cand``: ascending rows after the prefix that pass every test with it, at
        # least ``need``: the root has L, and each row passed on keeps need - 1 later
        # ones (a sibling pass builds one table per trivial row); ``rows``: the
        # prefix's table, when a sibling pass built it.
        nonlocal tested
        if len(prefix) == DEPTH_BUDGET:
            raise BudgetError(f"more than {DEPTH_BUDGET} rows in a search tuple")
        need = L - len(prefix)
        if need == 1:
            return next(filter(None, (is_bad_tuple(checked[prefix + [c]], p, ell, q)
                                      for c in cand)), None)
        if rows is None and len(prefix) >= ell - 1:
            rows, = pair_table(prefix, cand, need - 1)
        elif rows is None:  # each row leaves enough later ones for a full tuple
            rows = ((k, cand[k + 1 :]) for k in range(len(cand) - need + 1))
        siblings = len(prefix) == ell - 2 and need > 2
        tables = pair_table(prefix, cand, need - 2, True) if siblings else None
        start = tested
        for k, later in rows:
            if need == 2:
                tested = charge(start, len(cand), k + 1)
            cert = extend(prefix + [cand[k]], later, next(tables) if tables else None)
            if cert is not None:
                return cert
        if need == 2:
            tested = charge(start, len(cand), len(cand))
        return None

    try:
        cert = extend([], np.arange(len(arr)))
    finally:  # extend calls itself: a cycle that would keep this search's arrays until gc
        del extend
    return cert is not None, cert


# ---------------------------------------------------------------------------
# Threshold sweep


def resolve_workers() -> int:
    """Worker count: CODE_THRESH_THREADS, else the CPU count, at most the CPUs; 1 without fork."""
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if not (env := os.environ.get("CODE_THRESH_THREADS")):
        return cpus
    try:
        count = int(env)
    except ValueError as exc:
        raise ValidationError(f"CODE_THRESH_THREADS must be an integer: {env!r}") from exc
    if count < 1:
        raise ValidationError(f"CODE_THRESH_THREADS must be >= 1, got {count}")
    return min(count, cpus)


def _run_shares(share, stride: int) -> list[int]:
    """share(w, stride) added element by element over w < stride: in process below stride 2,
    else in one forked helper per share that pickles its counts or its error down a pipe and
    ends by os._exit, flushing no inherited buffer.  The parent raises a helper's error as it is,
    or BudgetError for a helper that cannot start or sends nothing readable; then it reaps all."""
    if stride < 2:
        return share(0, 1)
    import pickle, select, signal  # only a sweep that forks needs them
    shares, helpers = [], {}  # the read end of each helper's pipe: (w, pid)
    try:
        for w in range(stride):
            fds = ()
            try:
                fds = r, wfd = os.pipe()
                pid = os.fork()
            except OSError as exc:  # EMFILE, EAGAIN or ENOMEM, say
                list(map(os.close, fds))
                raise BudgetError(f"sweep helper {w} could not start: {exc}") from exc
            if pid == 0:  # the helper: it never returns
                try:  # a blocking pipe takes all of each write
                    os.write(wfd, pickle.dumps(("ok", share(w, stride))))
                except BaseException as exc:  # the parent raises it
                    os.write(wfd, pickle.dumps(("error", exc)))
                finally:  # also when the except clause raises
                    os._exit(0)
            os.close(wfd)  # the helper alone holds it, so its exit ends the read
            helpers[open(r, "rb")] = w, pid
        while pending := [pipe for pipe in helpers if not pipe.closed]:
            for pipe in select.select(pending, [], [])[0]:
                with pipe:
                    data = pipe.read()
                try:
                    kind, value = pickle.loads(data)
                except Exception:  # nothing, or a cut or unreadable pickle
                    w, pid = helpers.pop(pipe)  # reaped here, for its wait status
                    raise BudgetError(f"sweep helper {w} sent no result (wait status "
                                      f"{os.waitpid(pid, 0)[1]})") from None
                if kind == "error":
                    raise value
                shares.append(value)
    finally:
        for pipe, (_, pid) in helpers.items():  # those not yet done need not finish
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    return list(map(sum, zip(*shares)))


def _interpolate_crossing(rates: Sequence[float], fractions: Sequence[float]) -> Optional[float]:
    """Rate where the fraction first passes 1/2, linearly interpolated."""
    if fractions and fractions[0] > 0.5:
        return rates[0]
    for i in range(len(rates) - 1):
        f0, f1 = fractions[i], fractions[i + 1]
        if f0 <= 0.5 < f1:
            return rates[i] + (0.5 - f0) * (rates[i + 1] - rates[i]) / (f1 - f0)
    return None


def empirical_threshold_sweep(
    n_list: Sequence[int],
    rate_grid: Sequence[float],
    trials: int,
    p: float,
    ell: int,
    L: int,
    q: int,
    base_seed: int,
) -> SweepReport:
    """Fraction of seeded random codes containing a bad matrix, per (n, rate).

    Invalid parameters, a base_seed outside [0, 2**64), no or repeated n, no rates
    or rates outside [0, 1] or not strictly increasing, codes over SIZE_CAP, more
    than TRIAL_BUDGET trials in all and a bad CODE_THRESH_THREADS are refused before
    any seeding or sampling.  Each forked helper runs an equal run of every point's trials,
    largest n*rate first, seeded by trial_seed(base_seed, n, rate, trial): rows ignore workers.
    """
    integer(trials, "trials", 1)
    p = _check_search(p, ell, q)
    integer(L, "L", 1)
    try:
        empty = 0 in (len(n_list), len(rate_grid))
    except TypeError:
        raise ValidationError(
            f"need sequences of n and rates: {shown(n_list)}, {shown(rate_grid)}") from None
    # Each spec checks its n, its rate (stored as a float), q and the seed.
    specs = [RandomCodeSpec(n, rate, q, base_seed) for n in n_list for rate in rate_grid]
    points, rates = [(s.n, s.rate) for s in specs], [s.rate for s in specs[: len(rate_grid)]]
    if empty or len(set(n_list)) != len(n_list) or any(a >= b for a, b in zip(rates, rates[1:])):
        raise ValidationError("need distinct n, strictly increasing rates, neither empty: "
                              f"{shown(n_list, str)}, {rate_grid}")
    for n, rate in points:
        _expected_size(n, rate, q)
    if trials * len(points) > TRIAL_BUDGET:
        raise BudgetError(f"{shown(trials)} trials x {len(points)} points exceed the cap {TRIAL_BUDGET}")

    def share(w: int, stride: int) -> list[int]:
        # Largest expected code q^{n*rate} first: in the given order a helper peaks higher.
        found = dict.fromkeys(points, 0)  # counts in point order
        run = range(trials * w // stride, trials * (w + 1) // stride)  # helper w's equal run
        for (n, rate), t in itertools.product(sorted(points, key=lambda pt: -pt[0] * pt[1]), run):
            code = sample_random_code(RandomCodeSpec(n, rate, q, trial_seed(base_seed, n, rate, t)))
            found[n, rate] += contains_bad_matrix(code.view(_Checked), p, ell, L, q)[0]
        return list(found.values())

    t0 = time.perf_counter()
    counts = _run_shares(share, min(resolve_workers(), trials))
    rows = [SweepRow(n, rate, trials, c, c / trials) for (n, rate), c in zip(points, counts)]
    crossings = {n: _interpolate_crossing(rates, [r.fraction for r in rows if r.n == n])
                 for n in n_list}
    return SweepReport(tuple(rows), crossings, base_seed, time.perf_counter() - t0)
