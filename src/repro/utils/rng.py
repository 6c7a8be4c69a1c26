"""Deterministic pseudo-randomness for the simulator.

Every stochastic decision in the machine model (replacement-policy tie
breaks, vulnerable-cell placement, timing noise) is driven either by a
stateful :class:`DeterministicRng` stream or by the stateless
:func:`hash64` mix, both seeded explicitly.  This keeps whole experiments
reproducible from a single seed and lets the fault model sample
per-(bank, row, bit) properties lazily without storing them.
"""

import sys
from array import array

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: A stream's first refill computes this many draws; each later refill
#: doubles, up to :data:`_MAX_BLOCK`.  Short-lived streams (one per
#: cache set, one per DRAM row) thus stay small, while busy ones
#: amortise the block's fixed cost over hundreds of draws.
_FIRST_BLOCK = 8
_MAX_BLOCK = 512

#: ``draw * _UNIT`` equals ``draw / float(1 << 64)`` bit for bit: both
#: round the int to a double, then scale by an exact power of two.
_UNIT = 2.0**-64

_BIG_ENDIAN = sys.byteorder == "big"


def _splitmix64(x):
    """One round of the splitmix64 output mix; full 64-bit avalanche."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


_LANES = {}


def _lanes(n):
    """``(ones, offsets, low)`` for ``n`` lanes of 128 bits each.

    ``ones`` has a 1 at the bottom of every lane, ``offsets`` holds
    ``(k + 2) * _GOLDEN mod 2**64`` in lane ``k``, and ``low`` masks
    every lane to its low 64 bits.
    """
    lanes = _LANES.get(n)
    if lanes is None:
        ones = sum(1 << (128 * k) for k in range(n))
        offsets = sum((((k + 2) * _GOLDEN) & _MASK64) << (128 * k) for k in range(n))
        lanes = _LANES[n] = (ones, offsets, ones * _MASK64)
    return lanes


def _splitmix_block(state, n):
    """The next ``n`` draws of the stream at ``state``, as an ``array("Q")``.

    splitmix64 is counter-based: draw ``k`` is
    ``_splitmix64((state + (k + 1) * _GOLDEN) mod 2**64)``.  So the
    ``n`` counters go into 128-bit lanes of one int (lane ``k`` holds
    ``state + (k + 2) * _GOLDEN``, the mix's own first add included)
    and each step of the mix is one big-int operation over the whole
    block.  Every lane is masked to its low 64 bits before each
    multiply, so a 128-bit product never spills into the next lane;
    bits that a right shift pulls down from the next lane land in the
    lane's upper half, where the next mask or, at the end, the unpack
    drops them.
    """
    ones, offsets, low = _lanes(n)
    x = (state * ones + offsets) & low
    x = (((x ^ (x >> 30)) & low) * _MIX1) & low
    x = (((x ^ (x >> 27)) & low) * _MIX2) & low
    x ^= x >> 31
    words = array("Q")
    words.frombytes(x.to_bytes(16 * n, "little"))
    block = words[::2]  # the low word of every lane
    if _BIG_ENDIAN:
        block.byteswap()
    return block


def hash64(*keys):
    """Mix any number of integer keys into one well-distributed 64-bit value.

    ``hash64(seed, bank, row, bit)`` is a pure function: the fault model
    uses it to derive per-cell properties without per-cell state.
    String keys are accepted so subsystems can fork RNG streams by
    name, but only a string's first 8 UTF-8 bytes count: keys that
    share them (``"campaign-probe"`` and ``"campaign-pause"``) mix
    alike and so fork the same stream.
    """
    acc = 0x243F6A8885A308D3  # pi fractional bits; arbitrary non-zero start
    for key in keys:
        if isinstance(key, str):
            key = int.from_bytes(key.encode("utf-8")[:8].ljust(8, b"\0"), "little")
        acc = _splitmix64(acc ^ (key & _MASK64))
    return acc


def hash_to_unit(*keys):
    """Map integer keys to a float uniform in [0, 1)."""
    return hash64(*keys) / float(1 << 64)


class DeterministicRng:
    """A small, fast, seedable RNG stream (splitmix64 sequence).

    Deliberately minimal: the simulator only needs ``next_u64``,
    bounded integers, floats, choice, and shuffle.

    Draws are served from a block that :func:`_splitmix_block`
    computes ahead; the stream's position is the block's base plus
    one ``_GOLDEN`` step per draw taken from it, and that position is
    all that :meth:`state_dict`, :meth:`fork` and :meth:`load_state`
    see.  The emitted stream is the scalar splitmix64 sequence, draw
    for draw (``tests/test_utils_rng.py`` is its oracle).
    """

    __slots__ = ("_base", "_block", "_taken", "_size")

    def __init__(self, seed):
        self._seek(seed)

    def _seek(self, state):
        self._base = state & _MASK64  # stream position at the block's start
        self._block = ()  # precomputed draws; empty until the first draw
        self._taken = 0  # draws taken from the block
        self._size = _FIRST_BLOCK  # length of the next refill

    def _position(self):
        return (self._base + self._taken * _GOLDEN) & _MASK64

    def _refill(self):
        """Compute the next block and take its first draw."""
        self._base = base = self._position()
        size = self._size
        self._block = block = _splitmix_block(base, size)
        self._taken = 1
        self._size = min(2 * size, _MAX_BLOCK)
        return block[0]

    # next_u64/randint/random/chance each take their draw inline rather
    # than through next_u64: they sit on the machine's access hot path
    # (replacement-policy draws, timing noise, chaos checks), where a
    # frame costs as much as the draw.

    def next_u64(self):
        """Advance the stream and return the next 64-bit value."""
        taken = self._taken
        try:
            draw = self._block[taken]
        except IndexError:
            return self._refill()
        self._taken = taken + 1
        return draw

    def randint(self, bound):
        """Uniform integer in ``[0, bound)``; ``bound`` must be positive."""
        if bound <= 0:
            raise ValueError("bound must be positive, got %r" % (bound,))
        taken = self._taken
        try:
            draw = self._block[taken]
        except IndexError:
            return self._refill() % bound
        self._taken = taken + 1
        return draw % bound

    def randrange(self, lo, hi):
        """Uniform integer in ``[lo, hi)``."""
        return lo + self.randint(hi - lo)

    def random(self):
        """Uniform float in [0, 1)."""
        taken = self._taken
        try:
            draw = self._block[taken]
        except IndexError:
            return self._refill() * _UNIT
        self._taken = taken + 1
        return draw * _UNIT

    def chance(self, probability):
        """Return True with the given probability."""
        taken = self._taken
        try:
            draw = self._block[taken]
        except IndexError:
            return self._refill() * _UNIT < probability
        self._taken = taken + 1
        return draw * _UNIT < probability

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(len(seq))]

    def shuffle(self, items):
        """Fisher-Yates shuffle of ``items`` in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k):
        """Return ``k`` distinct elements of ``seq`` in random order."""
        if k > len(seq):
            raise ValueError("sample size %d exceeds population %d" % (k, len(seq)))
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]

    def fork(self, *keys):
        """Derive an independent child stream keyed by ``keys``.

        Child streams let subsystems draw randomness without perturbing
        each other's sequences.
        """
        return DeterministicRng(hash64(self._position(), *keys))

    # -- snapshot protocol (docs/SNAPSHOTS.md) --------------------------

    def state_dict(self):
        """JSON-serialisable stream position."""
        return {"state": self._position()}

    def load_state(self, state):
        """Restore the stream position captured by :meth:`state_dict`."""
        self._seek(state["state"])
