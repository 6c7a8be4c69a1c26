"""Deterministic RNG behaviour, and the stream's oracle.

Both engine tiers draw from the same :class:`DeterministicRng`, so a
stream bug moves the reference and the fast tier alike and no
tier-equivalence test can see it.  The tests below pin the stream to
literal vectors and to a scalar splitmix64 loop instead.
"""

from hypothesis import assume, given, settings, strategies as st
import pytest

from repro.chaos import CHAOS_PROFILES, chaos_profile
from repro.patterns import fuzz
from repro.utils.rng import (
    _FIRST_BLOCK,
    _GOLDEN,
    _MASK64,
    _MAX_BLOCK,
    DeterministicRng,
    _splitmix64,
    _splitmix_block,
    hash64,
    hash_to_unit,
)


def test_hash64_is_deterministic():
    assert hash64(1, 2, 3) == hash64(1, 2, 3)


def test_hash64_varies_with_any_key():
    base = hash64(1, 2, 3)
    assert hash64(0, 2, 3) != base
    assert hash64(1, 0, 3) != base
    assert hash64(1, 2, 0) != base


def test_hash64_accepts_string_keys():
    assert hash64(1, "dram") == hash64(1, "dram")
    assert hash64(1, "dram") != hash64(1, "tlb")


def test_hash64_output_is_64_bit():
    for i in range(100):
        assert 0 <= hash64(i) < (1 << 64)


def test_hash_to_unit_in_range():
    values = [hash_to_unit(7, i) for i in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)
    # Should look roughly uniform (no catastrophic clustering).
    assert 0.3 < sum(values) / len(values) < 0.7


def test_stream_reproducible():
    a = DeterministicRng(5)
    b = DeterministicRng(5)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_streams_differ_by_seed():
    assert DeterministicRng(1).next_u64() != DeterministicRng(2).next_u64()


def test_randint_bounds():
    rng = DeterministicRng(9)
    values = [rng.randint(13) for _ in range(500)]
    assert all(0 <= v < 13 for v in values)
    assert len(set(values)) == 13  # all residues eventually appear


def test_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        DeterministicRng(1).randint(0)


def test_randrange():
    rng = DeterministicRng(3)
    values = [rng.randrange(10, 20) for _ in range(200)]
    assert all(10 <= v < 20 for v in values)


def test_choice_and_empty_choice():
    rng = DeterministicRng(4)
    assert rng.choice([42]) == 42
    with pytest.raises(ValueError):
        rng.choice([])


def test_shuffle_is_permutation():
    rng = DeterministicRng(8)
    items = list(range(50))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_sample_distinct():
    rng = DeterministicRng(8)
    picked = rng.sample(range(100), 10)
    assert len(set(picked)) == 10
    with pytest.raises(ValueError):
        rng.sample([1, 2], 3)


def test_fork_independence():
    parent = DeterministicRng(11)
    child_a = parent.fork("a")
    child_b = parent.fork("b")
    assert child_a.next_u64() != child_b.next_u64()
    # Forking does not advance the parent stream.
    fresh = DeterministicRng(11)
    fresh.fork("a")
    assert parent.next_u64() == fresh.next_u64()


def test_chance_extremes():
    rng = DeterministicRng(2)
    assert not any(rng.chance(0.0) for _ in range(100))
    assert all(rng.chance(1.0) for _ in range(100))


# -- the stream's oracle ----------------------------------------------------

#: The first 16 ``next_u64()`` of four seeds, as the scalar splitmix64
#: stream emitted them before draws were computed a block at a time.
GOLDEN_VECTORS = {
    0: [
        0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC, 0x1B39896A51A8749B,
        0x53CB9F0C747EA2EA, 0x2C829ABE1F4532E1, 0xC584133AC916AB3C, 0x3EE5789041C98AC3,
        0xF3B8488C368CB0A6, 0x657EECDD3CB13D09, 0xC2D326E0055BDEF6, 0x8621A03FE0BBDB7B,
        0x8E1F7555983AA92F, 0xB54E0F1600CC4D19, 0x84BB3F97971D80AB, 0x7D29825C75521255,
    ],
    1: [
        0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B, 0x71BB54D8D101B5B9,
        0xC34D0BFF90150280, 0xE099EC6CD7363CA5, 0x85E7BB0F12278575, 0x491718DE357E3DA8,
        0xCB435C8E74616796, 0x6775DC7701564F61, 0x9AFCD44D14CF8BFE, 0x7476CF8A4BAA5DC0,
        0x87B341D690D7A28A, 0x6F9B6DAE6F4C57A8, 0x2AC2CE17A5794A3B, 0xA534A6A6B7FD0B63,
    ],
    2**64 - 1: [
        0xE99FF867DBF682C9, 0x382FF84CB27281E9, 0x6D1DB36CCBA982D2, 0xB4A0472E578069AE,
        0xD31DADBDA438BB33, 0xF14F2CF802083FA5, 0x405DA438A39E8064, 0xC4FEA708156E0C84,
        0x031E50FE7BBD6E1C, 0x03B234961E71CF15, 0xCE755952D3025DA7, 0x01C9558BD006BADB,
        0xDD90E10F6F7C1C8A, 0x354D0DF8B25878C1, 0xACEEA13CA07E34E8, 0x6887829E84A5E267,
    ],
    0xDEADBEEFCAFEBABE: [
        0x491DFB740E50D43F, 0x42722BF4473E5E7D, 0xD6CA8A0790FFFC45, 0xB2D3AB004CDB504B,
        0xB75625FC4E9510A6, 0x099454B898764BE2, 0x796B308A7FE49981, 0xDF8A2671627E719F,
        0xFE3EA9BC89C83321, 0x9E0ADD3F6A971FB8, 0x6B2E326567617027, 0xB18A43DA4A6148E8,
        0xF5F78123CA1A4C77, 0x5DCB97FFBBF77061, 0x00EEA1EB2182F563, 0x1D61F1B130806E8D,
    ],
}

#: Every block length a stream computes: the first refill, then doubling.
BLOCK_SIZES = [
    _FIRST_BLOCK << i for i in range((_MAX_BLOCK // _FIRST_BLOCK).bit_length())
]


class ScalarStream:
    """The splitmix64 stream one draw at a time: the reference."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK64
        return _splitmix64(self.state)

    def randint(self, bound):
        return self.next_u64() % bound

    def random(self):
        return self.next_u64() / float(1 << 64)

    def chance(self, probability):
        return self.random() < probability

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def fork(self, *keys):
        return ScalarStream(hash64(self.state, *keys))

    def state_dict(self):
        return {"state": self.state}

    def load_state(self, state):
        self.state = state["state"] & _MASK64


@pytest.mark.parametrize("seed", sorted(GOLDEN_VECTORS))
def test_stream_matches_golden_vectors(seed):
    rng = DeterministicRng(seed)
    assert [rng.next_u64() for _ in range(16)] == GOLDEN_VECTORS[seed]


@pytest.mark.parametrize("n", [1, 3] + BLOCK_SIZES)
@pytest.mark.parametrize(
    "state",
    [
        0,
        1,
        _MASK64,  # the first counter already wraps past 2**64
        (-3 * _GOLDEN) & _MASK64,  # draw 2's counter is exactly 0
        (1 << 64) - 5,
        0xDEADBEEFCAFEBABE,
    ],
)
def test_block_kernel_equals_scalar_loop(state, n):
    block = _splitmix_block(state, n)
    expected = [_splitmix64((state + (k + 1) * _GOLDEN) & _MASK64) for k in range(n)]
    assert list(block) == expected


def test_stream_matches_scalar_reference_across_refills():
    rng, reference = DeterministicRng(42), ScalarStream(42)
    for _ in range(3 * sum(BLOCK_SIZES)):
        assert rng.next_u64() == reference.next_u64()
    assert rng.state_dict() == reference.state_dict()


_ops = st.one_of(
    st.tuples(st.just("next_u64"), st.integers(1, 300)),
    st.tuples(st.just("randint"), st.integers(1, 2**70)),
    st.tuples(st.just("random"), st.integers(1, 50)),
    st.tuples(st.just("chance"), st.floats(0.0, 1.0)),
    st.tuples(st.just("choice"), st.integers(1, 40)),
    st.tuples(st.just("shuffle"), st.integers(0, 60)),
    st.tuples(st.just("save"), st.none()),
    st.tuples(st.just("load"), st.none()),
    st.tuples(st.just("fork"), st.integers(0, 2**64 - 1) | st.sampled_from(["a", "noise"])),
)


#: How many draws each op takes, given its argument.
_DRAWS = {
    "next_u64": lambda arg: arg,
    "randint": lambda arg: 1,
    "random": lambda arg: arg,
    "chance": lambda arg: 1,
    "choice": lambda arg: 1,
    "shuffle": lambda arg: max(arg - 1, 0),
    "save": lambda arg: 0,
    "load": lambda arg: 0,
    "fork": lambda arg: 0,
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, _MASK64), ops=st.lists(_ops, min_size=1, max_size=12))
def test_stream_matches_scalar_reference_under_mixed_draws(seed, ops):
    """A drawn mix of draws, snapshots and forks, repeated past 1,024
    draws so that it crosses several refills."""
    per_pass = sum(_DRAWS[op](arg) for op, arg in ops)
    assume(per_pass > 0)
    rng, reference = DeterministicRng(seed), ScalarStream(seed)
    saved = rng.state_dict()
    for _ in range(1 + 1100 // per_pass):
        for op, arg in ops:
            if op == "next_u64":
                for _ in range(arg):
                    assert rng.next_u64() == reference.next_u64()
            elif op == "randint":
                assert rng.randint(arg) == reference.randint(arg)
            elif op == "random":
                for _ in range(arg):
                    assert rng.random() == reference.random()
            elif op == "chance":
                assert rng.chance(arg) == reference.chance(arg)
            elif op == "choice":
                seq = list(range(arg))
                assert rng.choice(seq) == reference.choice(seq)
            elif op == "shuffle":
                mine, theirs = list(range(arg)), list(range(arg))
                rng.shuffle(mine)
                reference.shuffle(theirs)
                assert mine == theirs
            elif op == "save":
                saved = rng.state_dict()
            elif op == "load":
                rng.load_state(saved)
                reference.load_state(saved)
            else:
                child, reference_child = rng.fork(arg), reference.fork(arg)
                assert [child.next_u64() for _ in range(20)] == [
                    reference_child.next_u64() for _ in range(20)
                ]
                assert child.state_dict() == reference_child.state_dict()
            assert rng.state_dict() == reference.state_dict()


def test_load_state_resumes_mid_block():
    rng = DeterministicRng(9)
    for _ in range(_FIRST_BLOCK + 3):
        rng.next_u64()
    state = rng.state_dict()
    tail = [rng.next_u64() for _ in range(40)]
    restored = DeterministicRng(0)
    restored.load_state(state)
    assert [restored.next_u64() for _ in range(40)] == tail
    assert restored.state_dict() == rng.state_dict()


def test_string_stream_keys_differ_in_first_eight_bytes():
    """hash64 reads only a string key's first 8 bytes, so every string
    key the simulator forks a stream by must differ within them."""
    chaos_sources = {
        source.name
        for profile in CHAOS_PROFILES
        for source in chaos_profile(profile).build_sources()
    }
    assert len(chaos_sources) == 5
    keys = ["dram", "cache", "tlb", "policy", "noise", "chaos", *sorted(chaos_sources)]
    keys += ["campaign-probe", fuzz._STREAM]
    prefixes = {key.encode("utf-8")[:8].ljust(8, b"\0") for key in keys}
    assert len(prefixes) == len(keys)
    # The truncation the check guards against:
    assert hash64(1, "campaign-probe") == hash64(1, "campaign-pause")
