from hypothesis import given, settings
from hypothesis import strategies as st

from isagram.rng import SplitMix64


def scalar_fisher_yates(rng: SplitMix64, items: list) -> None:
    """The textbook in-place shuffle, one scalar draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 400))
def test_shuffle_equals_scalar_fisher_yates_and_leaves_the_same_state(seed, n):
    got, want = SplitMix64(seed), SplitMix64(seed)
    got_items, want_items = list(range(n)), list(range(n))
    got.shuffle(got_items)
    scalar_fisher_yates(want, want_items)
    assert got_items == want_items
    assert got._state == want._state
    assert [got.next_u64() for _ in range(3)] == [want.next_u64() for _ in range(3)]

