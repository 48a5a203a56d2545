"""Splittable random streams: determinism, order independence and re-keying."""

import threading

import numpy as np
import pytest

from focusrank.rng import RandomStream


def test_same_seed_same_draws():
    a = RandomStream(42).child("x").normal((4, 4))
    b = RandomStream(42).child("x").normal((4, 4))
    assert np.array_equal(a, b)


def test_different_labels_differ():
    a = RandomStream(42).child("x").normal(8)
    b = RandomStream(42).child("y").normal(8)
    assert not np.array_equal(a, b)


def test_children_independent_of_evaluation_order():
    root = RandomStream(7)
    first = root.child("a").normal(4)
    second = root.child("b").normal(4)

    other = RandomStream(7)
    second_again = other.child("b").normal(4)
    first_again = other.child("a").normal(4)

    assert np.array_equal(first, first_again)
    assert np.array_equal(second, second_again)


def test_nested_labels_and_integers():
    a = RandomStream(1).child("epoch", 3).child("step", 2)
    b = RandomStream(1).child("epoch", 3).child("step", 2)
    assert np.array_equal(a.permutation(10), b.permutation(10))
    assert not np.array_equal(
        RandomStream(1).child("epoch", 3).permutation(10),
        RandomStream(1).child("epoch", 4).permutation(10),
    )


def test_gumbel_draws_have_gumbel_mean():
    # Gumbel(0,1) mean is the Euler-Mascheroni constant ~0.5772.
    draws = RandomStream(5).child("g").gumbel(200_000)
    assert abs(draws.mean() - 0.5772) < 0.01


DRAWS = {
    "integers": lambda g: g.integers(50, 256, 7),
    "integer": lambda g: g.integers(0, 16),
    "normal": lambda g: g.normal(0.0, 1.0, (3, 5)),
    "uniform": lambda g: g.uniform(-1.0, 2.0, 9),
    "permutation": lambda g: g.permutation(12),
    "gumbel": lambda g: g.gumbel(0.0, 1.0, 6),
}


def fresh(stream):
    key = int.from_bytes(stream._key[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("draw", DRAWS)
def test_rekeyed_draws_equal_a_fresh_generator(draw):
    # Two draws in a row: the second continues the re-keyed stream.
    for labels in (("a",), ("item", 3, "noise")):
        stream = RandomStream(11).child(*labels)
        expected = fresh(stream)
        generator = stream.rekeyed()
        for _ in range(2):
            assert np.array_equal(DRAWS[draw](generator), DRAWS[draw](expected))


# The stream methods that make the draws of DRAWS, by the same keys.
STREAM_DRAWS = {
    "integers": lambda s: s.integers(50, 256, 7),
    "integer": lambda s: s.integers(0, 16),
    "normal": lambda s: s.normal((3, 5)),
    "uniform": lambda s: s.uniform(9, -1.0, 2.0),
    "permutation": lambda s: s.permutation(12),
    "gumbel": lambda s: s.gumbel(6),
}


@pytest.mark.parametrize("draw", STREAM_DRAWS)
def test_every_stream_draw_starts_at_the_key(draw):
    stream = RandomStream(11).child("item", 3, "noise")
    first = STREAM_DRAWS[draw](stream)
    assert np.array_equal(first, DRAWS[draw](fresh(stream)))
    assert np.array_equal(STREAM_DRAWS[draw](stream), first)
    there = []
    thread = threading.Thread(target=lambda: there.append(STREAM_DRAWS[draw](stream)))
    thread.start()
    thread.join()
    assert np.array_equal(there[0], first)


def test_a_stream_holds_only_its_key():
    stream = RandomStream(11)
    with pytest.raises(AttributeError):
        stream.generator = None


def test_rekeying_clears_a_cached_32_bit_half():
    stream = RandomStream(11).child("b")
    used = RandomStream(12).child("c").rekeyed()
    used.integers(0, 2**32, size=3, dtype=np.uint32)  # an odd count leaves a half cached
    assert used.bit_generator.state["has_uint32"] == 1
    generator = stream.rekeyed()
    assert generator is used
    state, expected = generator.bit_generator.state, fresh(stream)
    reference = expected.bit_generator.state
    assert (state["has_uint32"], state["uinteger"], state["buffer_pos"]) == (0, 0, 4)
    assert np.array_equal(state["state"]["counter"], reference["state"]["counter"])
    assert np.array_equal(state["state"]["key"], reference["state"]["key"])
    draw = lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32)  # noqa: E731
    assert np.array_equal(draw(generator), draw(expected))


def test_rekeyed_generator_is_one_per_thread():
    stream = RandomStream(11).child("d")
    here = stream.rekeyed()
    there = []
    thread = threading.Thread(target=lambda: there.append(stream.rekeyed()))
    thread.start()
    thread.join()
    assert there[0] is not here
    assert stream.rekeyed() is here
