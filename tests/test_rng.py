import numpy as np
import pytest

from qrggsim import RandomStream


def test_same_seed_same_draws():
    a = RandomStream.from_seed(42).random(16)
    b = RandomStream.from_seed(42).random(16)
    assert np.array_equal(a, b)


def test_children_are_independent_of_parent_consumption():
    parent = RandomStream.from_seed(7)
    child_before = parent.child("geometry").random(8)
    parent.random(1000)  # consume the parent stream
    child_after = parent.child("geometry").random(8)
    assert np.array_equal(child_before, child_after)


def test_distinct_labels_and_indices_give_distinct_streams():
    root = RandomStream.from_seed(1)
    a = root.child("geometry").random(8)
    b = root.child("edges").random(8)
    c = root.child("geometry", 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_records_derivation():
    s = RandomStream.from_seed(9).child("trial", 3)
    assert s.master_seed == 9
    assert len(s.path) == 3


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        RandomStream(())


MASK64 = 2**64 - 1


@pytest.mark.parametrize("path", [
    (0,),
    (2**32 - 1, 0),
    (2**32, 7),
    (5, 2**63, 0),
    (2**64 - 1, 2**64 - 1),
    (-1, 3),
    (11, -(2**40), 2**32 + 5),
])
def test_draws_are_those_of_the_seed_sequence_of_the_path(path):
    # The contract: a stream draws what numpy seeds from the list of its
    # path's entries, each masked to 64 bits.
    stream = RandomStream(path)
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [x & MASK64 for x in path])))
    assert stream.path == tuple(x & MASK64 for x in path)
    assert np.array_equal(stream.random(5), ref.random(5))
    assert np.array_equal(stream.integers(0, 256, size=7), ref.integers(0, 256, size=7))
    assert np.array_equal(stream.integers([1, 0, 1], 256), ref.integers([1, 0, 1], 256))
    assert stream.random() == ref.random()


@pytest.mark.parametrize("path", [(0,), (2**32 + 1, 5), (-3, 2**63)])
def test_children_raw_are_the_childrens_raw_outputs(path):
    stream = RandomStream(path)
    indices = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, -1]
    raw = stream.children_raw("rlnc-trial", indices, 5)
    assert raw.dtype == np.uint64 and raw.shape == (len(indices), 5)
    for row, i in zip(raw, indices):
        child = stream.child("rlnc-trial", i)
        ref = np.random.PCG64(np.random.SeedSequence(list(child.path)))
        assert np.array_equal(row, ref.random_raw(5))
    assert stream.children_raw("rlnc-trial", range(3, 3), 4).shape == (0, 4)


def test_deriving_a_child_draws_nothing_from_the_parent():
    plain, deriving = RandomStream.from_seed(3), RandomStream.from_seed(3)
    deriving.child("trial", 0)  # before the parent's first draw
    assert np.array_equal(plain.random(4), deriving.random(4))
    child = deriving.child("rlnc", 2)  # between two draws
    assert np.array_equal(plain.integers(0, 9, size=6), deriving.integers(0, 9, size=6))
    # Nor does the child depend on when it was derived.
    assert np.array_equal(child.random(3), RandomStream.from_seed(3).child("rlnc", 2).random(3))
