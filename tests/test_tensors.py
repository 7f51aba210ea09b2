"""Dense small tensors and the orthogonal change-of-basis action."""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import haarkit
from haarkit.groups import rodrigues
from haarkit.orbit import OrbitSpec, moment
from haarkit.reynolds import reynolds_matrix
from haarkit.tensors import Tensor, act, act_batch, as_tensor, outer_power, outer_power_batch

RNG = np.random.default_rng(31)


def random_rotation():
    q, _ = np.linalg.qr(RNG.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_from_array_and_properties():
    t = Tensor.from_array(np.arange(9.0).reshape(3, 3))
    assert t.dim == 3 and t.order == 2
    assert np.array_equal(t.array, np.arange(9.0).reshape(3, 3))


def test_scalar_tensor():
    t = Tensor.from_array(np.array(4.0), dim=3)
    assert t.order == 0
    assert float(t.array) == 4.0


def test_shape_validation():
    with pytest.raises(ValueError):
        Tensor.from_array(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Tensor.from_array(np.zeros((2, 2)), dim=3)


def test_entry_budget():
    with pytest.raises(ValueError, match="budget"):
        Tensor.zeros(3, 11)


def test_entries_read_only():
    t = Tensor.zeros(3, 2)
    with pytest.raises(ValueError):
        t.array[0, 0] = 1.0


def test_basis_element():
    t = Tensor.basis_element(3, (0, 2, 1))
    assert t.array[0, 2, 1] == 1.0
    assert t.array.sum() == 1.0


def test_arithmetic():
    a = as_tensor(np.diag([1.0, 2.0, 3.0]))
    b = as_tensor(np.eye(3))
    assert np.allclose((a + b).array, np.diag([2.0, 3.0, 4.0]))
    assert np.allclose((a - b).array, np.diag([0.0, 1.0, 2.0]))
    assert np.allclose((2.0 * a).array, (a * 2.0).array)
    with pytest.raises(ValueError):
        a + Tensor.zeros(3, 3)


def test_json_round_trip():
    t = Tensor.from_array(RNG.normal(size=(3, 3, 3)))
    again = Tensor.from_json(t.to_json())
    assert again.dim == 3 and again.order == 3
    assert np.array_equal(again.array, t.array)


def test_json_rejects_bad_payload():
    with pytest.raises(ValueError):
        Tensor.from_json('{"dim": 3, "order": 2, "entries": [1, 2, 3]}')
    with pytest.raises(ValueError):
        Tensor.from_json('{"dim": 3}')
    # int() would read these as order 1 and dim 2, with exit 0
    for dim, order in (("3", "1.7"), ("2.9", "1"), ("3", "1.0"), ('"3"', "1"), ("true", "1")):
        with pytest.raises(ValueError, match="must be integers"):
            Tensor.from_json(f'{{"dim": {dim}, "order": {order}, "entries": [1, 2, 3]}}')
    for bad in ("NaN", "Infinity", "-Infinity", "1" + "0" * 400):
        with pytest.raises(ValueError, match="must be finite"):
            Tensor.from_json(f'{{"dim": 3, "order": 1, "entries": [1, {bad}, 3]}}')
    for entries in ('["1.5", "2", "3"]', "[1, true, 3]", "[[1, 2, 3]]", '"123"', "{}"):
        with pytest.raises(ValueError, match='"entries" must be a flat list of numbers'):
            Tensor.from_json(f'{{"dim": 3, "order": 1, "entries": {entries}}}')
    for dim, order, message in ((-3, 1, '"dim" must be at least 1'), (0, 1, '"dim" must be at least 1'),
                                (3, -1, '"order" must be nonnegative')):
        with pytest.raises(ValueError, match=message):
            Tensor.from_json(f'{{"dim": {dim}, "order": {order}, "entries": [1, 2, 3]}}')


def test_json_refuses_the_budget_before_counting_entries():
    # 3^3000000 used to be formed for the count check, and its digits for the message
    start = time.perf_counter()
    with pytest.raises(ValueError, match="order-3000000 tensor over dimension 3 exceeds the "
                                         "59049-entry budget"):
        Tensor.from_json('{"dim": 3, "order": 3000000, "entries": [1]}')
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("refuse", [
    lambda: reynolds_matrix("so3", 10**7),
    lambda: outer_power(as_tensor(np.ones(3)), 10**7),
    lambda: moment(OrbitSpec("so3", "sym2", as_tensor(np.eye(3))), 10**7),
], ids=["reynolds_matrix", "outer_power", "moment"])
def test_huge_orders_are_refused_without_a_huge_power(refuse):
    # each used to form a power of 3 with millions of digits in the budget check: 10 s to refuse
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        refuse()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("refuse", [
    lambda: Tensor.from_json('{"dim": 1, "order": 3000000, "entries": [1]}'),
    lambda: outer_power(as_tensor(np.ones(1)), 70),
], ids=["from_json", "outer_power"])
def test_dim_one_orders_past_the_axis_limit_are_refused_in_own_words(refuse):
    # 1^n is within the entry budget, so numpy's "maximum supported dimension" used to refuse
    with pytest.raises(ValueError, match=r"tensor over dimension 1 has more than the 64 axes"):
        refuse()


def test_dim_one_tensor_at_the_axis_limit_is_kept():
    assert Tensor.from_json('{"dim": 1, "order": 64, "entries": [2]}').order == 64
    assert outer_power(as_tensor(np.ones(1)), 64).array.shape == (1,) * 64


def test_act_order1_is_matrix_vector():
    g = rodrigues(np.array([0.0, 0.0, 1.0]), 0.6)
    v = as_tensor(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(act(g, v).array, g @ v.array)


def test_act_order2_is_conjugation():
    g = rodrigues(np.array([0.0, 1.0, 0.0]), 1.2)
    t = as_tensor(RNG.normal(size=(3, 3)))
    assert np.allclose(act(g, t).array, g @ t.array @ g.T, atol=1e-13)


def test_act_composition():
    g, h = random_rotation(), random_rotation()
    t = as_tensor(RNG.normal(size=(3, 3, 3)))
    via_product = act(g @ h, t)
    sequential = act(g, act(h, t))
    assert np.allclose(via_product.array, sequential.array, atol=1e-12)


def test_act_preserves_frobenius_norm():
    g = random_rotation()
    t = as_tensor(RNG.normal(size=(3, 3, 3, 3)))
    assert np.isclose(np.linalg.norm(act(g, t).array), np.linalg.norm(t.array))


def test_act_scalar_identity():
    g = random_rotation()
    t = Tensor.from_array(np.array(5.0), dim=3)
    assert float(act(g, t).array) == 5.0


def test_act_batch_matches_act():
    mats = np.stack([random_rotation() for _ in range(6)])
    t = as_tensor(RNG.normal(size=(3, 3, 3)))
    batched = act_batch(mats, t)
    assert batched.shape == (6, 3, 3, 3)
    for i in range(6):
        assert np.allclose(batched[i], act(mats[i], t).array, atol=1e-13)


def test_outer_power():
    v = as_tensor(np.array([1.0, 2.0, 3.0]))
    p = outer_power(v, 3)
    assert p.order == 3
    assert np.isclose(p.array[0, 1, 2], 1.0 * 2.0 * 3.0)
    with pytest.raises(ValueError):
        outer_power(v, 0)


def test_outer_power_batch_of_order_zero_is_a_column_of_ones():
    # reynolds_matrix's half powers at n = 0 and 1; it used to return the first power
    values = RNG.normal(size=(5, 3, 3))
    ones = outer_power_batch(values, 0)
    assert ones.shape == (5, 1) and np.all(ones == 1.0)


def test_outer_power_budget():
    v = as_tensor(np.ones(3))
    with pytest.raises(ValueError):
        outer_power(v, 12)


def test_outer_power_checks_the_budget_before_computing():
    v = as_tensor(np.ones(3))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="order-14 tensor over dimension 3 exceeds"):
            outer_power(v, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_act_is_a_batch_of_one_bit_for_bit():
    mats = np.stack([random_rotation() for _ in range(4)])
    for order in range(4):
        t = as_tensor(RNG.normal(size=(3,) * order), dim=3)
        batched = act_batch(mats, t)
        for i in range(4):
            assert act(mats[i], t).array.tobytes() == np.ascontiguousarray(batched[i]).tobytes()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_outer_power_is_the_multiply_outer_chain_bit_for_bit(r):
    # the bytes of `haarkit orbit-moments` covariance depend on m1 (x) m1
    t = as_tensor(RNG.normal(size=(3, 3)) / 7.0)
    ref = t.array
    for _ in range(r - 1):
        ref = np.multiply.outer(ref, t.array)
    got = outer_power(t, r).array
    assert got.shape == (3,) * (2 * r)
    assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_act_checks_the_element_shape():
    t = as_tensor(np.ones((3, 3)))
    for bad in (np.eye(2), np.ones(3), np.ones((1, 3, 3))):
        with pytest.raises(ValueError, match="tensor has dimension 3"):
            act(bad, t)
    with pytest.raises(ValueError, match="tensor has dimension 3"):
        act_batch(np.ones((5, 2, 2)), t)


def einsum_act_batch(mats, t):
    """The action as one np.einsum per mode, the reference for act_batch's matmul."""
    out = np.broadcast_to(t.array, mats.shape[:1] + t.array.shape)
    for _ in range(t.order):
        out = np.einsum("nij,nj...->n...i", mats, out)
    return out


def rotations(count, dim, seed=5):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(count, dim, dim)))
    return q


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", range(7))
def test_act_batch_matches_one_einsum_per_mode(order, dim, count):
    mats = rotations(count, dim)
    t = Tensor.from_array(RNG.normal(size=(dim,) * order), dim=dim)
    got = act_batch(mats, t)
    assert got.shape == (count,) + (dim,) * order and got.flags.c_contiguous
    assert np.abs(got - einsum_act_batch(mats, t)).max(initial=0.0) <= 1e-14 * np.abs(t.array).max()


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_act_batch_bytes_of_an_element_do_not_depend_on_the_stack(order):
    # node_mean's block size decides which elements share a call
    mats = rotations(9, 3)
    t = as_tensor(RNG.normal(size=(3,) * order), dim=3)
    whole = act_batch(mats, t)
    for k in range(len(mats)):
        assert whole[k].tobytes() == act_batch(mats[k:k + 1], t)[0].tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3, 6])
def test_act_batch_of_a_strided_stack_has_the_bytes_of_its_copy(order):
    t = as_tensor(RNG.normal(size=(3,) * order), dim=3)
    every_other = rotations(14, 3)[::2]
    column_major = rotations(7, 3).transpose(0, 2, 1).copy().transpose(0, 2, 1)
    for mats in (every_other, column_major):
        assert not mats.flags.c_contiguous
        assert act_batch(mats, t).tobytes() == act_batch(np.ascontiguousarray(mats), t).tobytes()


def test_act_batch_holds_at_most_two_outputs():
    # one order-4 block as node_mean cuts it on a 32^3 grid: 2^18 // 3^4 = 3 236 nodes
    mats = rotations(3236, 3)
    t = as_tensor(RNG.normal(size=(3,) * 4), dim=3)
    tracemalloc.start()
    try:
        out = act_batch(mats, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 2**18, (peak, out.nbytes)


def test_act_batch_bytes_do_not_depend_on_the_blas_thread_count():
    code = """
import hashlib
import numpy as np
from haarkit import Tensor, builtin_chart, normalize, reynolds_continuous
from haarkit.tensors import act_batch
q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4000, 3, 3)))
rng = np.random.default_rng(4)
for order in (2, 4, 6):
    out = act_batch(q, Tensor.from_array(rng.normal(size=(3,) * order)))
    print(hashlib.sha256(out.tobytes()).hexdigest())
out = reynolds_continuous("so3", Tensor.from_array(rng.normal(size=(3,) * 4)),
                          normalize(builtin_chart("so3-euler")))
print(hashlib.sha256(out.array.tobytes()).hexdigest())
"""
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(haarkit.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        outputs[threads] = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          env=env, check=True).stdout
    assert outputs["1"] == outputs["2"] and len(outputs["1"].split()) == 4
