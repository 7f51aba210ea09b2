"""Dense tensors of arbitrary order with the rotation action.

A Tensor is a dim-D, order-n dense array of D^n reals.  The action of a
group element is (g * T)_{i1..in} = g_{i1 j1} ... g_{in jn} T_{j1..jn},
computed as n mode contractions, each one batched np.matmul (cost n *
D^(n+1) per element), not one D^n x D^n operator product.  act_batch and
outer_power_batch are the only kernels; act and outer_power run them on a batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Per-tensor entry budget: 3^10.  Orders above this are a sign the dense
# representation is the wrong tool, independent of available memory.
MAX_ENTRIES = 3**10
# The most axes a numpy (2.x) array can have; only D = 1 reaches it within the budget.
MAX_ORDER = 64


@dataclass(frozen=True, eq=False)
class Tensor:
    dim: int
    order: int
    array: np.ndarray  # shape (dim,) * order, read-only

    @classmethod
    def from_array(cls, array, dim: int | None = None) -> "Tensor":
        arr = np.array(array, dtype=float)
        d = dim if dim is not None else (arr.shape[0] if arr.ndim else 1)
        if arr.shape != (d,) * arr.ndim:
            raise ValueError(f"tensor axes must all have length {d}, got shape {arr.shape}")
        check_budget(d, arr.ndim)
        arr.setflags(write=False)
        return cls(dim=d, order=arr.ndim, array=arr)

    @classmethod
    def zeros(cls, dim: int, order: int) -> "Tensor":
        return cls.from_array(np.zeros((dim,) * order), dim=dim)

    @classmethod
    def basis_element(cls, dim: int, index: tuple[int, ...]) -> "Tensor":
        arr = np.zeros((dim,) * len(index))
        arr[index] = 1.0
        return cls.from_array(arr, dim=dim)

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_like(other)
        return Tensor.from_array(self.array + other.array, dim=self.dim)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_like(other)
        return Tensor.from_array(self.array - other.array, dim=self.dim)

    def __mul__(self, scalar: float) -> "Tensor":
        return Tensor.from_array(self.array * float(scalar), dim=self.dim)

    __rmul__ = __mul__

    def _check_like(self, other: "Tensor") -> None:
        if (self.dim, self.order) != (other.dim, other.order):
            raise ValueError(f"tensor mismatch: ({self.dim}, order {self.order}) vs "
                             f"({other.dim}, order {other.order})")

    def __repr__(self) -> str:
        return f"Tensor(dim={self.dim}, order={self.order})"

    # -- serialization: {"dim": D, "order": n, "entries": [flat row-major]} --

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "order": self.order,
            "entries": [float(x) for x in self.array.ravel()],
        })

    @classmethod
    def from_json(cls, text: str) -> "Tensor":
        data = json.loads(text)
        if not isinstance(data, dict) or not {"dim", "order", "entries"} <= data.keys():
            raise ValueError('tensor JSON needs the keys "dim", "order", and "entries"')
        dim, order = data["dim"], data["order"]
        if not all(type(v) is int for v in (dim, order)):  # not 2.9, "3" or true
            raise ValueError(f'tensor "dim" and "order" must be integers, got {dim!r} and {order!r}')
        if dim < 1:
            raise ValueError(f'tensor "dim" must be at least 1, got {dim}')
        if order < 0:
            raise ValueError(f'tensor "order" must be nonnegative, got {order}')
        raw = data["entries"]
        if type(raw) is not list or not all(type(x) in (int, float) for x in raw):  # not "1.5", true, [..]
            raise ValueError('tensor "entries" must be a flat list of numbers')
        try:
            entries = np.array(raw, dtype=float)
            finite = np.isfinite(entries).all()
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError("tensor entries must be finite")
        check_budget(dim, order)  # before dim**order is formed
        if entries.size != dim**order:
            raise ValueError(f"expected {dim}^{order} = {dim**order} entries, "
                             f"got {entries.size}")
        return cls.from_array(entries.reshape((dim,) * order), dim=dim)


def check_budget(dim: int, order: int) -> None:
    """Refuse an order-n tensor over dimension D with more than MAX_ENTRIES entries
    or more than MAX_ORDER axes.

    The count D^n is multiplied out one factor at a time and stops at the
    first partial product past the budget, so a huge order costs no huge power.
    """
    entries = 1
    for _ in range(order if dim > 1 else 0):  # D^n <= 1 for D = 0 or 1
        entries *= dim
        if entries > MAX_ENTRIES:
            raise ValueError(f"order-{order} tensor over dimension {dim} exceeds the "
                             f"{MAX_ENTRIES}-entry budget")
    if order > MAX_ORDER:
        raise ValueError(f"order-{order} tensor over dimension {dim} has more than the "
                         f"{MAX_ORDER} axes an array can have")


def as_tensor(value, dim: int | None = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor.from_array(np.asarray(value, dtype=float), dim=dim)


def act(g, t: Tensor) -> Tensor:
    """Transform a tensor by one group element: a batch of one for act_batch."""
    return Tensor.from_array(act_batch(np.asarray(g, dtype=float)[None], t)[0], dim=t.dim)


def act_batch(mats: np.ndarray, t: Tensor) -> np.ndarray:
    """Transform one tensor by a whole (N, D, D) stack, returning (N, ...).  Each mode is one
    np.matmul of the stack with the (N, D, D^(n-1)) view of the last result, written through the
    transposed view of one of two (N, D^(n-1), D) buffers taken in turn: the new axis lands last,
    so the next mode reads a free reshape (one np.einsum per mode took about 8x as long)."""
    if mats.shape[1:] != (t.dim, t.dim):
        raise ValueError(f"elements are {mats.shape[1:]}, tensor has dimension {t.dim}")
    if t.order == 0:
        return np.full(len(mats), float(t.array))
    mats = np.ascontiguousarray(mats)  # order 1 runs BLAS, whose last bits follow the layout
    n, d, rest = len(mats), t.dim, t.dim ** (t.order - 1)
    buffers = [np.empty((n, rest, d)) for _ in range(min(t.order, 2))]
    src = t.array.reshape(d, rest)
    for mode in range(t.order):
        np.matmul(mats, src, out=buffers[mode % 2].transpose(0, 2, 1))
        src = buffers[mode % 2].reshape(n, d, rest)
    return src.reshape((n,) + t.array.shape)


def outer_power_batch(values: np.ndarray, r: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-sample r-fold outer product of an (N, ...) stack, flattened to (N, S^r); r = 0 gives
    the (N, 1) column of ones.  At r >= 2 the last product fills the first N rows of ``out``, if given."""
    n, flat = len(values), values.reshape(values.shape[0], -1)
    power = flat if r else np.ones((n, 1))
    for k in range(r - 1):
        into = None if out is None or k < r - 2 else out[:n].reshape(n, -1, flat.shape[1])
        power = np.einsum("na,nb->nab", power, flat, out=into).reshape(n, -1)
    return power


def outer_power(t: Tensor, r: int) -> Tensor:
    """The r-fold outer product of a tensor with itself: a batch of one."""
    if r < 1:
        raise ValueError("outer power needs r >= 1")
    check_budget(t.dim, t.order * r)  # before the D^(n r) entries are computed
    out = outer_power_batch(t.array[None], r)[0]
    return Tensor.from_array(out.reshape(t.array.shape * r), dim=t.dim)
