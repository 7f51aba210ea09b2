"""Dense tensors of arbitrary order with the rotation action.

A Tensor is a dim-D, order-n dense array of D^n reals.  The action of a
group element is (g * T)_{i1..in} = g_{i1 j1} ... g_{in jn} T_{j1..jn},
computed as n successive mode contractions (cost n * D^(n+1)) rather than
one D^n x D^n operator product.  act_batch and outer_power_batch are the
only kernels; act and outer_power run them on a batch of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Per-tensor entry budget: 3^10.  Orders above this are a sign the dense
# representation is the wrong tool, independent of available memory.
MAX_ENTRIES = 3**10


@dataclass(frozen=True, eq=False)
class Tensor:
    dim: int
    order: int
    entries: np.ndarray  # shape (dim,) * order, read-only

    @classmethod
    def from_array(cls, array, dim: int | None = None) -> "Tensor":
        arr = np.array(array, dtype=float)
        d = dim if dim is not None else (arr.shape[0] if arr.ndim else 1)
        if arr.shape != (d,) * arr.ndim:
            raise ValueError(f"tensor axes must all have length {d}, got shape {arr.shape}")
        check_budget(d, arr.ndim)
        arr.setflags(write=False)
        return cls(dim=d, order=arr.ndim, entries=arr)

    @classmethod
    def zeros(cls, dim: int, order: int) -> "Tensor":
        return cls.from_array(np.zeros((dim,) * order), dim=dim)

    @classmethod
    def basis_element(cls, dim: int, index: tuple[int, ...]) -> "Tensor":
        arr = np.zeros((dim,) * len(index))
        arr[index] = 1.0
        return cls.from_array(arr, dim=dim)

    @property
    def array(self) -> np.ndarray:
        return self.entries

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_like(other)
        return Tensor.from_array(self.entries + other.entries, dim=self.dim)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_like(other)
        return Tensor.from_array(self.entries - other.entries, dim=self.dim)

    def __mul__(self, scalar: float) -> "Tensor":
        return Tensor.from_array(self.entries * float(scalar), dim=self.dim)

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
            "entries": [float(x) for x in self.entries.ravel()],
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
        if entries.size != dim**order:
            raise ValueError(f"expected {dim}^{order} = {dim**order} entries, "
                             f"got {entries.size}")
        return cls.from_array(entries.reshape((dim,) * order), dim=dim)


def check_budget(dim: int, order: int) -> None:
    """Refuse an order-n tensor over dimension D with more than MAX_ENTRIES entries."""
    if dim**order > MAX_ENTRIES:
        raise ValueError(f"order-{order} tensor over dimension {dim} exceeds the "
                         f"{MAX_ENTRIES}-entry budget")


def as_tensor(value, dim: int | None = None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor.from_array(np.asarray(value, dtype=float), dim=dim)


def act(g, t: Tensor) -> Tensor:
    """Transform a tensor by one group element: a batch of one for act_batch."""
    return Tensor.from_array(act_batch(np.asarray(g, dtype=float)[None], t)[0], dim=t.dim)


def act_batch(mats: np.ndarray, t: Tensor) -> np.ndarray:
    """Transform one tensor by a whole (N, D, D) stack, returning (N, ...)."""
    if mats.shape[1:] != (t.dim, t.dim):
        raise ValueError(f"elements are {mats.shape[1:]}, tensor has dimension {t.dim}")
    out = np.broadcast_to(t.entries, mats.shape[:1] + t.entries.shape)
    for _ in range(t.order):
        out = np.einsum("nij,nj...->n...i", mats, out)
    return np.ascontiguousarray(out) if t.order == 0 else out


def outer_power_batch(values: np.ndarray, r: int) -> np.ndarray:
    """Per-sample r-fold outer product of an (N, ...) stack, flattened to (N, S^r);
    r = 0 gives the (N, 1) column of ones."""
    flat = values.reshape(values.shape[0], -1)
    out = flat if r else np.ones((len(flat), 1))
    for _ in range(r - 1):
        out = np.einsum("na,nb->nab", out, flat).reshape(values.shape[0], -1)
    return out


def outer_power(t: Tensor, r: int) -> Tensor:
    """The r-fold outer product of a tensor with itself: a batch of one."""
    if r < 1:
        raise ValueError("outer power needs r >= 1")
    check_budget(t.dim, t.order * r)  # before the D^(n r) entries are computed
    out = outer_power_batch(t.entries[None], r)[0]
    return Tensor.from_array(out.reshape(t.entries.shape * r), dim=t.dim)
