"""Reverse-mode automatic differentiation over NumPy arrays.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it so that :meth:`Tensor.backward` can propagate gradients through
arbitrary compositions of the supported primitives.  Broadcasting is handled by
summing gradients back to the original operand shapes, matching NumPy/PyTorch
semantics.

The implementation favours clarity over raw speed: each primitive stores a
closure that computes the local vector-Jacobian product.  This is more than
fast enough for the laptop-scale experiments in this reproduction.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Iterable, Sequence

import numpy as np

from repro.nn.arena import _normalized_strides, active_arena, result_template

#: dtypes the compute core supports (see ``repro.engine.DtypePolicy``)
SUPPORTED_COMPUTE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _Scopes(threading.local):
    """Per-thread autograd scopes: a serving worker inside ``no_grad()`` or
    ``default_dtype(float32)`` never changes what another thread sees."""

    grad_enabled = True
    dtype = np.dtype(np.float64)


_SCOPES = _Scopes()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like ``torch.no_grad``).

    The scope is per thread, like :func:`default_dtype` and
    :func:`repro.nn.arena.use_arena`.
    """
    previous = _SCOPES.grad_enabled
    _SCOPES.grad_enabled = False
    try:
        yield
    finally:
        _SCOPES.grad_enabled = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for autograd."""
    return _SCOPES.grad_enabled


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (float64 unless configured)."""
    return _SCOPES.dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the calling thread's tensor-creation dtype; returns the previous one.

    Only float32 and float64 are supported.  Prefer the scoped
    :func:`default_dtype` context manager (which estimators and the training
    engine use to apply their ``DtypePolicy``) over calling this directly.
    """
    dtype = np.dtype(dtype)
    if dtype not in SUPPORTED_COMPUTE_DTYPES:
        raise ValueError(f"compute dtype must be float32 or float64, got {dtype}")
    previous = _SCOPES.dtype
    _SCOPES.dtype = dtype
    return previous


@contextlib.contextmanager
def default_dtype(dtype):
    """Scope within which new tensors are created with ``dtype``.

    This is how a ``DtypePolicy`` reaches the compute core: parameters
    initialised, inputs wrapped and gradients accumulated inside the scope
    all use ``dtype``, while arrays that already exist keep theirs.  Like
    :func:`no_grad`, the scope covers the calling thread only.
    """
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum the leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected a raw value, got a Tensor")
    return np.asarray(value, dtype=_SCOPES.dtype)


class Tensor:
    """A NumPy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; converted to the ambient default dtype (float64
        unless a :func:`default_dtype` scope or ``DtypePolicy`` says
        otherwise).
    requires_grad:
        Whether gradients should be accumulated in :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_buf",
        "_grad_owned",
        "name",
    )
    __array_priority__ = 1000  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        scopes = _SCOPES
        self.data = np.asarray(data, dtype=scopes.dtype)
        self.requires_grad = bool(requires_grad) and scopes.grad_enabled
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        #: private persistent gradient buffer of a leaf tensor (parameters):
        #: allocated on the first arena-scoped accumulate, reused every step
        self._grad_buf: np.ndarray | None = None
        #: whether ``grad`` is a buffer this tensor may mutate in place
        self._grad_owned = False
        self.name = name

    # ------------------------------------------------------------------ utils
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient (a pooled buffer is kept for reuse)."""
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------- graph core
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward,
    ) -> "Tensor":
        requires = _SCOPES.grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # gradients live in the tensor's own dtype, so float32 parameters
            # keep float32 optimizer state end to end
            arena = active_arena()
            if arena is not None and grad.shape == self.data.shape:
                # buffers mirror the layout ``grad.astype(..., copy=True)``
                # (order 'K') would produce, so later reductions over this
                # gradient iterate exactly like the allocate-fresh path
                if self._backward is None:
                    # leaf (parameter) gradients outlive the step (gradient
                    # accumulation windows, optimizer reads), so they get a
                    # private per-tensor buffer instead of a pooled slot
                    buf = self._grad_buf
                    if (
                        buf is None
                        or buf.shape != self.data.shape
                        or buf.dtype != self.data.dtype
                        or _normalized_strides(buf) != _normalized_strides(grad)
                    ):
                        buf = self._grad_buf = np.empty_like(grad, dtype=self.data.dtype)
                else:
                    buf = arena.buffer("grad", self.data.shape, self.data.dtype, like=grad)
                np.copyto(buf, grad)
                self.grad = buf
                self._grad_owned = True
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
                self._grad_owned = True
        elif (
            self._grad_owned
            and grad.dtype == self.grad.dtype
            and grad.shape == self.grad.shape
            and (
                self.grad.flags["C_CONTIGUOUS"]
                or self.grad.strides == grad.strides
            )
        ):
            # in-place accumulation: bit-identical to ``self.grad + grad``,
            # and layout-identical too — the fresh sum would follow
            # ``self.grad``'s layout when the strides agree and fall back to
            # C order (= an already-C ``self.grad``) when they don't
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the objective with respect to this tensor.  Defaults to
            ones for scalar tensors (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological ordering of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            stack.extend(
                (parent, False)
                for parent in node._parents
                if parent.requires_grad and id(parent) not in visited
            )

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # -------------------------------------------------------------- operators
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(_as_array(other))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            # the VJP products go through a pooled scratch (consumed by
            # _accumulate before the next request) when an arena is active;
            # np.multiply(..., out=) is bit-identical to the * expression
            arena = active_arena()
            if self.requires_grad:
                if arena is not None and other.data.dtype == grad.dtype:
                    product = np.multiply(
                        grad,
                        other.data,
                        out=arena.scratch(
                            "mul.vjp",
                            grad.shape,
                            grad.dtype,
                            like=result_template(grad.shape, grad, other.data),
                        ),
                    )
                else:
                    product = grad * other.data
                self._accumulate(_unbroadcast(product, self.shape))
            if other.requires_grad:
                if arena is not None and self.data.dtype == grad.dtype:
                    product = np.multiply(
                        grad,
                        self.data,
                        out=arena.scratch(
                            "mul.vjp",
                            grad.shape,
                            grad.dtype,
                            like=result_template(grad.shape, grad, self.data),
                        ),
                    )
                else:
                    product = grad * self.data
                other._accumulate(_unbroadcast(product, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(_unbroadcast(np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data, self.shape))
                else:
                    self._accumulate(_unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(_unbroadcast(np.outer(self.data, grad), other.shape))
                else:
                    other._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape)
                    )

        return Tensor._make(out_data, (self, other), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ----------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        # ``x * mask`` (not np.maximum) so -0.0 inputs keep their sign bit,
        # matching the backward's mask arithmetic exactly
        arena = active_arena()
        if arena is not None:
            mask = np.greater(
                self.data,
                0,
                out=arena.buffer("relu.mask", self.data.shape, np.bool_, like=self.data),
            )
            out_data = np.multiply(
                self.data,
                mask,
                out=arena.buffer("relu.out", self.data.shape, self.data.dtype, like=self.data),
            )
        else:
            mask = self.data > 0
            out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                pool = active_arena()
                if pool is not None and grad.shape == mask.shape:
                    self._accumulate(
                        np.multiply(
                            grad,
                            mask,
                            out=pool.scratch(
                                "relu.vjp",
                                grad.shape,
                                grad.dtype,
                                like=result_template(grad.shape, grad, mask),
                            ),
                        )
                    )
                else:
                    self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def add_relu(self, other) -> "Tensor":
        """Fused ``(self + other).relu()`` — one autograd node instead of two.

        Bit-identical to the composition: the forward computes the same
        ``sum * mask`` product, and the backward applies the relu mask once
        and then accumulates into both operands in the same order the
        decomposed add node would.  Used by the residual blocks of the TS
        encoder, where it removes a node, a gradient copy and two
        intermediate arrays per block per step.
        """
        other = self._coerce(other)
        arena = active_arena()
        if arena is not None:
            shape = np.broadcast_shapes(self.data.shape, other.data.shape)
            dtype = np.result_type(self.data, other.data)
            total = np.add(
                self.data,
                other.data,
                out=arena.buffer(
                    "add_relu.out",
                    shape,
                    dtype,
                    like=result_template(shape, self.data, other.data),
                ),
            )
        else:
            total = self.data + other.data
        mask = (
            np.greater(
                total, 0, out=arena.buffer("add_relu.mask", total.shape, np.bool_, like=total)
            )
            if arena is not None
            else total > 0
        )
        # the pre-activation sum is only read here, so the product lands in
        # its buffer; ``total * mask`` would be the same bits in a fresh array
        out_data = np.multiply(total, mask, out=total)

        def backward(grad):
            pool = active_arena()
            if pool is not None and grad.shape == mask.shape:
                masked = np.multiply(
                    grad,
                    mask,
                    out=pool.scratch(
                        "add_relu.vjp",
                        grad.shape,
                        grad.dtype,
                        like=result_template(grad.shape, grad, mask),
                    ),
                )
            else:
                masked = grad * mask
            if self.requires_grad:
                self._accumulate(_unbroadcast(masked, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(masked, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        inner = c * (x + 0.044715 * x**3)
        tanh_inner = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + tanh_inner)

        def backward(grad):
            if self.requires_grad:
                sech2 = 1.0 - tanh_inner**2
                d_inner = c * (1.0 + 3 * 0.044715 * x**2)
                local = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
                self._accumulate(grad * local)

        return Tensor._make(out_data, (self,), backward)

    def clamp_min(self, minimum: float) -> "Tensor":
        mask = self.data >= minimum
        out_data = np.maximum(self.data, minimum)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if self.requires_grad:
                g = np.asarray(grad)
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                arena = active_arena()
                if arena is not None and g.dtype == self.data.dtype:
                    # copyto broadcasts, matching broadcast_to(...).astype bit
                    # for bit without materialising a fresh full-size array
                    spread = arena.scratch("sum.vjp", self.data.shape, self.data.dtype)
                    np.copyto(spread, g)
                    self._accumulate(spread)
                else:
                    self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if self.requires_grad:
                expanded = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded).astype(self.data.dtype)
                mask = mask / mask.sum(axis=axis, keepdims=True)
                g = np.asarray(grad)
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -(-self).max(axis=axis, keepdims=keepdims)

    # ---------------------------------------------------------- shape juggling
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        new_shape = list(self.shape)
        if axis is None:
            new_shape = [s for s in new_shape if s != 1]
        else:
            if new_shape[axis] != 1:
                raise ValueError(f"cannot squeeze axis {axis} of size {new_shape[axis]}")
            new_shape.pop(axis)
        return self.reshape(tuple(new_shape))

    def unsqueeze(self, axis: int) -> "Tensor":
        new_shape = list(self.shape)
        if axis < 0:
            axis = len(new_shape) + 1 + axis
        new_shape.insert(axis, 1)
        return self.reshape(tuple(new_shape))

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(shape)

    # ----------------------------------------------------------- constructors
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=_SCOPES.dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=_SCOPES.dtype), requires_grad=requires_grad)

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tensors, backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t.unsqueeze(axis) for t in tensors]
        return Tensor.concat(tensors, axis=axis)
