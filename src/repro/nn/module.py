"""``Module`` / ``Parameter`` base classes for the NumPy substrate.

A :class:`Module` owns named parameters and child modules, exactly like a
(very small) ``torch.nn.Module``: parameters are discovered recursively, the
training flag cascades to children, and ``state_dict`` round-trips through
plain dictionaries of NumPy arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from repro.nn.arena import use_arena
from repro.nn.tensor import Tensor, default_dtype, get_default_dtype, no_grad


class Parameter(Tensor):
    """A trainable tensor (always requires gradients)."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; the base class tracks them so optimizers and serialization can
    discover every parameter recursively.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ----------------------------------------------------------- registration
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (used by containers)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -------------------------------------------------------------- iteration
    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter in this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        """Yield immediate child modules."""
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(int(p.size) for p in self.parameters())

    # ------------------------------------------------------------------ state
    def train(self, mode: bool = True) -> "Module":
        """Set the training flag on this module and all children."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode (disables dropout, freezes batch-norm stats)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Return a flat mapping of parameter (and buffer) names to arrays."""
        state: dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, value in self._buffers().items():
            state[f"{prefix}{name}"] = value.copy()
        for name, module in self._modules.items():
            state.update(module.state_dict(prefix=f"{prefix}{name}."))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Load parameters (and buffers) from a :meth:`state_dict` mapping.

        Dtypes are preserved with full fidelity: a float32 state loaded into a
        float64-initialised module leaves the parameters float32 (no silent
        upcast), and non-floating state for a floating parameter is rejected.
        """
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            value = np.asarray(state[key])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: expected {param.shape}, got {value.shape}"
                )
            if not np.issubdtype(value.dtype, np.floating):
                raise TypeError(
                    f"dtype mismatch for {key!r}: expected a floating dtype, got {value.dtype}"
                )
            param.data = value.copy()
        for name in self._buffers():
            key = f"{prefix}{name}"
            if key in state:
                setattr(self, name, np.asarray(state[key]).copy())
        for name, module in self._modules.items():
            module.load_state_dict(state, prefix=f"{prefix}{name}.")

    def _buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable persistent arrays (e.g. batch-norm running stats)."""
        return {}

    # ------------------------------------------------------------------- call
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def infer(self, x, *, workspace=None) -> np.ndarray:
        """Eval-mode forward of a raw array, recording no autograd graph.

        The one inference path: :meth:`forward` runs under ``no_grad()`` in
        the module's parameter dtype, with ``workspace`` (a
        :class:`~repro.nn.arena.StepArena`, or ``None`` to allocate) as the
        calling thread's arena.  Dropout and batch norm see eval mode for the
        call; every module's own train/eval flag is restored afterwards.
        The result may be a view of a ``workspace`` buffer, valid until the
        workspace advances (:func:`repro.nn.inference.batched_infer` copies
        it out first).
        """
        dtype = next((p.data.dtype for p in self.parameters()), get_default_dtype())
        modes = [(module, module.training) for module in self.modules()]
        self.eval()
        try:
            with no_grad(), default_dtype(dtype), use_arena(workspace):
                return self(Tensor(x)).data
        finally:
            for module, mode in modes:
                module.training = mode

    def __repr__(self) -> str:
        child_repr = ", ".join(self._modules)
        return f"{type(self).__name__}({child_repr})"
