"""Versioned full-bundle checkpoints: one ``.npz`` + an embedded JSON manifest.

A *bundle* persists an estimator whole — encoder weights, projection heads,
the fine-tuned classifier, the label map, normalization statistics and the
originating config — so a checkpoint can be reconstructed into a working
estimator with no out-of-band information (see
:func:`repro.api.registry.load_estimator`).

Layout: a single ``.npz`` archive whose keys are the weight arrays plus one
reserved ``__manifest__`` entry holding the UTF-8 JSON manifest.  The
manifest always contains:

``format``
    The literal ``"repro-bundle"`` (detects non-bundle ``.npz`` files).
``schema_version``
    Integer; loading a bundle written with an unsupported schema raises
    :class:`BundleFormatError` with a clear message instead of garbage.
``estimator``
    The registry key of the estimator that wrote the bundle.
``dtypes``
    Per-array dtype strings recorded at save time and re-checked at load
    time, so silent dtype conversion anywhere in the round trip is an error
    rather than an accuracy drift.
"""

from __future__ import annotations

import contextlib
import json
import os
import tokenize
import zipfile

import numpy as np

from repro.utils.paths import atomic_write, normalize_npz_path, resolve_npz_read_path

#: current bundle schema; bump when the layout changes incompatibly
SCHEMA_VERSION = 1

#: reserved archive key holding the JSON manifest
MANIFEST_KEY = "__manifest__"

_FORMAT = "repro-bundle"


class BundleFormatError(ValueError):
    """Raised when a file is not a bundle, is damaged, or uses an unsupported
    schema."""


#: the shared ``.npz`` read-path convention (kept under its historical name —
#: ``save_bundle("/tmp/model")`` writes ``/tmp/model.npz`` and loading with
#: either string works)
resolve_read_path = resolve_npz_read_path


def save_bundle(
    path: str | os.PathLike,
    arrays: dict[str, np.ndarray],
    manifest: dict,
) -> str:
    """Write ``arrays`` + ``manifest`` as one bundle; returns the path written.

    The manifest is augmented with the format tag, the schema version and the
    per-array dtype table; caller-provided keys win except for ``dtypes``.
    """
    path = normalize_npz_path(path)
    payload = {key: np.asarray(value) for key, value in arrays.items()}
    if MANIFEST_KEY in payload:
        raise ValueError(f"array key {MANIFEST_KEY!r} is reserved for the manifest")
    manifest = dict(manifest)
    manifest.setdefault("format", _FORMAT)
    manifest.setdefault("schema_version", SCHEMA_VERSION)
    manifest["dtypes"] = {key: str(value.dtype) for key, value in payload.items()}
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    payload[MANIFEST_KEY] = np.frombuffer(encoded, dtype=np.uint8)
    # tmp + os.replace via atomic_write: a crash mid-save (or an injected
    # checkpoint.write fault) leaves the previous bundle intact, never a
    # truncated archive (also sidesteps np.savez re-appending ".npz" to a
    # string path whose suffix differs in case, e.g. "model.NPZ")
    return atomic_write(path, lambda handle: np.savez(handle, **payload))


def _decode_manifest(raw: np.ndarray) -> dict:
    try:
        return json.loads(bytes(np.asarray(raw, dtype=np.uint8)).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:  # pragma: no cover - corrupt file
        raise BundleFormatError(f"bundle manifest is not valid JSON: {exc}") from exc


def _check_manifest(manifest: dict, path: str) -> None:
    if manifest.get("format") != _FORMAT:
        raise BundleFormatError(
            f"{path!r} is not a repro bundle (format={manifest.get('format')!r})"
        )
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BundleFormatError(
            f"{path!r} uses bundle schema version {version!r}; this build only "
            f"supports version {SCHEMA_VERSION} — re-save the bundle with a "
            "matching version of the library"
        )


@contextlib.contextmanager
def _open_archive(path: str):
    """``np.load`` of ``path`` as a context that closes the file on every exit.

    What a truncated or corrupted archive makes ``zipfile`` and NumPy raise,
    while opening or while the caller reads entries, is re-raised as
    :class:`BundleFormatError` — NumPy's ``.npy`` header parser raises
    ``tokenize.TokenError`` on some damaged headers; a missing, unreadable or
    directory path keeps its own ``OSError``.  An archive without a manifest
    entry is not a bundle.
    """
    try:
        with open(path, "rb") as handle, np.load(handle) as archive:
            if MANIFEST_KEY not in archive.files:
                raise BundleFormatError(
                    f"{path!r} has no manifest; it is a legacy state-dict archive, "
                    "not a bundle (use repro.nn.serialization.load_state_dict)"
                )
            yield archive
    except (BundleFormatError, FileNotFoundError, PermissionError, IsADirectoryError):
        raise
    except (
        zipfile.BadZipFile,
        EOFError,
        ValueError,
        NotImplementedError,
        OSError,
        tokenize.TokenError,
    ) as exc:
        raise BundleFormatError(f"{path!r} is not a readable bundle archive: {exc}") from exc


def load_bundle(path: str | os.PathLike) -> tuple[dict[str, np.ndarray], dict]:
    """Read a bundle back as ``(arrays, manifest)``.

    Raises :class:`BundleFormatError` for non-bundle, truncated or corrupted
    archives, unsupported schema versions, or dtype drift between save and
    load.
    """
    path = resolve_read_path(path)
    with _open_archive(path) as archive:
        manifest = _decode_manifest(archive[MANIFEST_KEY])
        _check_manifest(manifest, path)
        arrays = {key: archive[key] for key in archive.files if key != MANIFEST_KEY}
    for key, dtype in manifest.get("dtypes", {}).items():
        if key in arrays and str(arrays[key].dtype) != dtype:
            raise BundleFormatError(
                f"dtype drift for {key!r}: saved as {dtype}, loaded as "
                f"{arrays[key].dtype}"
            )
    return arrays, manifest


def sub_state(state: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """Extract the sub-dictionary of ``state`` under ``prefix.``."""
    return {
        key[len(prefix) + 1 :]: value
        for key, value in state.items()
        if key.startswith(prefix + ".")
    }


def peek_manifest(path: str | os.PathLike) -> dict:
    """Return the manifest of the bundle at ``path`` without its arrays.

    Raises :class:`BundleFormatError` as :func:`load_bundle` does, including
    for an archive with no manifest.
    """
    path = resolve_read_path(path)
    with _open_archive(path) as archive:
        manifest = _decode_manifest(archive[MANIFEST_KEY])
    _check_manifest(manifest, path)
    return manifest
