"""URI-addressed storage with a local-file backend and atomic writes.

Batch runs accumulate over months, so stage outputs are written via a
temp-file-plus-rename so a crash never leaves a partial file behind.
Remote backends (box://, s3://, ...) can be registered by scheme; only
``file:`` and bare paths ship here.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator
from urllib.parse import urlparse
from urllib.request import url2pathname

from .errors import StorageNotFoundError, UnsupportedSchemeError

# The process umask, read once: os.umask can only be read by setting it,
# which would race with other threads creating files.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def local_path(uri: str | Path) -> Path:
    """Resolve a ``file:`` URI or bare path to a local Path."""
    if isinstance(uri, Path):
        return uri
    parsed = urlparse(str(uri))
    if parsed.scheme in ("", "file"):
        if parsed.scheme == "file":
            return Path(url2pathname(parsed.path))
        return Path(uri)
    raise UnsupportedSchemeError(
        f"no storage backend registered for scheme {parsed.scheme!r} ({uri})"
    )


def _open_local(uri: str | Path, mode: str) -> IO:
    path = local_path(uri)
    if ("r" in mode) and not path.exists():
        raise StorageNotFoundError(f"not found: {uri}")
    if "w" in mode or "a" in mode:
        path.parent.mkdir(parents=True, exist_ok=True)
    if "b" in mode:
        return open(path, mode)
    return open(path, mode, encoding="utf-8", newline="")


# scheme -> opener(uri, mode) -> stream. "" and "file" are the local backend.
BACKENDS: dict[str, Callable[[str | Path, str], IO]] = {
    "": _open_local,
    "file": _open_local,
}


def resolve_uri(uri: str | Path, mode: str = "rb") -> IO:
    """Open a readable or writable stream for a URI.

    Unknown schemes raise UnsupportedSchemeError; missing readable targets
    raise StorageNotFoundError.
    """
    scheme = urlparse(str(uri)).scheme if not isinstance(uri, Path) else ""
    opener = BACKENDS.get(scheme)
    if opener is None:
        raise UnsupportedSchemeError(
            f"no storage backend registered for scheme {scheme!r} ({uri})"
        )
    return opener(uri, mode)


@contextmanager
def atomic_write(uri: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write to a temp file in the target directory, rename on success.

    The result gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the 0o600 of the temp file.
    """
    path = local_path(uri)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        if "b" in mode:
            handle = os.fdopen(fd, mode)
        else:
            handle = os.fdopen(fd, mode, encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.close()
        os.chmod(tmp_name, 0o666 & ~_UMASK)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
