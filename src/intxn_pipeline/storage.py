"""The one way the pipeline opens files: ``file:`` URIs or bare paths.

Batch runs accumulate over months, so every path opened for writing goes
through a temp-file-plus-rename and a crash never leaves a partial file
behind. Only ``file:`` and bare paths are supported.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import AbstractContextManager, contextmanager, nullcontext
from pathlib import Path
from typing import IO, Iterator
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
    if parsed.scheme == "file":
        return Path(url2pathname(parsed.path))
    if parsed.scheme == "":
        return Path(uri)
    raise UnsupportedSchemeError(
        f"unsupported storage scheme {parsed.scheme!r} ({uri}): use a path or a file: URI"
    )


def resolve_uri(source: str | Path | IO, mode: str = "rb") -> AbstractContextManager[IO]:
    """Open ``source`` for use in a ``with`` statement.

    A stream passes through unchanged and is left open. A path or ``file:``
    URI opened for reading is a utf-8 text file, less any byte-order mark,
    with ``newline=""`` (or a binary file for a ``b`` mode); a missing file
    raises StorageNotFoundError. A path opened for writing goes through
    ``atomic_write``. Unknown schemes raise UnsupportedSchemeError.
    """
    if hasattr(source, "read") or hasattr(source, "write"):
        return nullcontext(source)
    path = local_path(source)
    if "r" not in mode:
        return atomic_write(path, mode)
    if not path.exists():
        raise StorageNotFoundError(f"not found: {source}")
    if "b" in mode:
        return open(path, mode)
    return open(path, mode, encoding="utf-8-sig", newline="")


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
