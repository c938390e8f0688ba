"""The one way the pipeline opens files: ``file:`` URIs or bare paths.

Batch runs accumulate over months, so every path opened for writing goes
through a temp-file-plus-rename and a crash never leaves a partial file
behind. The bytes are hashed as they are written, so a stage knows the
digest of each file it wrote without reading it back. Only ``file:`` and
bare paths are supported. The CSV files that are not clean tables are
written through ``csv_writer``, and every JSON file through ``write_json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
import types
from contextlib import AbstractContextManager, contextmanager, nullcontext
from pathlib import Path
from typing import IO, Callable, Iterator
from urllib.parse import urlparse
from urllib.request import url2pathname

from .errors import StorageNotFoundError, UnsupportedSchemeError

# The process umask, read once: os.umask can only be read by setting it,
# which would race with other threads creating files.
_UMASK = os.umask(0o022)
os.umask(_UMASK)

# The sha256 hex digest of the bytes ``atomic_write`` last committed to each
# path in this process.
written: dict[Path, str] = {}


class _HashingFile(io.FileIO):
    """A file open for writing that hashes the bytes it writes."""

    def __init__(self, fd: int) -> None:
        super().__init__(fd, "wb")
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        count = super().write(data)
        self.sha256.update(memoryview(data)[:count])
        return count


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
    umask), not the 0o600 of the temp file. Once it is in place, the sha256
    of its bytes is in ``written[path]``.
    """
    path = local_path(uri)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        raw = _HashingFile(fd)
        handle = io.BufferedWriter(raw)
        if "b" not in mode:
            handle = io.TextIOWrapper(handle, encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.close()
        os.chmod(tmp_name, 0o666 & ~_UMASK)
        os.replace(tmp_name, path)
        written[path] = raw.sha256.hexdigest()
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def csv_writer(handle: IO):
    """A csv.writer to ``handle`` whose rows end in "\\n".

    csv quotes a field holding a character of the line terminator, so the
    writer ends rows in "\\r\\n", which quotes a field holding a lone
    "\\r" as well as one holding a line break, and each row is written with
    "\\n" in place of its "\\r\\n".
    """
    lines = types.SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
    return csv.writer(lines, lineterminator="\r\n")


def write_json(doc, dest: str | Path | IO) -> None:
    """Write ``doc`` as JSON indented by two spaces, ending in a newline."""
    with resolve_uri(dest, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


class Store(dict):
    """The latest object of each key, as its reader returns it from a file.

    ``store[key]`` is (digest, object): the digest is the sha256 of the
    file's bytes followed by ``on``, the digest of any other file the
    reader takes, so a change to either file misses.
    """

    def put(self, key: str, path: Path, obj, on: str = "") -> None:
        """Store ``obj``, what the reader returns for the bytes just written to ``path``."""
        self[key] = (written[path] + on, obj)

    def load(self, key: str, path: Path, reader: Callable, on: str = ""):
        """``reader`` of the text file at ``path``, parsed only when the store
        holds nothing under its digest.

        The bytes hashed are the bytes parsed, so a file replaced meanwhile is
        never stored under another content's digest. The caller gets a slice
        of the stored table or list, so it cannot change the stored one.
        """
        with resolve_uri(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest() + on
        if self.get(key, ("",))[0] != digest:
            self.pop(key, None)  # free the old object before parsing the new one
            stream = io.BytesIO(data)
            stream.name = str(path)  # errors name the file, not the stream
            self[key] = (digest, reader(io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")))
        return self[key][1][:]
