"""The one way the pipeline opens files: ``file:`` URIs or bare paths.

Batch runs accumulate over months, so every path opened for writing goes
through a temp-file-plus-rename and a crash never leaves a partial file
behind. ``Store.put`` hashes the bytes of each file it holds as they are
written, and ``Store.load`` as they are parsed. Only ``file:`` and bare
paths are supported. Every CSV file is written through
``write_csv``, a column and a thousand rows at a time. Every JSON file is
written through ``write_json``, and every JSON input but the config is read
through ``read_json``, so a malformed document is one kind of ``DataError``.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import re
import tempfile
from contextlib import AbstractContextManager, contextmanager, nullcontext
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator
from urllib.parse import urlparse
from urllib.request import url2pathname

import numpy as np

from .errors import DataError, StorageNotFoundError, UnsupportedSchemeError

# The process umask, read once: os.umask can only be read by setting it,
# which would race with other threads creating files.
_UMASK = os.umask(0o022)
os.umask(_UMASK)

# The sha256 hex digest of the bytes ``atomic_write`` last committed, hashed,
# to each path in this process.
written: dict[Path, str] = {}


class _HashingFile(io.RawIOBase):
    """A raw stream over ``raw``, of its name, that hashes the bytes written
    to or read through it; closing it leaves ``raw`` open."""

    def __init__(self, raw: io.FileIO) -> None:
        self.raw, self.name, self.sha256 = raw, raw.name, hashlib.sha256()

    def readable(self) -> bool:  # a buffer over it reads or writes, as ``raw`` does
        return True

    writable = readable

    def readinto(self, buffer) -> int | None:
        count = self.raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[: count or 0])
        return count

    def write(self, data) -> int | None:
        count = self.raw.write(data)
        self.sha256.update(memoryview(data)[: count or 0])
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
def atomic_write(uri: str | Path, mode: str = "w", hashed: bool = False) -> Iterator[IO]:
    """Write to a temp file in the target directory, rename on success.

    The result gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the 0o600 of the temp file. Once a ``hashed`` file (one
    ``Store.put`` writes) is in place, the sha256 of its bytes is in ``written[path]``.
    """
    path = local_path(uri)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with io.FileIO(fd, "wb") as file:
            raw = _HashingFile(file) if hashed else file
            handle = io.BufferedWriter(raw)
            if "b" not in mode:
                handle = io.TextIOWrapper(handle, encoding="utf-8", newline="")
            try:
                yield handle
            finally:
                handle.close()
        os.chmod(tmp_name, 0o666 & ~_UMASK)
        os.replace(tmp_name, path)
        if hashed:
            written[path] = raw.sha256.hexdigest()
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


# Rows rendered before each write: a few drives' worth. A float dictionary holds 16x as many.
WRITE_ROWS = 1000

# What csv.writer quotes: its delimiter, quote or "\r\n" line terminator's characters.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quoted(column: list[str]) -> list[str]:
    """``column``, each of its texts that needs quotes quoted, its quotes doubled."""
    text = "".join(column)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return ['"' + v.replace('"', '""') + '"' if _NEEDS_QUOTES.search(v) else v for v in column]
    return column


def interleave(n: int, pieces: list) -> list[str]:
    """The texts of ``n`` rows, each made of ``pieces`` in turn: a str is in
    every row, any other piece is a column of one text per row."""
    cells = [piece if isinstance(piece, str) else "" for piece in pieces] * n
    for j, piece in enumerate(pieces):
        if not isinstance(piece, str):
            cells[j :: len(pieces)] = piece
    return cells


def write_csv(dest: str | Path | IO, header, chunks: Iterable[list], plain=()) -> None:
    """Write ``header`` and the rows of ``chunks``, each a list of two or more
    columns of texts, as csv.writer writes them with rows ending in "\n"; the
    columns at indices in ``plain`` (header too) hold nothing to quote, unscanned."""
    with resolve_uri(dest, "w") as handle:
        for columns in chain([[[name] for name in header]], chunks):
            pieces = [p for j, c in enumerate(columns) for p in (c if j in plain else _quoted(c), ",")]
            pieces[-1] = "\n"
            handle.write("".join(interleave(len(columns[0]), pieces)))


# Each byte's role in compact JSON: 1 quote, 2 opener, 3 closer, 4 comma, 0 other.
_ROLES = bytes(dict(zip(b'"[{]},', (1, 2, 2, 3, 3, 4))).get(c, 0) for c in range(256))


def _indented(compact: str) -> str | None:
    """``compact``, JSON as ``json.dumps(doc, separators=(",", ": "))`` writes
    it, as ``json.dumps(doc, indent=2)`` does; None for a scalar or past 127
    levels. A break follows each comma and opener outside strings (after an
    even count of unescaped quotes) and precedes each closer, but for "[]"
    and "{}"; each goes in as the non-ASCII byte 0x80 + depth, then replaced."""
    hidden = compact.replace("\\\\", "  ").replace('\\"', "  ").encode()
    roles = np.frombuffer(hidden.translate(_ROLES), np.uint8)
    at = np.flatnonzero(roles)
    role = roles[at]
    outside = (role > 1) & (np.cumsum(role == 1) % 2 == 0)
    at, role = at[outside], role[outside]
    depth = np.cumsum((role == 2).astype(np.int64) - (role == 3))
    if not len(depth) or depth.max() > 127:
        return None
    # An opener and the closer right after it hold an empty container.
    empty = np.append((role[:-1] == 2) & (role[1:] == 3) & (np.diff(at) == 1), False)
    breaks = np.flatnonzero(~(empty | np.roll(empty, 1)))
    where = at[breaks] + (role[breaks] != 3)
    text = bytes(np.insert(np.frombuffer(compact.encode(), np.uint8), where, 0x80 + depth[breaks]))
    for level in range(depth.max() + 1):
        text = text.replace(bytes([0x80 + level]), b"\n" + b"  " * level)
    return text.decode()


def write_json(doc, dest: str | Path | IO) -> None:
    """Write ``doc`` as JSON indented by two spaces, ending in a newline."""
    # indent=2 runs the pure-Python encoder; past 2 kB, the C one and numpy are faster.
    compact = json.dumps(doc, separators=(",", ": "))
    text = len(compact) > 2048 and _indented(compact) or json.dumps(doc, indent=2)
    with resolve_uri(dest, "w") as handle:
        handle.write(text + "\n")


# What a document of the wrong shape makes a build raise: a missing key or
# index, a value of the wrong type or out of range. Bad JSON is a ValueError.
_BAD_DOCUMENT = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


def read_json(source: str | Path | IO, build: Callable, what: str):
    """``build`` of the JSON document at ``source``, the counterpart of
    ``write_json``; raises DataError ("invalid <what>: ...") naming the
    exception when the text is not JSON or ``build`` fails on the document."""
    with resolve_uri(source, "r") as handle:
        try:
            return build(json.load(handle))
        except _BAD_DOCUMENT as exc:
            raise DataError(f"invalid {what}: {type(exc).__name__}: {exc}") from exc


def json_integer(value) -> int:
    """``value``, if a JSON integer (JSON's true, 7.9 or "7" is none), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"id {value!r} is not an integer")
    return value


def json_points(runs: list[list[tuple]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (lat, lon) pairs of ``runs`` as lat and lon columns and each run's
    offset; ValueError for a coordinate not a number (a bool is not) in range."""
    values = [value for run in runs for vertex in run for value in vertex]
    if not {int, float}.issuperset(map(type, values)):
        bad = next(value for value in values if type(value) not in (int, float))
        raise ValueError(f"coordinate {bad!r} is a {type(bad).__name__}, not a number")
    lat, lon = np.array(values, dtype=float).reshape(-1, 2).T
    if not (np.all(np.abs(lat) <= 90.0) and np.all(np.abs(lon) <= 180.0)):
        raise ValueError("a coordinate is out of range")
    return lat, lon, np.cumsum([0, *map(len, runs)])


class Store(dict):
    """The latest object of each key, as its reader returns it from a file.

    ``store[key]`` is (digest, object): the digest is the sha256 of the
    file's bytes, so a changed file misses.
    """

    def put(self, key: str, path: Path, write: Callable[[IO], object], obj=None) -> None:
        """Write ``path`` by ``write(handle)``, hashing the bytes as they are
        written, and store ``obj`` (by default what ``write`` returns), what
        the reader returns for those bytes."""
        with atomic_write(path, hashed=True) as handle:
            held = write(handle)
        self[key] = (written[path], held if obj is None else obj)

    def load(self, key: str, path: Path, reader: Callable):
        """``reader`` of the text file at ``path``, parsed only when the store
        holds nothing under its digest.

        The file is read a buffer at a time, through a ``_HashingFile``, so
        the whole file is never held. When the store holds an object for
        ``key``, the file is hashed first. On a miss the reader parses it as
        it is hashed, and the rest the reader left is hashed after, so a file
        replaced meanwhile is never stored under another content's digest.
        The caller gets a shallow copy of the stored object, so it cannot
        rebind the stored one's fields.
        """
        with resolve_uri(path, "rb") as handle:
            raw, block = _HashingFile(handle.raw), bytearray(1 << 18)
            if key in self:
                while raw.readinto(block):
                    pass
                if raw.sha256.hexdigest() == self[key][0]:
                    return copy.copy(self[key][1])
                del self[key]  # free the old object before parsing the new one
                handle.raw.seek(0)
                raw.sha256 = hashlib.sha256()
            stream = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="")
            obj = reader(stream)
            while raw.readinto(block):  # the rest the reader left
                pass
            self[key] = (raw.sha256.hexdigest(), obj)
        return copy.copy(obj)
