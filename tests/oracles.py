"""Row-at-a-time helpers that tests compare the column-wise code with.

``row_tuples`` and ``table_of`` turn a table into row tuples and back, for
oracles that work a row at a time. ``csv_writer`` is the csv.writer that
the CSV files went through before ``storage.write_csv``;
``old_emit_cutlist`` writes the cut-list and its script one f-string per
clip, as ``clips.emit_cutlist`` did before it rendered them a field at a
time. Tests compare the new writers' bytes with these.
"""

import csv
import shlex
import types
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from intxn_pipeline.clips import OVERLAY_BOX_EXPR


def row_tuples(table) -> list[tuple]:
    """Each row of a table as a tuple: its subj, its drive, then its value
    in each of ``table.COLUMNS``, in that order."""
    keys = chain.from_iterable(map(repeat, table.keys, np.diff(table.offsets).tolist()))
    values = zip(*(c.tolist() for c in table.columns()))
    return [(*key, *row) for key, row in zip(keys, values)]


def table_of(cls, rows, **extra):
    """The table of ``cls`` holding ``rows``, tuples as ``row_tuples`` gives them."""
    return cls.from_columns(*(list(zip(*rows)) or [()] * (2 + len(cls.COLUMNS))), **extra)


def csv_writer(handle):
    """A csv.writer to ``handle`` whose rows end in "\\n".

    csv quotes a field holding a character of the line terminator, so the
    writer ends rows in "\\r\\n", which quotes a field holding a lone
    "\\r" as well as one holding a line break, and each row is written with
    "\\n" in place of its "\\r\\n".
    """
    lines = types.SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
    return csv.writer(lines, lineterminator="\r\n")


def clip_json_line(spec) -> str:
    # What json.dumps gives for a str with its default arguments, sans set-up.
    return (
        "  {"
        f'"traj_id": {encode_basestring_ascii(spec.traj_id)}, '
        f'"source_uri": {encode_basestring_ascii(spec.source_uri)}, '
        f'"in_offset_s": {spec.in_offset_s:.3f}, '
        f'"duration_s": {spec.duration_s:.3f}, '
        f'"overlay_on_s": {spec.overlay_on_s:.3f}, '
        f'"overlay_off_s": {spec.overlay_off_s:.3f}, '
        f'"output_name": {encode_basestring_ascii(spec.output_name)}'
        "}"
    )


def clip_command(spec, processor: str = "ffmpeg") -> str:
    """One external-processor invocation cutting and overlaying one clip."""
    on_off = f"{spec.overlay_on_s:.3f},{spec.overlay_off_s:.3f}"
    drawbox = f"drawbox={OVERLAY_BOX_EXPR}:enable='between(t,{on_off})'"
    return (
        f"{processor} -y -ss {spec.in_offset_s:.3f} -t {spec.duration_s:.3f} "
        f"-i {shlex.quote(spec.source_uri)} -vf {shlex.quote(drawbox)} "
        f"{shlex.quote(spec.output_name)}"
    )


def old_emit_cutlist(specs, processor: str = "ffmpeg") -> tuple[str, str]:
    """The cut-list's and the script's texts, one clip at a time."""
    ordered = sorted(specs, key=lambda s: s.traj_id)
    if ordered:
        body = "[\n" + ",\n".join(clip_json_line(s) for s in ordered) + "\n]\n"
    else:
        body = "[]\n"
    return body, "".join(clip_command(s, processor) + "\n" for s in ordered)
