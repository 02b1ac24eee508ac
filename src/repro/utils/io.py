"""Crash-safe file output helpers.

Reports, checkpoints, and benchmark payloads are written
write-temp-then-:func:`os.replace` so a crash (or SIGKILL) mid-write can
never leave a truncated or half-serialized JSON file behind: readers see
either the previous complete file or the new complete file.

JSON is written compact (``separators=(",", ":")``, no indentation),
which keeps CPython on its C encoder: an indented dump takes the
pure-Python encoder, about 2.5x slower on large float lists, and
about doubles the bytes. A payload may hold :class:`JSONText` values,
which are encoded once and then spliced into every later write
verbatim, so a writer that rewrites a large unchanged sub-object (a
serve checkpoint's per-tenant sweep states) does not encode it again.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["JSONText", "atomic_write_text", "atomic_write_json", "compact_json"]

_SEPARATORS = (",", ":")


class JSONText:
    """A JSON value whose compact encoding is computed once and cached.

    Wherever a payload holds this object, :func:`compact_json` (and so
    :func:`atomic_write_json`) writes :attr:`text`, byte-identical to
    encoding :attr:`value` in its place. ``value`` must not be mutated
    after the first encode.
    """

    __slots__ = ("value", "_text")

    def __init__(self, value) -> None:
        self.value = value
        self._text = None

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = compact_json(self.value)
        return self._text


def compact_json(payload) -> str:
    """``json.dumps(payload, separators=(",", ":"))``, with every
    :class:`JSONText` in ``payload`` written as its cached text."""
    texts: list[str] = []

    def splice(obj):
        if not isinstance(obj, JSONText):
            raise TypeError(
                f"Object of type {type(obj).__name__} is not JSON serializable"
            )
        texts.append(obj.text)
        return marker

    # each JSONText is first encoded as the string `marker`; if the quoted
    # marker also occurs anywhere else in the text (a payload string equal
    # to it, say), the split finds more slots than fragments and a longer
    # marker is tried
    marker = "JSONText"
    while True:
        texts.clear()
        text = json.dumps(payload, separators=_SEPARATORS, default=splice)
        parts = text.split(f'"{marker}"')
        if len(parts) == len(texts) + 1:
            break
        marker += "_"
    pieces = [parts[0]]
    for t, p in zip(texts, parts[1:]):
        pieces += (t, p)
    return "".join(pieces)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp + replace)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` atomically as compact JSON plus a
    trailing newline (see :func:`compact_json`)."""
    atomic_write_text(path, compact_json(payload) + "\n")
