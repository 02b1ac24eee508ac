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
serve checkpoint's per-tenant sweep states) does not encode it again;
:func:`atomic_write_json` writes the spliced fragments one by one
rather than joining them first. A :class:`TailEncoder` encodes a list
that grows at its end (a window matrix's CSR arrays, or a sweep's
closed revision entries) by encoding only what was appended since its
last call.
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
from array import array
from pathlib import Path

__all__ = ["JSONText", "TailEncoder", "atomic_write_text",
           "atomic_write_json", "compact_json"]

_SEPARATORS = (",", ":")


class JSONText:
    """A JSON value whose compact encoding is computed once and cached.

    Wherever a payload holds this object, :func:`compact_json` (and so
    :func:`atomic_write_json`) writes :attr:`text`, byte-identical to
    encoding :attr:`value` in its place. ``value`` must not be mutated
    after the first encode. ``encode(value)``, called on the first
    write, computes the text; it must return ``compact_json(value)``
    (the default), but may reuse earlier work to do so.
    """

    __slots__ = ("value", "_text", "_encode")

    def __init__(self, value, encode=None) -> None:
        self.value = value
        self._text = None
        self._encode = encode or compact_json

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = self._encode(self.value)
        return self._text


#: array typecode that packs a list of one exact element type bit for bit
_TYPECODES = {float: "d", int: "q"}


def _packed(values: list, code: str):
    """The bytes of ``values`` packed with typecode ``code``, or ``None``
    unless every element has exactly the type ``code`` packs: ``==``
    alone would let ``1`` stand for ``1.0`` or ``True`` and ``0.0``
    for ``-0.0``, which encode differently."""
    if set(map(type, values)) != {float if code == "d" else int}:
        return None
    try:
        return array(code, values).tobytes()
    except OverflowError:  # an int beyond 64 bits
        return None


class TailEncoder:
    """The compact JSON text of one list, re-encoding only its new tail.

    :meth:`encode` returns ``compact_json(values)``. When the list it
    encoded last is a prefix of ``values``, it encodes only the appended
    tail and extends the previous text; otherwise (a truncated, edited
    or reordered list, or one that mixes element types) it encodes the
    whole list again. In a list of floats or of ints the prefix must
    match bit for bit (every element of the same exact type, floats
    with the same bits); in any other list it must hold the very same
    objects. The list last encoded, and its elements, are held, not
    copied, so they must not be mutated afterwards. The prefix check (a
    type scan and an ``array`` pack, or an identity scan) runs only when
    ``values`` holds the old list's last element at the same index, so a
    list whose old part moved (a sliding window) costs only its encode.
    """

    __slots__ = ("_text", "_last", "_code", "_bits")

    def __init__(self) -> None:
        self._text = None
        #: the list last encoded, and, once packed, its array typecode
        #: and bytes
        self._last = None
        self._code = self._bits = None

    def encode(self, values: list) -> str:
        last, code, bits, same = self._last, None, None, False
        n = 0 if last is None else len(last)
        if 0 < n <= len(values):
            code = _TYPECODES.get(type(values[0]))
            if code is None:
                same = (values[n - 1] is last[-1]
                        and all(map(operator.is_, values, last)))
            elif values[n - 1] == last[-1]:
                if self._code != code:
                    self._code, self._bits = code, _packed(last, code)
                bits = _packed(values, code)
                same = (bits is not None and self._bits is not None
                        and bits.startswith(self._bits))
        if same:
            if len(values) > n:
                self._text = self._text[:-1] + "," + compact_json(values[n:])[1:]
        else:
            self._text = compact_json(values)
        self._last = values
        self._code, self._bits = (code, bits) if bits is not None else (None, None)
        return self._text


def _fragments(payload) -> list:
    """The pieces that ``compact_json(payload)`` joins: the payload's
    own encoding, split around each :class:`JSONText`'s cached text."""
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
    return pieces


def compact_json(payload) -> str:
    """``json.dumps(payload, separators=(",", ":"))``, with every
    :class:`JSONText` in ``payload`` written as its cached text."""
    return "".join(_fragments(payload))


def _atomic_write(path, pieces) -> None:
    """Write the strings ``pieces``, in order, to ``path`` atomically
    (same-directory temp + fsync + replace)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp + replace)."""
    _atomic_write(path, (text,))


def atomic_write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` atomically as compact JSON plus a
    trailing newline (see :func:`compact_json`). The whole payload is
    encoded before the file is opened; its fragments are then written
    one by one, not joined into one string first."""
    pieces = _fragments(payload)
    pieces.append("\n")
    _atomic_write(path, pieces)
