"""The streamed JSON writer of `enumerate` and `classify`.

`_json_pieces` gives the text of `json.dumps(data, default=cyc_to_json,
sort_keys=True, indent=2)` in pieces, so the CLI writes a document as it
is made, and `_batches` cuts the CSV rows of `families` and the moves of
a witness into writes.  The `json` package is loaded only for a string
that is not ASCII or a leaf that is not a str, int or `Cyc`.

Only the `enumerate` and `classify` commands load this module, so
`verify` and `render` compile none of it.
"""

from __future__ import annotations

from itertools import islice
from math import gcd

from .exactnum import Cyc

# Output is written as it is made: a whole document would cost as much
# memory as the table it prints.  JSON goes out a row per `write` (see
# `_json_pieces`); CSV rows are short, and one write per row would be one
# syscall each when stdout is unbuffered, so they go out in batches, as do
# the moves of a `classify` witness.  An exact value is written straight
# from its integer coordinates: a table row holds the `Cyc`, not the lists
# of `cyc_to_json`.
CSV_BATCH = 64  # table rows or witness moves per write

# What `json.dumps` writes for each ASCII character it escapes: `"` and
# `\` after a backslash, five control characters by their short escapes,
# and the other control characters and DEL as \u00xx.
_ASCII_ESCAPES = {
    **{c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)},
    **{ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')},
}


def _encode_str(s: str) -> str:
    """The text of `json.dumps(s)`; the `json` package is loaded only for
    a string that is not ASCII."""
    if s.isascii():
        if s.isprintable() and '"' not in s and "\\" not in s:
            return '"' + s + '"'  # nothing to escape, as in every key
        return '"' + s.translate(_ASCII_ESCAPES) + '"'
    import json

    return json.dumps(s)


def _batches(items, size: int):
    """Lists of up to size consecutive items; ends on the first empty one."""
    items = iter(items)
    while batch := list(islice(items, size)):
        yield batch


def _encode(o, ind: str) -> str:
    """The text of `json.dumps(o, default=cyc_to_json, sort_keys=True,
    indent=2)` for a value nested in a line indented by ind; dict keys must
    be str.  With an indent the stdlib encodes in pure Python, one
    generator chunk at a time; joining each container's items instead
    takes half the time."""
    if isinstance(o, str):
        return _encode_str(o)
    if type(o) is int:
        return int.__repr__(o)
    if type(o) is Cyc:
        return _encode_cyc(o, ind)
    inner = ind + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_encode_str(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + ind + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_encode(v, inner) for v in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + ind + "]"
    import json  # a float, bool or None: only the null of an `approx` that overflows

    return json.dumps(o)


def _encode_cyc(a: Cyc, ind: str) -> str:
    """The text of `cyc_to_json(a)` nested at ind, made from a's integers:
    one `str` per integer and no list per coordinate.  The strings hold
    only digits and `-`, so none needs escaping, and a value has at least
    one coordinate."""
    inner = ind + "  "
    pair = inner + "  "
    value = pair + "  "
    mid = '",\n' + value + '"'  # between a coordinate's numerator and denominator
    close = '"\n' + pair + "]"
    sep = close + ",\n" + pair + '[\n' + value + '"'
    head = "{\n" + inner + '"coeffs": [\n' + pair + "[\n" + value + '"'
    tail = close + "\n" + inner + '],\n' + inner + '"level": ' + str(a.level) + "\n" + ind + "}"
    den = a.den
    if den == 1:
        return head + (mid + "1" + sep).join(map(str, a.num)) + mid + "1" + tail
    texts = [str(c // (g := gcd(c, den))) + mid + str(den // g) for c in a.num]
    return head + sep.join(texts) + tail


def _json_pieces(data):
    """The text of `json.dumps(data, default=cyc_to_json, sort_keys=True,
    indent=2)` and a final newline, in pieces.  A top-level dict gives one
    piece per member, except that a list member gives one piece per
    element (one `enumerate` row), and a dict member gives pieces of its
    own members, a list among them one piece per CSV_BATCH elements (the
    moves of a `classify` witness)."""
    if not isinstance(data, dict) or not data:
        yield _encode(data, "") + "\n"
        return
    yield from _member_pieces(data, "", 1, "{")
    yield "\n}\n"


def _member_pieces(d: dict, ind: str, size: int, opening: str):
    """The members of the non-empty dict d nested at ind, in pieces after
    opening, the text up to and with its `{`: a non-empty list member in
    pieces of size elements, and at the top (size 1) a non-empty dict
    member split the same way with size CSV_BATCH; any other member whole.
    The closing `}` is the caller's."""
    inner = ind + "  "
    item_ind = inner + "  "
    for key, value in sorted(d.items()):
        head = opening + "\n" + inner + _encode_str(key) + ": "
        opening = ","
        if isinstance(value, (list, tuple)) and value:
            head += "["
            for batch in _batches(value, size):
                texts = [_encode(v, item_ind) for v in batch]
                yield head + "\n" + item_ind + (",\n" + item_ind).join(texts)
                head = ","
            yield "\n" + inner + "]"
        elif size == 1 and isinstance(value, dict) and value:
            yield from _member_pieces(value, inner, CSV_BATCH, head + "{")
            yield "\n" + inner + "}"
        else:
            yield head + _encode(value, inner)
