"""The canonical JSON encoder: ``json.dumps(obj, indent=2, sort_keys=True)``, C-encoded.

Every payload and viewmodel the project serializes goes through
:func:`canonical_json`. Its output is exactly the string
``json.dumps(obj, indent=2, sort_keys=True)`` returns — the golden
fixtures and every live-vs-offline byte comparison pin those bytes — but
an ``indent`` makes :mod:`json` fall back to its pure-Python encoder,
one generator step per element.

This encoder gets the same bytes from the C encoder instead. The indent
only ever appears *between* items, so a container holding no container
is one C call whose item separator carries the newline and the indent
of its depth (``",\\n" + "  " * depth``); the brackets get their own
newline and indent around it. Only containers that hold containers are
walked in Python, one step per nested value: such a dict is still one C
call, with a placeholder string standing in for each nested value, and
the nested encodings are spliced in where the placeholders land.
"""

from __future__ import annotations

import functools
import json
from json.encoder import c_make_encoder, encode_basestring_ascii

__all__ = ["canonical_json"]

_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
#: exact types a container may hold and still be encoded in one C call
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)  # one per nesting depth
def _flat(depth: int):
    """Encoder of a container holding no container, items at ``depth``."""
    sep = ",\n" + _INDENT * depth
    py = json.JSONEncoder(sort_keys=True, separators=(sep, ": "))
    if c_make_encoder is None:  # no C accelerator: the same bytes, slower
        return py.encode
    c = c_make_encoder(
        None, py.default, encode_basestring_ascii, None, ": ", sep, True, False, True
    )
    return lambda o: "".join(c(o, 0))


@functools.lru_cache(maxsize=None)
def _newline(depth: int) -> str:
    return "\n" + _INDENT * depth


def _is_flat(values) -> bool:
    """True when no value is a container."""
    return _SCALAR_TYPES.issuperset(map(type, values)) or not any(
        isinstance(v, _CONTAINERS) for v in values
    )


def _emit(o, depth: int, out: list[str]) -> None:
    """Append the encoding of ``o`` (its first line already indented)."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = _newline(depth + 1)
        if _SCALAR_TYPES.issuperset(map(type, o.values())):
            nested = None
        else:
            nested = [k for k, v in o.items() if isinstance(v, _CONTAINERS)]
        if not nested:
            out.append("{" + inner + _flat(depth + 1)(o)[1:-1] + _newline(depth) + "}")
            return
        # one C call encodes the dict with a slot string standing in for
        # each nested value; the slot's encoding appears once per slot
        # unless a key or scalar value equals the slot, then a longer
        # slot is tried
        nested.sort()
        slotted = dict(o)
        slot = ""
        pieces: list[str] = []
        while len(pieces) != len(nested) + 1:
            slot += "\x00"
            for k in nested:
                slotted[k] = slot
            pieces = _flat(depth + 1)(slotted)[1:-1].split(encode_basestring_ascii(slot))
        out.append("{" + inner + pieces[0])
        for k, piece in zip(nested, pieces[1:]):
            _emit(o[k], depth + 1, out)
            out.append(piece)
        out.append(_newline(depth) + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = _newline(depth + 1)
        if _is_flat(o):
            out.append("[" + inner + _flat(depth + 1)(o)[1:-1] + _newline(depth) + "]")
            return
        sep = "," + inner
        out.append("[" + inner)
        for v in o:
            _emit(v, depth + 1, out)
            out.append(sep)
        out[-1] = _newline(depth) + "]"
    else:
        out.append(_flat(depth)(o))


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    Raises what ``json.dumps`` raises for values it cannot encode.
    """
    out: list[str] = []
    _emit(obj, 0, out)
    return "".join(out)
