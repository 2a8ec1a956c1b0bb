"""The canonical encoder against ``json.dumps(..., indent=2, sort_keys=True)``.

:func:`repro._util.canonjson.canonical_json` encodes every payload and
viewmodel with the C encoder; the golden fixtures pin the bytes of the
pure-Python ``indent=2`` encoder, which stays the oracle here. Every
value must encode to the very same string: nested and empty containers,
keys and strings with quotes, backslashes, control characters and
non-ASCII text, bools, ``None``, big ints, ``-0.0``, ``1e-05``, ``1e+16``
and non-finite floats, tuples, and dicts whose strings look like the
encoder's own placeholders.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util.canonjson import canonical_json


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "é", "—", "😀", "a", "}", "{", ",", " "]
_TEXT = st.text(alphabet=st.sampled_from(_AWKWARD) | st.characters(), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e-05, 1e16, 0.1, 2.5e-300])
    | _TEXT
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=5)
    | st.tuples(inner, inner),
    max_leaves=40,
)


def _same(obj) -> None:
    assert canonical_json(obj) == _oracle(obj)


@settings(max_examples=400, deadline=None)
@given(obj=_JSON)
@example(obj={})
@example(obj=[])
@example(obj={"a": {}, "b": [], "c": [{}], "d": [[]]})
@example(obj={"\x00": [1], "x": "\x00"})
@example(obj={"k": "\x00", "n": {"m": ["\x00\x00"]}, "\x00\x00": 0})
@example(obj=[{"a": "}", "b": [1]}, {"a": "},\n  {"}])
@example(obj={"s": '"quoted" \\ back', "ctl": "\x01\x7f", "uni": "é—😀"})
@example(obj=[True, False, None, 2**70, -(2**70), -0.0, 1e-05, 1e16, float("nan")])
@example(obj=[float("inf"), float("-inf"), {"f": float("nan")}])
def test_matches_the_indent_encoder(obj):
    _same(obj)


@pytest.mark.parametrize(
    "obj",
    [
        0,
        "text",
        None,
        {1: [2], 2: 3},
        {1.5: {"x": 1}, 2.5: 0},
        {True: [1], False: 2},
        {None: [None]},
        [[[[[]]]]],
        {"t": ((1, 2), (3, [4]))},
    ],
)
def test_scalars_and_non_string_keys(obj):
    _same(obj)


def test_unencodable_values_raise_like_json():
    for bad in ({"a": object()}, [{1, 2}], {"x": {"y": b"bytes"}}):
        with pytest.raises(TypeError):
            _oracle(bad)
        with pytest.raises(TypeError):
            canonical_json(bad)
