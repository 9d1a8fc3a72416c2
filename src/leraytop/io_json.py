"""Canonical JSON formats for complexes, partitioned complexes and box
families.

Writers emit facets sorted lexicographically and keys in a fixed order, so
saving a canonicalized value is byte-deterministic; ``save(load(f))`` is the
identity on canonical input.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .core import ComplexError, SimplicialComplex, make_complex
from .helly import Box, FamilyError
from .multiproj import PartitionedComplex, make_partitioned


class FormatError(ValueError):
    """Malformed input file; message carries the offending field."""


def _canon_dumps(obj):
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def _complex_doc(X: SimplicialComplex):
    labels = list(X.labels) if X.labels is not None else \
        ["v%d" % i for i in range(X.vertex_count)]
    return {"vertices": [str(l) for l in labels],
            "facets": [list(f) for f in sorted(X.facets)]}


def complex_to_json(X: SimplicialComplex) -> str:
    return _canon_dumps(_complex_doc(X))


def _is_int(v):
    """A JSON integer; JSON booleans load as bool, an int subclass."""
    return isinstance(v, int) and not isinstance(v, bool)


def _load_object(text, *fields):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError("invalid JSON: %s" % exc) from None
    if not isinstance(doc, dict) or any(f not in doc for f in fields):
        raise FormatError("expected an object with fields %s"
                          % ", ".join(repr(f) for f in fields))
    return doc


def _check_facets(facets, n):
    """Raise FormatError naming the first facet that is not a list of
    vertex ids below n.

    The ids are flattened once, and ``set``, ``min`` and ``max`` over
    their types and values clear a well-formed list; only a malformed one
    is walked facet by facet.  JSON integers load as int and booleans as
    bool, so the type set is {int} exactly when every id passes
    ``_is_int``.
    """
    if set(map(type, facets)) <= {list}:
        ids = [v for f in facets for v in f]
        if not ids or (set(map(type, ids)) == {int}
                       and 0 <= min(ids) and max(ids) < n):
            return
    for f in facets:
        if not isinstance(f, list) or not all(
                _is_int(v) and 0 <= v < n for v in f):
            raise FormatError("facet %r is not a list of vertex ids below %d"
                              % (f, n))


def _complex_from_doc(doc) -> SimplicialComplex:
    vertices, facets = doc["vertices"], doc.get("facets")
    if not isinstance(vertices, list):
        raise FormatError("field 'vertices' must be a list of labels")
    if not isinstance(facets, list):
        raise FormatError("field 'facets' must be a list of vertex-id lists")
    n = len(vertices)
    _check_facets(facets, n)
    try:
        return make_complex(facets, allow_void=True, vertex_count=n,
                            labels=[str(v) for v in vertices])
    except ComplexError as exc:
        raise FormatError(str(exc)) from None


def complex_from_json(text: str) -> SimplicialComplex:
    return _complex_from_doc(_load_object(text, "vertices"))


def partitioned_to_json(px: PartitionedComplex) -> str:
    return _canon_dumps(dict(_complex_doc(px.complex),
                             parts=[list(p) for p in px.parts]))


def partitioned_from_json(text: str) -> PartitionedComplex:
    doc = _load_object(text, "vertices", "parts")
    X = _complex_from_doc(doc)
    parts = doc["parts"]
    if not isinstance(parts, list) or not all(
            isinstance(p, list) and all(_is_int(v) for v in p)
            for p in parts):
        raise FormatError("field 'parts' must be a list of vertex-id lists")
    try:
        return make_partitioned(X, parts)
    except ComplexError as exc:
        raise FormatError(str(exc)) from None


def _rational_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise FormatError("malformed rational %r" % (s,))
    try:
        value = Fraction(s)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise FormatError("malformed rational %r" % (s,)) from None
    return value


def family_to_json(d, members) -> str:
    """members: ordered mapping name -> list of Box."""
    out = {}
    for name, boxes in members.items():
        out[str(name)] = [[[_rational_str(lo), _rational_str(hi)]
                           for lo, hi in b.intervals] for b in boxes]
    return _canon_dumps({"d": d, "members": out})


def family_from_json(text: str):
    """Returns (d, {name: [Box, ...]})."""
    doc = _load_object(text, "d", "members")
    d = doc["d"]
    if not _is_int(d) or d < 1:
        raise FormatError("field 'd' must be a positive integer")
    if not isinstance(doc["members"], dict):
        raise FormatError("field 'members' must map names to box lists")
    members = {}
    for name, boxes in doc["members"].items():
        if not isinstance(boxes, list):
            raise FormatError("member %r must be a list of boxes" % (name,))
        parsed = []
        for b in boxes:
            if not isinstance(b, list) or len(b) != d or not all(
                    isinstance(axis, list) and len(axis) == 2 for axis in b):
                raise FormatError("box %r of member %r must have %d "
                                  "[lo, hi] axes" % (b, name, d))
            try:
                parsed.append(Box(tuple(
                    (parse_rational(lo), parse_rational(hi))
                    for lo, hi in b)))
            except FamilyError as exc:
                raise FormatError("bad box in member %r: %s"
                                  % (name, exc)) from None
        members[str(name)] = parsed
    return d, members
