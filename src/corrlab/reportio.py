"""Deterministic JSON text for reports.

Rationals are rendered as "numerator/denominator" strings so exact values
survive serialization; keys are sorted and no timestamps are embedded, so
identical inputs produce byte-identical reports.

The text is the one the standard ``json`` module writes with ``indent=2``
and ``sort_keys=True``, written in one pass; strings and floats are
``json``'s own text of them.  Each distribution's atoms are filled into
one template for their indent, with each lattice value's text built once
per distribution.  A distribution object that a report holds twice at
one indent, as exact reports do where both choices share a run, is
written once: its text is kept in a one-entry memo until ``encode``
returns.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .ensembles import ExactDistribution

SCHEMA_VERSION = 1

_INDENT = "  "


@functools.lru_cache(maxsize=1)
def _distribution_text(dist: ExactDistribution, nl: str) -> str:
    """A distribution's atoms as a JSON list, one {denominator, numerator, value} object each.

    ``nl`` is the newline and indent of the line the list opens on.  One
    entry, keyed on the object, which ``encode`` clears.
    """
    atom, field = nl + _INDENT, nl + 2 * _INDENT
    value = field + _INDENT
    template = (
        f'{{{field}"denominator": %d,{field}"numerator": %d,{field}"value": [{value}'
        + f",{value}".join(['"%s"'] * len(dist.labels))
        + f"{field}]{atom}}}"
    )
    body = f",{atom}".join([template % (den, num, *point) for point, num, den in dist.atoms()])
    return f"[{atom}{body}{nl}]"


def _write(obj, out: list[str], nl: str) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is the newline and indent of its first line."""
    if isinstance(obj, Fraction):
        out.append(f'"{obj.numerator}/{obj.denominator}"')
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(json.dumps(obj))
    elif isinstance(obj, ExactDistribution):
        out.append(_distribution_text(obj, nl))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        # str() first, as keys sort and collide by their text.
        fields = {str(k): v for k, v in obj.items()}
        inner = nl + _INDENT
        sep = "{" + inner
        for key in sorted(fields):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write(fields[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + _INDENT
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"cannot encode {type(obj).__name__} into a report")


def encode(obj) -> str:
    """JSON text of a report structure: indent 2, keys sorted, exact values as "n/d" strings.

    The writer recurses once per nesting level; the one report that echoes
    user data, ``causal``'s, nests its config at most ``cli._MAX_CONFIG_DEPTH``
    levels deep.
    """
    out: list[str] = []
    try:
        _write(obj, out, "\n")
    finally:
        # No distribution's text outlives its report.
        _distribution_text.cache_clear()
    return "".join(out)


def dump_report(report: dict) -> str:
    return encode(report) + "\n"
