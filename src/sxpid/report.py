"""Report assembly and rendering for decomposition runs.

JSON reports contain an ``averages`` block (capitalized keys) and, when
requested, one ``pointwise`` block per support realization keyed by node
name with fields i_plus, i_minus, i, pi_plus, pi_minus, pi. Negative
signed atoms additionally carry ``misinformative: true``; exact rational
log-arguments are included whenever the distribution allowed computing
them. Tables list nodes bottom-up and print 4 decimals by default.
Values are read column by column from the decompositions' blocks, and
``render_json`` writes exactly the bytes of ``json.dumps(doc, indent=2)``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

import numpy as np

from .dist import JointDistribution, Realization, _format_mass
from .lattice import RedundancyLattice
from .measures import (AVERAGE_FIELDS, POINTWISE_FIELDS, AverageDecomposition,
                       PointwiseDecomposition)


def display_order(lattice: RedundancyLattice) -> list[int]:
    """Node indices bottom-up, canonical order within a level: the stable
    ``topological_order``, as nodes are stored in canonical order."""
    return lattice.topological_order.tolist()


def realization_label(d: JointDistribution, r: Realization) -> str:
    s = ",".join(a.label(si) for a, si in zip(d.source_alphabets, r.s))
    return f"t={d.target_alphabet.label(r.t)} s=({s})"


def _columns(block: np.ndarray, order: Sequence[int]) -> Iterator[tuple[float, ...]]:
    """The block's columns in ``order``, each a tuple of Python floats."""
    return zip(*block[:, order].tolist())


def _node_block(keys: Sequence[str], vals: Sequence[float],
                exact: dict | None = None) -> dict:
    block = dict(zip(keys, vals))
    if vals[-1] < 0:  # the signed atom
        block["misinformative"] = True
    if exact is not None:
        block["exact"] = exact
    return block


def _exact_blocks(dec: PointwiseDecomposition, order: Sequence[int]) -> list:
    if dec.exact_pi_plus is None:
        return [None] * len(order)
    return [{"i_plus": str(dec.exact_i_plus[j]),
             "i_minus": str(dec.exact_i_minus[j]),
             "pi_plus": str(dec.exact_pi_plus[j]),
             "pi_minus": str(dec.exact_pi_minus[j])} for j in order]


def decomposition_report(d: JointDistribution, avg: AverageDecomposition,
                         decompositions: Sequence[PointwiseDecomposition] | None = None,
                         ) -> dict:
    lat = avg.lattice
    order = display_order(lat)
    names = [lat.nodes[j].name for j in order]
    doc: dict = {
        "n_sources": d.n_sources,
        "nodes": names,
        "averages": {
            name: _node_block(AVERAGE_FIELDS, vals)
            for name, vals in zip(names, _columns(avg.block, order))
        },
    }
    if decompositions is not None:
        doc["pointwise"] = [
            {
                "t": d.target_alphabet.label(dec.realization.t),
                "s": [a.label(si) for a, si in
                      zip(d.source_alphabets, dec.realization.s)],
                "weight": float(dec.weight),
                "weight_exact": _format_mass(dec.weight)
                if isinstance(dec.weight, Fraction) else None,
                "nodes": {
                    name: _node_block(POINTWISE_FIELDS, vals, exact)
                    for name, vals, exact in zip(names, _columns(dec.block, order),
                                                 _exact_blocks(dec, order))
                },
            }
            for dec in decompositions
        ]
    return doc


# ---------------------------------------------------------------------------
# JSON writer: the bytes of json.dumps(doc, indent=2), written faster.
# ---------------------------------------------------------------------------

def render_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte.

    The report's node maps (``averages`` and each realization's ``nodes``)
    are written one node at a time, and a node block of six finite floats,
    optionally flagged ``misinformative``, fills a cached ``%r`` template.
    Everything else goes through ``json.dumps`` and is re-indented, which is
    exact because JSON strings hold no raw newline.
    """
    return _dict(doc, "", _doc_value)


def _dumps(value, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it ``indent`` deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _dict(value, indent: str, write_value) -> str:
    """A str-keyed dict with each value written by ``write_value(key, v, indent)``."""
    if type(value) is not dict or not all(type(k) is str for k in value):
        return _dumps(value, indent)
    if not value:
        return "{}"
    inner = indent + "  "
    items = [f"{inner}{encode_basestring_ascii(k)}: {write_value(k, v, inner)}"
             for k, v in value.items()]
    return "{\n" + ",\n".join(items) + "\n" + indent + "}"


def _doc_value(key: str, value, indent: str) -> str:
    if key == "averages":
        return _dict(value, indent, _node_value)
    if key == "pointwise" and type(value) is list and value:
        inner = indent + "  "
        items = [inner + _dict(r, inner, _realization_value) for r in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return _dumps(value, indent)


def _realization_value(key: str, value, indent: str) -> str:
    if key == "nodes":
        return _dict(value, indent, _node_value)
    return _dumps(value, indent)


def _node_value(key: str, block, indent: str) -> str:
    if type(block) is dict:
        template = _block_templates(indent).get(tuple(block))
        if template is not None:
            vals = tuple(block.values())
            if len(vals) == 6 or vals[6] is True:
                vals = vals[:6]
                if tuple(map(type, vals)) == _SIX_FLOATS and math.isfinite(sum(vals)):
                    return template % vals
    return _dumps(block, indent)


_SIX_FLOATS = (float,) * 6


@lru_cache(maxsize=None)
def _block_templates(indent: str) -> dict[tuple[str, ...], str]:
    """Key tuple -> %-template of a node block ``indent`` deep: the six
    fields of either layout, each optionally followed by the flag."""
    inner = indent + "  "
    templates = {}
    for fields in (AVERAGE_FIELDS, POINTWISE_FIELDS):
        lines = [f"{inner}{encode_basestring_ascii(k)}: %r" for k in fields]
        for keys, tail in ((fields, lines), (fields + ("misinformative",),
                                             lines + [f'{inner}"misinformative": true'])):
            templates[keys] = "{\n" + ",\n".join(tail) + "\n" + indent + "}"
    return templates


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(row[k]) for row in rows)) if rows else len(h)
              for k, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.rjust(w) if k else c.ljust(w)
                         for k, (c, w) in enumerate(zip(cells, widths)))
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), rule] + [fmt(row) for row in rows])


def _value_rows(names: Sequence[str], block: np.ndarray, order: Sequence[int],
                precision: int) -> list[list[str]]:
    fmt = f"{{:.{precision}f}}".format
    return [[name, *map(fmt, vals)]
            for name, vals in zip(names, _columns(block, order))]


def render_average_table(avg: AverageDecomposition, precision: int = 4) -> str:
    lat = avg.lattice
    order = display_order(lat)
    names = [lat.nodes[j].name for j in order]
    return _table(["node", "I+", "I-", "I", "Pi+", "Pi-", "Pi"],
                  _value_rows(names, avg.block, order, precision))


def render_pointwise_tables(d: JointDistribution,
                            decompositions: Sequence[PointwiseDecomposition],
                            precision: int = 4) -> str:
    sections = []
    for dec in decompositions:
        lat = dec.lattice
        order = display_order(lat)
        names = [lat.nodes[j].name for j in order]
        head = (f"{realization_label(d, dec.realization)}  "
                f"p={_format_mass(dec.weight)}")
        sections.append(head + "\n" + _table(
            ["node", "i+", "i-", "i", "pi+", "pi-", "pi"],
            _value_rows(names, dec.block, order, precision)))
    return "\n\n".join(sections)
