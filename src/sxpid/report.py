"""Report assembly and rendering for decomposition runs.

JSON reports contain an ``averages`` block (capitalized keys) and, when
requested, one ``pointwise`` block per support realization keyed by node
name with fields i_plus, i_minus, i, pi_plus, pi_minus, pi. Negative
signed atoms additionally carry ``misinformative: true``; exact rational
log-arguments are included whenever the distribution allowed computing
them. Tables list nodes bottom-up and print 4 decimals by default.
Node names come from the lattice (``RedundancyLattice.names``), and each
node block is one call of a constant-key constructor over the columns of
the decompositions' blocks. ``render_json`` writes exactly the bytes of
``json.dumps(doc, indent=2)``, each value by the first rule its shape
(never its key) meets: a dict of node blocks of six finite floats whole
from templates, one ``repr`` per distinct float; a list of ``str`` one
item per line; other dicts and lists item by item; the rest by ``json``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import Callable, Collection, Sequence

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


def decomposition_report(d: JointDistribution, avg: AverageDecomposition,
                         decompositions: Sequence[PointwiseDecomposition] | None = None,
                         ) -> dict:
    lat = avg.lattice
    order = display_order(lat)
    names = list(map(lat.names.__getitem__, order))
    doc: dict = {
        "n_sources": d.n_sources,
        "nodes": names,
        "averages": _node_blocks(names, _average_block, avg.block, order),
    }
    if decompositions is not None:
        doc["pointwise"] = [
            {
                "t": d.target_alphabet.label(dec.realization.t),
                "s": [a.label(si) for a, si in
                      zip(d.source_alphabets, dec.realization.s)],
                "weight": float(dec.weight),
                "weight_exact": _format_mass(dec.weight, True) if d.exact else None,
                "nodes": _pointwise_blocks(dec, names, order),
            }
            for dec in decompositions
        ]
    return doc


def _average_block(a, b, c, d, e, f) -> dict:
    """A node block of ``AVERAGE_FIELDS``, keys in order. Must match that tuple;
    ``test_node_blocks_hold_the_block_columns_in_field_order`` checks it."""
    return {"I_plus": a, "I_minus": b, "I": c, "Pi_plus": d, "Pi_minus": e, "Pi": f}


def _pointwise_block(a, b, c, d, e, f) -> dict:
    """A node block of ``POINTWISE_FIELDS``, keys in order. Must match that tuple;
    ``test_node_blocks_hold_the_block_columns_in_field_order`` checks it."""
    return {"i_plus": a, "i_minus": b, "i": c, "pi_plus": d, "pi_minus": e, "pi": f}


def _node_blocks(names: Sequence[str], make: Callable[..., dict],
                 block: np.ndarray, order: Sequence[int]) -> dict:
    """Node name -> ``make(*column)`` over the block's columns in ``order``;
    a node whose signed atom (the last row) is negative is flagged
    ``misinformative``."""
    nodes = dict(zip(names, map(make, *block[:, order].tolist())))
    for name in compress(names, (block[-1, order] < 0).tolist()):
        nodes[name]["misinformative"] = True
    return nodes


def _pointwise_blocks(dec: PointwiseDecomposition, names: Sequence[str],
                      order: Sequence[int]) -> dict:
    nodes = _node_blocks(names, _pointwise_block, dec.block, order)
    if dec.exact_pi_plus is not None:
        for name, j in zip(names, order):
            nodes[name]["exact"] = {"i_plus": str(dec.exact_i_plus[j]),
                                    "i_minus": str(dec.exact_i_minus[j]),
                                    "pi_plus": str(dec.exact_pi_plus[j]),
                                    "pi_minus": str(dec.exact_pi_minus[j])}
    return nodes


# ---------------------------------------------------------------------------
# JSON writer: the bytes of json.dumps(doc, indent=2), written faster.
# ---------------------------------------------------------------------------

def render_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte. A doc nested too deep
    (or cyclic) for ``_write`` is left to ``json.dumps`` and its errors."""
    try:
        return _write(doc, "")
    except RecursionError:
        return json.dumps(doc, indent=2)


def _write(value, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it ``indent`` deep, by
    the first rule its shape meets: (1) a str-keyed dict whose values are
    all node blocks of six finite floats in either field layout, optionally
    flagged ``misinformative``, is written whole from templates; (2) a
    non-empty list of exact ``str`` one escaped item per line; (3) any other
    non-empty str-keyed dict or non-empty list item by item; (4) anything
    else by ``json.dumps``, re-indented (exact: JSON strings hold no raw
    newline)."""
    inner = indent + "  "
    if type(value) is dict and value and all(type(k) is str for k in value):
        text = _uniform_node_map(value, indent)
        if text is not None:
            return text
        items = [f"{inner}{encode_basestring_ascii(k)}: {_write(v, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(value) is list and value:
        items = (map(encode_basestring_ascii, value)
                 if all(type(x) is str for x in value)
                 else [_write(x, inner) for x in value])
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _uniform_node_map(nodes: dict, indent: str) -> str | None:
    """The text of a non-empty str-keyed node map, or None unless every
    block qualifies (rule 1 of ``_write``)."""
    blocks = list(nodes.values())
    if set(map(type, blocks)) != {dict}:
        return None
    inner = indent + "  "
    codes = list(map(_BLOCK_LAYOUTS.get, map(tuple, blocks)))
    if None in codes:
        return None
    flagged = [len(b) == 7 for b in blocks]
    if not all(b["misinformative"] is True for b in compress(blocks, flagged)):
        return None
    # with every flag True, a True left out of a value slot shortens the list
    values = [v for v in chain.from_iterable(map(dict.values, blocks))
              if v is not True]
    if len(values) != 6 * len(blocks) or set(map(type, values)) != {float}:
        return None
    floats = np.array(values)
    if not np.isfinite(floats).all():
        return None
    # one repr per bit pattern, so 0.0 and -0.0 stay apart
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    rows = np.empty((len(blocks), 16), dtype=object)
    rows[:, 0] = ",\n" + inner
    rows[0, 0] = inner
    rows[:, 1] = list(map(encode_basestring_ascii, nodes))
    rows[:, 2] = ": "
    rows[:, 3::2] = _block_pieces(inner)[codes]
    rows[:, 4:15:2] = reprs[inverse].reshape(-1, 6)
    return "{\n" + "".join(rows.ravel().tolist()) + "\n" + indent + "}"


#: Key tuple of a node block -> its row in ``_block_pieces``.
_BLOCK_LAYOUTS = {keys: k for k, keys in enumerate(
    fields + flag for fields in (AVERAGE_FIELDS, POINTWISE_FIELDS)
    for flag in ((), ("misinformative",)))}


@lru_cache(maxsize=None)
def _block_pieces(indent: str) -> np.ndarray:
    """The fixed text of a node block ``indent`` deep, one row per key
    tuple of ``_BLOCK_LAYOUTS``: the text before each of the six values and
    the text after the last."""
    inner = indent + "  "
    rows = []
    for keys in _BLOCK_LAYOUTS:
        heads = [f",\n{inner}{encode_basestring_ascii(k)}: " for k in keys[:6]]
        heads[0] = "{" + heads[0][1:]
        flag = f',\n{inner}"misinformative": true' if len(keys) == 7 else ""
        rows.append(heads + [flag + "\n" + indent + "}"])
    return np.array(rows, dtype=object)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(row[k]) for row in rows)) if rows else len(h)
              for k, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.rjust(w) if k else c.ljust(w)
                         for k, (c, w) in enumerate(zip(cells, widths)))
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), rule] + [fmt(row) for row in rows])


def _value_rows(lat: RedundancyLattice, block: np.ndarray, precision: int,
                keep: Collection[str] | None) -> list[list[str]]:
    """One row per node in display order, restricted to ``keep`` if given."""
    order = display_order(lat)
    if keep is not None:
        order = [j for j in order if lat.names[j] in keep]
    names = map(lat.names.__getitem__, order)
    fmt = f"{{:.{precision}f}}".format
    return [[name, *map(fmt, vals)]
            for name, vals in zip(names, zip(*block[:, order].tolist()))]


def render_average_table(avg: AverageDecomposition, precision: int = 4,
                         keep: Collection[str] | None = None) -> str:
    """The averages table; ``keep`` restricts it to these node names."""
    return _table(["node", "I+", "I-", "I", "Pi+", "Pi-", "Pi"],
                  _value_rows(avg.lattice, avg.block, precision, keep))


def render_pointwise_tables(d: JointDistribution,
                            decompositions: Sequence[PointwiseDecomposition],
                            precision: int = 4,
                            keep: Collection[str] | None = None) -> str:
    """One table per realization; ``keep`` restricts them to these node names."""
    sections = []
    for dec in decompositions:
        head = (f"{realization_label(d, dec.realization)}  "
                f"p={_format_mass(dec.weight, d.exact)}")
        sections.append(head + "\n" + _table(
            ["node", "i+", "i-", "i", "pi+", "pi-", "pi"],
            _value_rows(dec.lattice, dec.block, precision, keep)))
    return "\n\n".join(sections)
