"""Report assembly and rendering for decomposition runs.

JSON reports contain an ``averages`` block (capitalized keys) and, when
requested, one ``pointwise`` block per support realization keyed by node
name with fields i_plus, i_minus, i, pi_plus, pi_minus, pi. Negative
signed atoms additionally carry ``misinformative: true``; exact rational
log-arguments are included whenever the distribution allowed computing
them. Tables list nodes bottom-up and print 4 decimals by default.
Node names come from the lattice (``RedundancyLattice.names``), put in
display order once per source count, and each node block is one call of
a constant-key constructor over the columns of the decompositions'
blocks. ``render_json`` writes exactly the bytes of
``json.dumps(doc, indent=2)``, each value by the first rule its shape
(never its key) meets: a dict of node blocks of six finite floats whole
from templates, one ``repr`` per distinct nonzero float; a list of
``str`` one item per line; other dicts and lists item by item; the rest
by ``json``. A node map is checked in one pass per kind: the key tuple of
every block, the type of every value, the few flags; the names of a list
or a map are escaped once per tuple of names (``_escaped``).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from operator import countOf
from typing import Callable, Collection, Sequence

import numpy as np

from .dist import DistributionError, JointDistribution, Realization, _format_mass
from .lattice import RedundancyLattice, enumerate_lattice
from .measures import (AVERAGE_FIELDS, POINTWISE_FIELDS, AverageDecomposition,
                       PointwiseDecomposition, check_decompositions)


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
    if avg.n != d.n_sources:
        raise DistributionError(f"averages over {avg.n} sources, the "
                                f"distribution has {d.n_sources}")
    if decompositions is not None:
        check_decompositions(d, decompositions)
    order = avg.lattice.topological_order
    names = list(_bottom_up_names(avg.n))
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


@lru_cache(maxsize=None)
def _bottom_up_names(n: int) -> tuple[str, ...]:
    """The node names of the n-source lattice in ``display_order``."""
    lat = enumerate_lattice(n)
    return tuple(map(lat.names.__getitem__, display_order(lat)))


def _average_block(a, b, c, d, e, f) -> dict:
    """A node block of ``AVERAGE_FIELDS``, keys in order. Must match that tuple;
    ``test_node_blocks_hold_the_block_columns_in_field_order`` checks it."""
    return {"I_plus": a, "I_minus": b, "I": c, "Pi_plus": d, "Pi_minus": e, "Pi": f}


def _pointwise_block(a, b, c, d, e, f) -> dict:
    """A node block of ``POINTWISE_FIELDS``, keys in order. Must match that tuple;
    ``test_node_blocks_hold_the_block_columns_in_field_order`` checks it."""
    return {"i_plus": a, "i_minus": b, "i": c, "pi_plus": d, "pi_minus": e, "pi": f}


def _node_blocks(names: Sequence[str], make: Callable[..., dict],
                 block: np.ndarray, order: np.ndarray) -> dict:
    """Node name -> ``make(*column)`` over the block's columns in ``order``;
    a node whose signed atom (the last row) is negative is flagged
    ``misinformative``."""
    columns = block.take(order, axis=1)
    nodes = dict(zip(names, map(make, *columns.tolist())))
    for name in compress(names, (columns[-1] < 0).tolist()):
        nodes[name]["misinformative"] = True
    return nodes


def _pointwise_blocks(dec: PointwiseDecomposition, names: Sequence[str],
                      order: np.ndarray) -> dict:
    nodes = _node_blocks(names, _pointwise_block, dec.block, order)
    if dec.exact_pi_plus is not None:
        for name, j in zip(names, order.tolist()):
            nodes[name]["exact"] = {k: str(getattr(dec, "exact_" + k)[j]) for k
                                    in ("i_plus", "i_minus", "pi_plus", "pi_minus")}
    return nodes


# ---------------------------------------------------------------------------
# JSON writer: the bytes of json.dumps(doc, indent=2), written faster.
# ---------------------------------------------------------------------------

def render_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, joined once from the
    pieces ``_write`` appends. A doc nested too deep (or cyclic) for
    ``_write`` is left to ``json.dumps`` and its errors."""
    pieces: list[str] = []
    try:
        _write(doc, "", pieces)
    except RecursionError:
        return json.dumps(doc, indent=2)
    return "".join(pieces)


def _write(value, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(indent=2)`` writes it
    ``indent`` deep, by the first rule its shape meets: (1) a str-keyed
    dict whose values are all node blocks of six finite floats in either
    field layout, optionally flagged ``misinformative``, is written whole
    from templates; (2) a non-empty list of exact ``str`` one escaped item
    per line; (3) any other non-empty str-keyed dict or non-empty list item
    by item; (4) anything else by ``json.dumps``, re-indented (exact: JSON
    strings hold no raw newline)."""
    inner = indent + "  "
    if type(value) is dict and value and set(map(type, value)) == {str}:
        if _uniform_node_map(value, indent, out):
            return
        head = "{\n" + inner
        for k, v in value.items():
            out.append(f"{head}{encode_basestring_ascii(k)}: ")
            _write(v, inner, out)
            head = ",\n" + inner
        out.append("\n" + indent + "}")
    elif type(value) is list and value:
        if set(map(type, value)) == {str}:
            out += ["[\n" + inner, (",\n" + inner).join(_escaped(tuple(value)))]
        else:
            head = "[\n" + inner
            for x in value:
                out.append(head)
                _write(x, inner, out)
                head = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", "\n" + indent))


@lru_cache(maxsize=16)
def _escaped(items: tuple[str, ...]) -> tuple[str, ...]:
    """The JSON literals of a tuple of exact ``str``: a report's node names
    are escaped once for its node list and all of its node maps."""
    return tuple(map(encode_basestring_ascii, items))


def _uniform_node_map(nodes: dict, indent: str, out: list[str]) -> bool:
    """Append the text of a non-empty map of exact ``str`` keys to ``out``
    if every block qualifies (rule 1 of ``_write``); else append nothing
    and return False."""
    blocks = list(nodes.values())
    if set(map(type, blocks)) != {dict}:
        return False
    try:
        codes = np.fromiter(map(_BLOCK_LAYOUTS.__getitem__, map(tuple, blocks)),
                            np.intp, len(blocks))
    except KeyError:
        return False
    values = list(chain.from_iterable(map(dict.values, blocks)))
    # a flagged block (odd code) holds its flag after its six values
    flagged = codes & 1
    flags = (np.cumsum(6 + flagged) - 1)[flagged == 1]
    # with every flag True, six floats per block means every value slot
    # holds a float
    if (not all(values[k] is True for k in flags.tolist())
            or countOf(map(type, values), float) != 6 * len(blocks)):
        return False
    floats = np.delete(np.fromiter(values, float, len(values)), flags)
    if not np.isfinite(floats).all():
        return False
    # one repr per bit pattern, so 0.0 and -0.0 stay apart; +0.0 (all bits
    # clear, half the values of an n = 5 report) needs no sort
    bits = floats.view(np.int64)
    cells = np.empty(len(bits), dtype=object)
    cells.fill("0.0")
    live = np.flatnonzero(bits)
    distinct, inverse = np.unique(bits[live], return_inverse=True)
    cells[live] = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                           dtype=object)[inverse]
    inner = indent + "  "
    rows = np.empty((len(blocks), 16), dtype=object)
    rows[:, 0] = ",\n" + inner
    rows[0, 0] = "{\n" + inner
    rows[:, 1] = _escaped(tuple(nodes))
    rows[:, 2] = ": "
    rows[:, 3::2] = _block_pieces(inner)[codes]
    rows[:, 4:15:2] = cells.reshape(-1, 6)
    out += rows.ravel().tolist()
    out.append("\n" + indent + "}")
    return True


#: Key tuple of a node block -> its row in ``_block_pieces``; odd rows are
#: the flagged layouts.
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
