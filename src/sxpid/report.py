"""Report assembly and rendering for decomposition runs.

JSON reports contain an ``averages`` block (capitalized keys) and, when
requested, one ``pointwise`` block per support realization keyed by node
name with fields i_plus, i_minus, i, pi_plus, pi_minus, pi. Negative
signed atoms additionally carry ``misinformative: true``; exact rational
log-arguments are included whenever the distribution allowed computing
them. Tables list nodes bottom-up and print 4 decimals by default.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .dist import JointDistribution, Realization, _format_mass
from .lattice import RedundancyLattice
from .measures import AverageDecomposition, PointwiseDecomposition


def display_order(lattice: RedundancyLattice) -> list[int]:
    """Node indices bottom-up, canonical order within a level: the stable
    ``topological_order``, as nodes are stored in canonical order."""
    return lattice.topological_order.tolist()


def realization_label(d: JointDistribution, r: Realization) -> str:
    s = ",".join(a.label(si) for a, si in zip(d.source_alphabets, r.s))
    return f"t={d.target_alphabet.label(r.t)} s=({s})"


def _node_block(dec: PointwiseDecomposition, j: int) -> dict:
    block = {
        "i_plus": dec.i_plus[j], "i_minus": dec.i_minus[j], "i": dec.i[j],
        "pi_plus": dec.pi_plus[j], "pi_minus": dec.pi_minus[j], "pi": dec.pi[j],
    }
    if dec.pi[j] < 0:
        block["misinformative"] = True
    if dec.exact_pi_plus is not None:
        block["exact"] = {
            "i_plus": str(dec.exact_i_plus[j]),
            "i_minus": str(dec.exact_i_minus[j]),
            "pi_plus": str(dec.exact_pi_plus[j]),
            "pi_minus": str(dec.exact_pi_minus[j]),
        }
    return block


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
            lat.nodes[j].name: {
                "I_plus": avg.I_plus[j], "I_minus": avg.I_minus[j], "I": avg.I[j],
                "Pi_plus": avg.Pi_plus[j], "Pi_minus": avg.Pi_minus[j],
                "Pi": avg.Pi[j],
                **({"misinformative": True} if avg.Pi[j] < 0 else {}),
            }
            for j in order
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
                "nodes": {lat.nodes[j].name: _node_block(dec, j) for j in order},
            }
            for dec in decompositions
        ]
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(row[k]) for row in rows)) if rows else len(h)
              for k, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.rjust(w) if k else c.ljust(w)
                         for k, (c, w) in enumerate(zip(cells, widths)))
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), rule] + [fmt(row) for row in rows])


def render_average_table(avg: AverageDecomposition, precision: int = 4) -> str:
    lat = avg.lattice
    fmt = f"{{:.{precision}f}}"
    rows = []
    for j in display_order(lat):
        rows.append([lat.nodes[j].name,
                     fmt.format(avg.I_plus[j]), fmt.format(avg.I_minus[j]),
                     fmt.format(avg.I[j]), fmt.format(avg.Pi_plus[j]),
                     fmt.format(avg.Pi_minus[j]), fmt.format(avg.Pi[j])])
    return _table(["node", "I+", "I-", "I", "Pi+", "Pi-", "Pi"], rows)


def render_pointwise_tables(d: JointDistribution,
                            decompositions: Sequence[PointwiseDecomposition],
                            precision: int = 4) -> str:
    fmt = f"{{:.{precision}f}}"
    sections = []
    for dec in decompositions:
        lat = dec.lattice
        rows = []
        for j in display_order(lat):
            rows.append([lat.nodes[j].name,
                         fmt.format(dec.i_plus[j]), fmt.format(dec.i_minus[j]),
                         fmt.format(dec.i[j]), fmt.format(dec.pi_plus[j]),
                         fmt.format(dec.pi_minus[j]), fmt.format(dec.pi[j])])
        head = (f"{realization_label(d, dec.realization)}  "
                f"p={_format_mass(dec.weight)}")
        sections.append(head + "\n" + _table(
            ["node", "i+", "i-", "i", "pi+", "pi-", "pi"], rows))
    return "\n\n".join(sections)
