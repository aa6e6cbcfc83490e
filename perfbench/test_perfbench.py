"""The benchmark's own tests: each output check accepts the program's
output and rejects a corrupted copy of it.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``. Inputs are
small (n <= 4) so the tests take seconds.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

from sxpid import grad, measures, report
from sxpid.cli import main as cli_main

import checks
import inputs


@pytest.fixture(scope="module")
def float_case():
    pmf = inputs.full_support_pmf(inputs.rng_for(0, 1), 3)
    d = pmf.dist(exact=False)
    decs = measures.decompose_support(d)
    avg = measures.average_decomposition(d, decompositions=decs)
    names = [a.name for a in avg.nodes]
    return names, checks.realized_from_decompositions(decs), np.array(avg.Pi), checks.Reference(pmf, False)


@pytest.fixture(scope="module")
def exact_report():
    pmf = inputs.decimal_pmf(inputs.rng_for(0, 2), (2, 3, 2, 3), 12)
    d = pmf.dist(exact=True)
    decs = measures.decompose_support(d)
    avg = measures.average_decomposition(d, decompositions=decs)
    doc = json.loads(report.render_json(report.decomposition_report(d, avg, decs)))
    return doc, checks.Reference(pmf, exact=True)


def test_float_decomposition_passes(float_case):
    names, realized, average_pi, ref = float_case
    assert checks.check_decomposition(names, realized, average_pi, ref) == []


@pytest.mark.parametrize("field", ["pi", "i_plus", "i"])
def test_float_decomposition_rejects_shifted_value(float_case, field):
    names, realized, average_pi, ref = float_case
    bad = copy.deepcopy(realized)
    node = names.index("{1,2,3}") if field == "i" else names.index("{2}")
    bad[3].values[field][node] += 1e-6
    assert checks.check_decomposition(names, bad, average_pi, ref)


def test_float_decomposition_rejects_negative_part(float_case):
    names, realized, average_pi, ref = float_case
    bad = copy.deepcopy(realized)
    bad[0].values["pi_minus"][5] = -1e-6
    assert checks.check_decomposition(names, bad, average_pi, ref)


def test_float_decomposition_rejects_shifted_average(float_case):
    names, realized, average_pi, ref = float_case
    bad = average_pi.copy()
    bad[7] += 1e-6
    assert checks.check_decomposition(names, realized, bad, ref)


def test_float_decomposition_rejects_missing_realization(float_case):
    names, realized, average_pi, ref = float_case
    assert checks.check_decomposition(names, realized[1:], average_pi, ref)


def test_exact_report_passes(exact_report):
    doc, ref = exact_report
    assert checks.check_decomposition(*checks.realized_from_report(doc), ref) == []


def test_exact_report_rejects_shifted_atom(exact_report):
    doc, ref = exact_report
    bad = copy.deepcopy(doc)
    name = bad["nodes"][len(bad["nodes"]) // 2]
    bad["pointwise"][2]["nodes"][name]["pi"] += 1e-6
    assert checks.check_decomposition(*checks.realized_from_report(bad), ref)


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return json.loads(out.getvalue())


def test_parity_averages():
    doc = _cli_json(["compute", "parity:3", "--format", "json"])
    assert checks.check_parity_averages(doc, 3) == []
    doc["averages"]["{1,2}"]["I"] += 1e-6
    assert checks.check_parity_averages(doc, 3)


@pytest.mark.parametrize("n", [3, 4])
def test_lattice_listing_passes(n):
    assert checks.check_lattice(_cli_json(["lattice", str(n)]), n) == []


def test_lattice_rejects_dropped_cover_edge():
    doc = _cli_json(["lattice", "4"])
    child, parent = doc["cover_edges"].pop(17)
    assert checks.check_lattice(doc, 4)
    doc["children"][parent].remove(child)
    assert checks.check_lattice(doc, 4)


def test_lattice_rejects_missing_node():
    doc = _cli_json(["lattice", "3"])
    doc["nodes"].pop()
    assert checks.check_lattice(doc, 3)


@pytest.fixture(scope="module")
def n3_point():
    pmf = inputs.full_support_pmf(inputs.rng_for(0, 3), 3)
    point = grad.SimplexPoint((2,) * 4, pmf.grid().reshape(-1))
    alpha = measures.enumerate_lattice(3).node_by_name("{1,2}{3}")
    return point, alpha


def test_gradient_check(n3_point):
    point, alpha = n3_point
    analytic = grad.grad_average(point, alpha).partials
    fd = checks.fd_partials(
        lambda x: grad.average_atom_value(x, point.shape, alpha), point.p, [0, 5, 11])
    assert checks.check_gradient(analytic, fd) == []
    bad = analytic.copy()
    bad[5] *= 1 + 1e-3
    assert checks.check_gradient(bad, fd)


def test_trajectory_checks(n3_point):
    point, alpha = n3_point
    traj = [s.point for s in grad.optimize_atom(point, alpha, steps=2)]
    assert checks.check_trajectory(traj, 2, point.epsilon) == []
    assert checks.check_trajectory(traj[:-1], 2, point.epsilon)
    shifted = [x.copy() for x in traj]
    shifted[1][0] += 1e-6
    assert checks.check_trajectory(shifted, 2, point.epsilon)


def test_mechanism_fixed_trajectory_checks(n3_point):
    point, alpha = n3_point
    joint = point.p.reshape(2, -1)
    q = joint.sum(axis=0)
    mech = joint / q[None, :]
    traj = [s.point for s in grad.optimize_atom_mechanism_fixed(
        mech.reshape(-1), q, point.shape, alpha, steps=2)]
    assert checks.check_trajectory(traj, 2, point.epsilon, mech) == []
    moved = [x.copy() for x in traj]
    moved[2][:2] += np.array([1e-4, -1e-4])   # mass moves between target cells
    assert checks.check_trajectory(moved, 2, point.epsilon, mech)
