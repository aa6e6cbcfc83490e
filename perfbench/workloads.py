"""The benchmark's workloads, their set-up and the layer probes of a traced run.

Each workload is a closed loop with one client: an op starts when the
previous one ends. Ops come in rounds (the same ops in the same order) and a
run attempts whole rounds until ``--seconds`` have passed. Every input is
generated from the seed; the program only sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import bootstrap
from sxpid import grad, measures, report
from sxpid import lattice as lattice_mod
from sxpid.dist import load_distribution

import checks
import inputs
from spans import Spans, timed

#: Set-up is repeated this many times in fresh processes; setup_s is the median.
SETUP_REPEATS = 3
#: Support size of each decompose-float-n5 input (of the 64 cells at n = 5).
FLOAT_SUPPORT = 8
#: The seeded exact inputs of the layer probes: alphabet sizes of the target
#: and of the five sources, and the support size.
CSV_CARDS = (2, 3, 2, 3, 2, 3)
CSV_SUPPORT = 8
#: Pool size of the layer probe's pool; the machine the figures come from
#: has 2 cores.
POOL_WORKERS = 2
#: Interior margin the optimizer keeps.
EPSILON = 1e-9
#: Optimizer steps per op, and the nodes optimize-n4 cycles through.
OPT_STEPS = 2
OPT_NODES = ("{1,2}{3,4}", "{1,2,3,4}")
#: Coordinates per node checked against central differences.
FD_COORDS = 3
#: Realizations per layer probe of the event masses, and repeats per probe.
PROBE_REALIZATIONS = 2
PROBE_REPEATS = 3

PROBE = os.path.join(bootstrap.HERE, "probe.py")
CLI = [sys.executable, "-m", "sxpid.cli"]


@dataclass
class OpResult:
    seconds: float
    realizations: int
    problems: list[str] = field(default_factory=list)
    failed: bool = False
    #: Mean reference-kernel time just before and just after the op.
    reference: float = 0.0


def float_pmf(seed: int, index: int) -> inputs.Pmf:
    """The decompose-float-n5 input of op ``index``: binary, partial support."""
    return inputs.decimal_pmf(inputs.rng_for(seed, 1, index), (2,) * 6,
                              FLOAT_SUPPORT)


def csv_pmf(seed: int, index: int) -> inputs.Pmf:
    """An exact input at n = 5 with 2- and 3-symbol alphabets."""
    return inputs.decimal_pmf(inputs.rng_for(seed, 2, index), CSV_CARDS,
                              CSV_SUPPORT)


def run_process(argv: list[str], stdout_path: str) -> int:
    """Run one program process with stdout to a file; its exit code."""
    with open(stdout_path, "wb") as out:
        return subprocess.run(argv, stdout=out, cwd=bootstrap.ROOT).returncode


def setup_probe_seconds(kind: str, seed: int) -> float:
    """Wall time from starting a fresh process to its being ready for an op."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, PROBE, kind, str(seed)],
                          stdout=subprocess.PIPE, cwd=bootstrap.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe {kind} failed")
    return elapsed


# ---------------------------------------------------------------------------
# Set-up: what a process pays before its first op.
# ---------------------------------------------------------------------------

def setup_lattice(spans: Spans, n: int):
    """Enumeration, order, strict lower sets and topological order."""
    with spans.span("lattice.enumerate", n=n):
        lat = lattice_mod.enumerate_lattice(n)
    with spans.span("lattice.order", n=n):
        lat.leq_matrix
    with spans.span("lattice.warm", n=n):
        for j in range(len(lat)):
            lat.strict_lower(j)
        lat.topological_order
    return lat


def start_pmf(seed: int) -> inputs.Pmf:
    """The seeded full-support pmf on the 32-cell n = 4 grid."""
    return inputs.full_support_pmf(inputs.rng_for(seed, 4), 4)


def start_point(seed: int) -> grad.SimplexPoint:
    """The optimizer's interior start point: ``start_pmf`` on the grid."""
    return grad.SimplexPoint((2,) * 5, start_pmf(seed).grid().reshape(-1), EPSILON)


def setup_n4(spans: Spans, seed: int):
    """The n = 4 lattice, the start point and grad's event cells (cold call)."""
    lat = setup_lattice(spans, 4)
    point = start_point(seed)
    with spans.span("grad.grad_average.cold"):
        grad.grad_average(point, lat.node_by_name(OPT_NODES[0]))
    return lat, point


SETUPS: dict[str, Callable] = {
    "n5": lambda spans, seed: setup_lattice(spans, 5),
    "n4": setup_n4,
}


# ---------------------------------------------------------------------------
# CLI outputs, checked once per run outside the timed ops.
# ---------------------------------------------------------------------------

def check_cli(scratch: str) -> list[str]:
    """The lattice listing and the parity property, checked on n = 4.

    At n = 5 these processes take 139 s (``lattice 5``, its cover
    relation) and 27 s (``compute parity:5``), more than a run may.
    """
    problems = []
    listing = os.path.join(scratch, "lattice-4.json")
    parity = os.path.join(scratch, "parity-4.json")
    codes = [run_process(CLI + ["lattice", "4"], listing),
             run_process(CLI + ["compute", "parity:4", "--format", "json",
                                "--pointwise"], parity)]
    if codes != [0, 0]:
        return [f"sxpid lattice 4 / compute parity:4 exited with {codes}"]
    with open(listing) as fh:
        problems += [f"lattice 4: {p}" for p in checks.check_lattice(json.load(fh), 4)]
    with open(parity) as fh:
        problems += check_report(json.load(fh), inputs.parity_pmf(4), "parity:4")
    return problems


def check_report(doc, pmf: inputs.Pmf, spec: str) -> list[str]:
    """A pointwise JSON report of ``sxpid compute`` against exact references."""
    names, realized, average_pi = checks.realized_from_report(doc)
    problems = checks.check_decomposition(
        names, realized, average_pi, checks.Reference(pmf, exact=True))
    if spec.startswith("parity:"):
        problems += checks.check_parity_averages(doc, pmf.n)
    return [f"{spec}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class Workload:
    setup_kind = "n5"

    def __init__(self, seed: int, spans: Spans, scratch: str):
        self.seed = seed
        self.spans = spans
        self.scratch = scratch
        #: Problems found by checks made once per run, outside the ops.
        self.problems: list[str] = []
        #: Support points (grid cells for optimize-n4) of one op's input.
        self.support_points = 0

    def prepare(self) -> None:
        """In-process set-up, not timed as an op."""

    def round(self, index: int) -> list[Callable[[], OpResult]]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class DecomposeFloat(Workload):
    """One float pmf at n = 5 per op: decompose, average, averages report."""

    def prepare(self):
        self.problems = check_cli(self.scratch)
        self.lat = SETUPS["n5"](self.spans, self.seed)
        self.names = [a.name for a in self.lat.nodes]
        self.support_points = FLOAT_SUPPORT

    def round(self, index):
        return [lambda: self.op(index)]

    def op(self, index: int) -> OpResult:
        pmf = float_pmf(self.seed, index)
        d = pmf.dist(exact=False)
        sp = self.spans
        with sp.patch(measures, "pointwise_decomposition",
                      "measures.pointwise_decomposition"), \
                sp.patch(measures, "invert_array", "lattice.invert_array"):
            start = time.perf_counter()
            with sp.span("measures.decompose_support"):
                decs = measures.decompose_support(d, self.lat, workers=1)
            with sp.span("measures.average_decomposition"):
                avg = measures.average_decomposition(d, self.lat, decompositions=decs)
            with sp.span("report.decomposition_report"):
                doc = report.decomposition_report(d, avg)
            with sp.span("report.render_json") as rec:
                text = report.render_json(doc)
                rec["bytes"] = len(text.encode())
            seconds = time.perf_counter() - start
        ref = checks.Reference(pmf, exact=False)
        problems = checks.check_decomposition(
            self.names, checks.realized_from_decompositions(decs),
            np.asarray(avg.Pi), ref)
        rendered = json.loads(text)["averages"]
        problems += checks.check_average([v["Pi"] for v in rendered.values()], ref)
        return OpResult(seconds, len(d.support), problems)


class Optimize(Workload):
    """Projected-gradient runs of a fixed length at n = 4, alternating the
    free joint and the mechanism-fixed modes over a fixed set of nodes."""

    setup_kind = "n4"

    def prepare(self):
        self.lat, self.point = SETUPS["n4"](self.spans, self.seed)
        joint = self.point.p.reshape(self.point.shape[0], -1)
        self.q = joint.sum(axis=0)
        self.mechanism = joint / self.q[None, :]
        self.problems = self.check_start()
        self.support_points = self.point.p.size

    def check_start(self) -> list[str]:
        """Gradients against central differences and atom values against
        measures.average_decomposition, at the start point."""
        problems = []
        p, shape = self.point.p, self.point.shape
        avg = measures.average_decomposition(start_pmf(self.seed).dist(exact=False))
        rng = inputs.rng_for(self.seed, 5)
        for name in OPT_NODES:
            alpha = self.lat.node_by_name(name)
            coords = rng.choice(p.size, size=FD_COORDS, replace=False)
            analytic = grad.grad_average(self.point, alpha).partials
            fd = checks.fd_partials(
                lambda x: grad.average_atom_value(x, shape, alpha), p, coords)
            problems += [f"{name}: {x}" for x in checks.check_gradient(analytic, fd)]
            value = grad.average_atom_value(p, shape, alpha)
            want = avg.Pi[self.lat.index(alpha)]
            if abs(value - want) > checks.TOL:
                problems.append(f"{name}: average_atom_value {value!r} != "
                                f"average_decomposition Pi {want!r}")
        return problems

    def round(self, index):
        return [lambda name=name, fixed=fixed: self.op(name, fixed)
                for name in OPT_NODES for fixed in (False, True)]

    def op(self, name: str, fixed: bool) -> OpResult:
        alpha = self.lat.node_by_name(name)
        sp = self.spans
        with sp.patch(grad, "average_atom_value", "grad.average_atom_value"), \
                sp.patch(grad, "invert_array", "lattice.invert_array"), \
                sp.span("grad.optimize", steps=OPT_STEPS):
            start = time.perf_counter()
            if fixed:
                traj = grad.optimize_atom_mechanism_fixed(
                    self.mechanism.reshape(-1), self.q, self.point.shape, alpha,
                    steps=OPT_STEPS, epsilon=EPSILON)
            else:
                traj = grad.optimize_atom(self.point, alpha, steps=OPT_STEPS)
            seconds = time.perf_counter() - start
        problems = checks.check_trajectory(
            [s.point for s in traj], OPT_STEPS, EPSILON,
            self.mechanism if fixed else None)
        problems = [f"{name} {'fixed' if fixed else 'free'}: {p}" for p in problems]
        # Every trajectory point is one evaluation of the averaged atom and
        # its gradient over all grid realizations.
        return OpResult(seconds, len(traj) * self.point.p.size, problems)


WORKLOADS = {
    "decompose-float-n5": DecomposeFloat,
    "optimize-n4": Optimize,
}


# ---------------------------------------------------------------------------
# Layer probes of the traced run.
# ---------------------------------------------------------------------------

def layer_probes(wl: Workload, absent: list[str]) -> dict[str, float]:
    """Time the public calls that the workload's own ops do not make.

    Spans go into ``wl.spans`` under the names the ops use, so a metric
    comes from the ops where they make the call and from here otherwise;
    values that are not spans (ratios, counts, process times) are returned.
    Inputs are the same on every workload: the first float and CSV inputs
    and the optimizer's start point of the seed.
    """
    sp = wl.spans
    # Warm, so the pool workers fork with the order already built.
    lat = setup_lattice(Spans(False), 5)
    floats = float_pmf(wl.seed, 0).dist(exact=False)
    exact_pmf = csv_pmf(wl.seed, 0)
    exact = exact_pmf.dist(exact=True)
    out: dict[str, float] = {}

    event_masses = getattr(measures, "node_event_probabilities", None)
    if event_masses is None:
        absent += ["measures.event_masses_float_s", "measures.event_masses_exact_s"]
    else:
        for kind, d in (("float", floats), ("exact", exact)):
            for r in d.support[:PROBE_REALIZATIONS]:
                with sp.span(f"measures.event_masses.{kind}"):
                    event_masses(d, r, lat)

    # The single-worker pass also gives pointwise and inversion spans to
    # the workloads whose ops make no such call in this process.
    with contextlib.ExitStack() as stack:
        for attr, name in (("pointwise_decomposition", "measures.pointwise_decomposition"),
                           ("invert_array", "lattice.invert_array")):
            if not sp.durations(name):
                stack.enter_context(sp.patch(measures, attr, name))
        _, one = timed(measures.decompose_support, exact, lat, workers=1)
    _, two = timed(measures.decompose_support, exact, lat, workers=POOL_WORKERS)
    out["measures.pool_speedup"] = one / two

    if not sp.durations("lattice.invert_array"):
        if hasattr(lattice_mod, "invert_array"):
            v = np.linspace(0.0, 1.0, len(lat))
            for _ in range(PROBE_REPEATS):
                with sp.span("lattice.invert_array"):
                    lattice_mod.invert_array(lat, v)
        else:
            absent.append("lattice.invert_s")
    if not sp.durations("report.decomposition_report"):
        decs = measures.decompose_support(floats, lat)
        with sp.span("measures.average_decomposition"):
            avg = measures.average_decomposition(floats, lat, decompositions=decs)
        with sp.span("report.decomposition_report"):
            doc = report.decomposition_report(floats, avg, decs)
        with sp.span("report.render_json") as rec:
            rec["bytes"] = len(report.render_json(doc).encode())

    text = exact_pmf.csv()
    for _ in range(PROBE_REPEATS):
        with sp.span("dist.load_distribution"):
            load_distribution(text, "csv")

    lat4 = lattice_mod.RedundancyLattice(4)
    with sp.span("lattice.covers", n=4):
        lat4.children_table
    out["lattice.cover_edges"] = len(lat4.cover_edges())
    out["lattice.comparable_pairs"] = int(lat.leq_matrix.sum())

    point = start_point(wl.seed)
    alpha = lattice_mod.enumerate_lattice(4).node_by_name(OPT_NODES[0])
    if not sp.durations("grad.grad_average.cold"):
        with sp.span("grad.grad_average.cold"):
            grad.grad_average(point, alpha)
    for _ in range(PROBE_REPEATS):
        with sp.span("grad.grad_average"):
            grad.grad_average(point, alpha)
        with sp.span("grad.average_atom_value"):
            grad.average_atom_value(point.p, point.shape, alpha)
    if not sp.durations("grad.optimize"):
        with sp.span("grad.optimize", steps=OPT_STEPS):
            grad.optimize_atom(point, alpha, steps=OPT_STEPS)

    out["cli.startup_s"] = statistics.median(
        timed(subprocess.run, [sys.executable, "-c", "import sxpid.cli"],
              check=True, cwd=bootstrap.ROOT)[1]
        for _ in range(PROBE_REPEATS))
    return out
