"""Correctness checks on the program's outputs, made outside the timed region.

Each check returns None when the output is right and a short reason when
it is not.  Membership, K-independence and duality are decided with the
benchmark's own exact arithmetic (exact.py), gauges with its own
embedding, and minima and covering brackets against the stored
reference of the case's slot, which holds for every seed because a seed
only changes the module's generators and the body scale.  What depends
on the generators themselves (the CLI's printed dual basis, the width of
a covering bracket) is compared with the reference on the committed seed
only.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

import corpus
from exact import Field, det, in_lattice, k_independent

REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class Oracle:
    """Exact and numeric views of one field, independent of the program."""

    def __init__(self, name: str):
        poly, basis, _, (r, s) = corpus.FIELDS[name]
        self.field = Field(poly, basis)
        roots = np.roots([float(c) for c in reversed(poly)])
        self.real = sorted(z.real for z in roots if abs(z.imag) < 1e-9)
        self.complex = [z for z in roots if z.imag > 1e-9]
        if len(self.real) != r or len(self.complex) != s:
            raise ValueError(f"signature of {name} disagrees with its roots")

    def places(self, vec) -> list[np.ndarray]:
        """Embedding of a K-vector, one coordinate block per place, reals first."""
        def ev(x, z):
            return sum(float(c) * z ** i for i, c in enumerate(x))
        out = [np.array([ev(x, t) for x in vec]) for t in self.real]
        for z in self.complex:
            vals = [ev(x, z) for x in vec]
            out.append(np.array([p for v in vals for p in (v.real, v.imag)]))
        return out

    def gauge(self, vec, shapes) -> float:
        """Max over places of the place gauge; shapes as from `polar_shapes` or
        `corpus.place_shapes`."""
        g = 0.0
        for block, (shape, params) in zip(self.places(vec), shapes):
            p = np.array([float(x) for x in params])
            if shape == "ball":
                val = float(np.linalg.norm(block)) / p[0]
            elif shape == "box":
                val = float(np.max(np.abs(block) / p))
            else:  # cross
                val = float(np.sum(np.abs(block) / p))
            g = max(g, val)
        return g


def polar_shapes(shapes, signature):
    """Polar bodies: balls of radius 1/(c r) with c = 2 at complex places,
    boxes become cross-polytopes with scales 1/h."""
    r, _ = signature
    out = []
    for i, (shape, params) in enumerate(shapes):
        c = 1 if i < r else 2
        if shape == "ball":
            out.append(("ball", (Fraction(1) / (c * params[0]),)))
        else:
            out.append(("cross", tuple(Fraction(1) / h for h in params)))
    return out


def _columns(matrix):
    n = len(matrix)
    return [[[Fraction(c) for c in matrix[i][j]] for i in range(n)] for j in range(n)]


def _pairing_unimodular(field: Field, zb, zdual) -> bool:
    gram = [[field.pairing(u, v) for v in zdual] for u in zb]
    return all(x.denominator == 1 for row in gram for x in row) and abs(det(gram)) == 1


def check_transference(case, report, oracle: Oracle, ref) -> str | None:
    slot = case.slot
    if not report.passed:
        return "a transference verdict is not pass"
    f = oracle.field
    zb = f.zbasis(_columns(case.matrix))
    shapes = corpus.place_shapes(slot, case.scale)
    star_shapes = polar_shapes(shapes, corpus.FIELDS[slot.field][3])
    for side, rep, body, scale in (("S", report.report_s, shapes, 1 / case.scale),
                                   ("S*", report.report_sstar, star_shapes, case.scale)):
        wit = [[list(x.coords) for x in w] for w in rep.witnesses]
        if len(wit) != slot.n or len(rep.minima) != slot.n:
            return f"{side}: expected {slot.n} minima"
        for w, lam in zip(wit, rep.minima):
            if not any(c for x in w for c in x):
                return f"{side}: zero witness"
            if side == "S" and not in_lattice(zb, w):
                return "S: witness outside the module"
            if side == "S*" and any(f.pairing(w, z).denominator != 1 for z in zb):
                return "S*: witness outside the dual module"
            if not close(oracle.gauge(w, body), lam):
                return f"{side}: witness gauge differs from its minimum"
        if not k_independent(f, wit):
            return f"{side}: witnesses are K-dependent"
        want = ref["minima"] if side == "S" else ref["minima_star"]
        if want is not None:
            if not all(close(m, float(scale) * w) for m, w in zip(rep.minima, want)):
                return f"{side}: minima differ from the reference"
    return None


def check_covering(case, report, oracle: Oracle, ref, committed: bool) -> str | None:
    lo, hi = report.mu_bracket
    s = float(case.scale)
    if not 0 < lo <= hi:
        return "bracket is not ordered"
    plo, phi = report.product_bracket
    if not (close(plo, report.lambda1 * lo, 1e-12) and close(phi, report.lambda1 * hi, 1e-12)):
        return "product bracket is not lambda1 times the bracket"
    if not close(report.lambda1, ref["lambda1"] / s):
        return "lambda1 differs from the reference"
    rlo, rhi = ref["mu"][0] * s, ref["mu"][1] * s
    if lo > rhi * (1 + REL) or hi < rlo * (1 - REL):
        return "bracket misses the reference bracket"
    # the grid follows the LLL-reduced basis, which depends on the presentation,
    # so the width is pinned only for the presentation the reference was made from
    if committed and hi - lo > (rhi - rlo) * (1 + 1e-6):
        return "bracket is wider than the reference bracket"
    return None


_PSEUDO = re.compile(r"^polar dual_pseudo i=(\d+) ideal=\[([^\]]*)\] vector=\[([^\]]*)\]$")


def _elements(text):
    return [[Fraction(c) for c in e.split(",")] for e in text.split(";")]


def check_cli(case, code, stdout, oracle: Oracle, ref) -> str | None:
    slot = case.slot
    if ref is not None:
        if code != ref["code"] or stdout != ref["stdout"]:
            return "output differs from the stored reference"
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if slot.command == "verify-duality":
        return None if lines == [f"duality rank={slot.n} equal=true"] else \
            "unexpected verify-duality output"
    f = oracle.field
    shapes = corpus.place_shapes(slot, case.scale)
    star = polar_shapes(shapes, corpus.FIELDS[slot.field][3])
    want_places = []
    for i, (shape, params) in enumerate(star, start=1):
        key = "radius" if shape == "ball" else "scales"
        want_places.append(f"polar place={i} shape={shape} {key}="
                           + ",".join(str(p) for p in params))
    n = slot.n
    if (len(lines) != n + len(star) + 2 or lines[0] != "polar conjugated=true"
            or lines[n + 1:-1] != want_places or lines[-1] != "polar biduality=pass"):
        return "unexpected polar output"
    zdual = []
    for i, line in enumerate(lines[1:n + 1], start=1):
        m = _PSEUDO.match(line)
        if m is None or int(m.group(1)) != i:
            return "unreadable dual pseudo-basis line"
        ideal, vec = _elements(m.group(2)), _elements(m.group(3))
        zdual += [[f.mul(beta, x) for x in vec] for beta in ideal]
    if not _pairing_unimodular(f, f.zbasis(_columns(case.matrix)), zdual):
        return "dual pseudo-basis is not the trace dual of the module"
    return None
