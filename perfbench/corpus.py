"""Seeded corpus generation: plain data only (integers and Fractions).

Every case rests on a fixed slot: a field, a module generated by a
fixed matrix and a body shape.  The workload seed chooses, per case, a
different generator matrix of the same module (random column operations
over the ring, keeping every coordinate in [-3, 3]) and the body scale.
So the program redoes all exact and lattice work from a new
presentation on every seed, while the lattice itself, and with it the
enumeration volume, the minima (up to the scale) and the covering
bracket, is the same.  That keeps the cost of a case from jumping by the
2^nd factor that the level doubling in the minima search puts on random
lattices, and it lets the stored reference check every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from exact import Field, det, flatten



def _power_basis(d: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


# name -> (poly ascending, integral basis rows over the power basis, cm asserted,
#          signature (real places, complex places))
FIELDS = {
    "Q": ([-1, 1], [[1]], False, (1, 0)),
    "Q_sqrt2": ([-2, 0, 1], [[1, 0], [0, 1]], False, (2, 0)),
    "Q_sqrt5": ([-5, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]], False, (2, 0)),
    "Q_i": ([1, 0, 1], [[1, 0], [0, 1]], False, (0, 1)),
    "Q_sqrt-3": ([3, 0, 1], [[1, 0], [Fraction(1, 2), Fraction(1, 2)]], False, (0, 1)),
    "x3-x-1": ([-1, -1, 0, 1], _power_basis(3), False, (1, 1)),
    "x3-3x-1": ([-1, -3, 0, 1], _power_basis(3), False, (3, 0)),
    "x4+1": ([1, 0, 0, 0, 1], _power_basis(4), True, (0, 2)),
    "x4-x-1": ([-1, -1, 0, 0, 1], _power_basis(4), False, (2, 1)),
    "x4-x2+1": ([1, 0, -1, 0, 1], _power_basis(4), True, (0, 2)),
    "x5-x-1": ([-1, -1, 0, 0, 0, 1], _power_basis(5), False, (1, 2)),
    "x6+x3+1": ([1, 0, 0, 1, 0, 0, 1], _power_basis(6), True, (0, 3)),
}

SCALES = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1), Fraction(5, 4),
          Fraction(3, 2), Fraction(2)]


def exact_field(name: str) -> Field:
    poly, basis, _, _ = FIELDS[name]
    return Field(poly, basis)


def slot_matrix(name: str, n: int, slot_key: str) -> list[list[list[int]]]:
    """The fixed generator matrix of a slot: coordinates in [-3, 3], nonsingular."""
    f = exact_field(name)
    rng = random.Random(slot_key)
    while True:
        a = [[[rng.randint(-3, 3) for _ in range(f.d)] for _ in range(n)] for _ in range(n)]
        cols = [[a[i][j] for i in range(n)] for j in range(n)]
        if det([flatten(z) for z in f.zbasis(cols)]) != 0:
            return a


def represent(name: str, a, rng: random.Random, steps: int = 60):
    """Another generator matrix of the module a * O^n.

    Applies random unimodular column operations (col_j += c * col_i with
    c in {+-1, +-theta}, swaps and sign changes), skipping any that would
    push a coordinate outside [-3, 3].
    """
    f = exact_field(name)
    n = len(a)
    cols = [[list(a[i][j]) for i in range(n)] for j in range(n)]
    theta = [0, 1] + [0] * (f.d - 2) if f.d > 1 else [1]
    mults = [[1] + [0] * (f.d - 1), [-1] + [0] * (f.d - 1), theta, [-x for x in theta]]
    for _ in range(steps):
        kind = rng.random()
        i, j = rng.randrange(n), rng.randrange(n)
        if kind < 0.15:
            cols[i], cols[j] = cols[j], cols[i]
        elif kind < 0.25:
            cols[i] = [[-x for x in e] for e in cols[i]]
        elif i != j:
            c = rng.choice(mults)
            new = [[int(x + y) for x, y in zip(e, f.mul(c, g))]
                   for e, g in zip(cols[j], cols[i])]
            if all(-3 <= x <= 3 for e in new for x in e):
                cols[j] = new
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# slots


@dataclass(frozen=True)
class Slot:
    field: str
    n: int
    tag: str                       # names the fixed module of the slot
    body: str = "ball"             # "ball", or "box": halfwidths (1, .., 1, ratio) at real places
    ratio: int = 1
    resolution: int | None = None  # covering grid; None keeps the program's default
    command: str | None = None     # CLI subcommand

    @property
    def key(self) -> str:
        return f"{self.field}/{self.n}/{self.tag}"

    @property
    def name(self) -> str:
        """Unique within a workload, e.g. x3-x-1/2/a/box30 or Q/4/a/ball/r8."""
        s = f"{self.key}/{self.body}" + (str(self.ratio) if self.body == "box" else "")
        if self.resolution is not None:
            s += f"/r{self.resolution}"
        return s + (f"/{self.command}" if self.command is not None else "")


def _t(field, n, tag, body="ball", ratio=1):
    return Slot(field, n, tag, body, ratio)


def _c(field, n, tag, resolution, body="ball", ratio=1):
    return Slot(field, n, tag, body, ratio, resolution)


# nd = n * degree runs from 4 to 9; the ratio 30 boxes stress the isotropic
# bounding ball that the enumeration uses for every body.
TRANSFERENCE_SLOTS = [
    _t("Q", 4, "a"), _t("Q", 4, "b"), _t("Q", 4, "c"), _t("Q_sqrt2", 2, "a"),
    _t("Q_sqrt2", 2, "b"), _t("Q_sqrt2", 2, "c"), _t("Q_sqrt5", 2, "a"), _t("Q_sqrt5", 2, "b"),
    _t("Q_i", 2, "a"), _t("Q_i", 2, "b"), _t("Q_i", 2, "c"), _t("Q_sqrt-3", 2, "a"),
    _t("Q_sqrt-3", 2, "b"), _t("x4+1", 1, "a"), _t("x4+1", 1, "b"),
    _t("Q", 5, "a"), _t("Q", 5, "b"), _t("Q", 5, "c"),
    _t("Q", 6, "a"), _t("Q_sqrt2", 3, "a"), _t("Q_sqrt5", 3, "a"), _t("Q_sqrt5", 3, "b"),
    _t("Q_i", 3, "a"), _t("Q_i", 3, "b"), _t("Q_sqrt-3", 3, "a"), _t("Q_sqrt-3", 3, "b"),
    _t("x3-x-1", 2, "a"), _t("x3-x-1", 2, "b"), _t("x3-x-1", 2, "c"),
    _t("Q", 7, "a"),
    _t("Q", 8, "a"), _t("Q_sqrt2", 4, "a"), _t("Q_sqrt5", 4, "a"), _t("x4+1", 2, "a"),
    _t("Q", 9, "a"), _t("Q_sqrt2", 3, "b"), _t("Q_sqrt-3", 3, "c"),
    _t("Q_sqrt2", 2, "a", "box", 3), _t("Q_sqrt2", 2, "a", "box", 10),
    _t("x3-x-1", 2, "a", "box", 10), _t("x3-x-1", 2, "a", "box", 30),
]

# nd from 2 to 4 at a fixed grid resolution per slot; the last slot asks for
# the default resolution, which the grid refuses for nd = 4.
COVERING_SLOTS = [
    _c("Q_sqrt2", 1, "a", 64), _c("Q_sqrt2", 1, "b", 128), _c("Q_sqrt2", 1, "c", 128),
    _c("Q_sqrt5", 1, "a", 64), _c("Q_sqrt5", 1, "b", 128), _c("Q_sqrt5", 1, "c", 64),
    _c("Q_i", 1, "a", 64), _c("Q_i", 1, "b", 128), _c("Q_i", 1, "c", 128),
    _c("Q_sqrt-3", 1, "a", 64), _c("Q_sqrt-3", 1, "b", 128), _c("Q_sqrt-3", 1, "c", 64),
    _c("Q", 2, "a", 64), _c("Q", 2, "b", 128), _c("Q", 2, "c", 128, "box", 3),
    _c("Q", 2, "d", 64, "box", 10), _c("Q", 2, "e", 128),
    _c("x3-x-1", 1, "a", 16), _c("x3-x-1", 1, "b", 8), _c("x3-x-1", 1, "c", 12),
    _c("x3-3x-1", 1, "a", 16), _c("x3-3x-1", 1, "b", 12), _c("x3-3x-1", 1, "c", 8),
    _c("x3-3x-1", 1, "d", 16),
    _c("Q", 3, "a", 16), _c("Q", 3, "b", 8, "box", 3), _c("Q", 3, "c", 12),
    _c("Q", 3, "d", 16, "box", 3), _c("Q", 3, "e", 16),
    _c("x4+1", 1, "a", 4), _c("x4+1", 1, "b", 4), _c("x4-x-1", 1, "a", 4),
    _c("x4-x-1", 1, "b", 4), _c("x4-x2+1", 1, "a", 4),
    _c("Q_sqrt2", 2, "a", 4), _c("Q_sqrt2", 2, "b", 6), _c("Q_sqrt2", 2, "a", 8),
    _c("Q", 4, "a", 8), _c("Q", 4, "a", 4, "box", 3),
    _c("Q_sqrt2", 2, "a", None),
]

# degree 3 to 6, rank 2 to 4, nd from 6 to 16; each scenario runs under both commands
CLI_SCENARIOS = [
    _t("x3-x-1", 2, "a"), _t("x3-x-1", 2, "b", "box", 3), _t("x3-x-1", 2, "c"),
    _t("x3-3x-1", 2, "a"), _t("x3-3x-1", 2, "b", "box", 5), _t("x3-x-1", 3, "a"),
    _t("x3-3x-1", 3, "a"), _t("x3-3x-1", 3, "b", "box", 3),
    _t("x4+1", 2, "a"), _t("x4-x-1", 2, "a"), _t("x4-x-1", 2, "b", "box", 3),
    _t("x4-x-1", 2, "c"), _t("x4-x2+1", 2, "a"), _t("x5-x-1", 2, "a"),
    _t("x3-x-1", 4, "a"), _t("x3-3x-1", 4, "a"), _t("x6+x3+1", 2, "a"), _t("x4+1", 3, "a"),
    _t("x4-x2+1", 3, "a"), _t("x5-x-1", 3, "a"), _t("x4+1", 4, "a"),
]
CLI_COMMANDS = ("polar", "verify-duality")

WORKLOAD_SLOTS = {
    "transference": TRANSFERENCE_SLOTS,
    "covering": COVERING_SLOTS,
    "cli_duality": [Slot(s.field, s.n, s.tag, s.body, s.ratio, None, cmd)
                    for s in CLI_SCENARIOS for cmd in CLI_COMMANDS],
}


@dataclass
class Case:
    index: int
    slot: Slot
    matrix: list          # n x n entries, each a list of power-basis coordinates
    scale: Fraction       # every body parameter is scaled by it


def make_pass(workload: str, seed: int) -> list[Case]:
    """One pass of the workload: a case per slot, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    presented: dict[str, tuple] = {}
    for i, slot in enumerate(WORKLOAD_SLOTS[workload]):
        # both commands of the CLI workload read the same scenario
        if slot.command is not None and slot.key + slot.body in presented:
            matrix, scale = presented[slot.key + slot.body]
        else:
            matrix = represent(slot.field, slot_matrix(slot.field, slot.n, slot.key), rng)
            scale = rng.choice(SCALES)
            presented[slot.key + slot.body] = (matrix, scale)
        cases.append(Case(i, slot, matrix, scale))
    return cases


def place_shapes(slot: Slot, scale: Fraction) -> list[tuple[str, tuple]]:
    """(shape, parameters) per archimedean place, real places first."""
    r, s = FIELDS[slot.field][3]
    if slot.body == "box":
        real = ("box", tuple([scale] * (slot.n - 1) + [scale * slot.ratio]))
    else:
        real = ("ball", (scale,))
    return [real] * r + [("ball", (scale,))] * s


def scenario_text(case: Case) -> str:
    slot = case.slot
    poly, basis, cm, _ = FIELDS[slot.field]
    fmt_row = lambda row: "; ".join(str(x) for x in row)
    lines = ["[field]", "poly = " + ", ".join(str(c) for c in poly),
             "basis = [[" + "], [".join(fmt_row(r) for r in basis) + "]]"]
    if cm:
        lines.append("cm = true")
    lines += ["", "[module]", f"rank = {slot.n}",
              "matrix = [[" + "], [".join("; ".join(",".join(str(c) for c in e) for e in row)
                                          for row in case.matrix) + "]]"]
    for i, (shape, params) in enumerate(place_shapes(slot, case.scale), start=1):
        key = "radius" if shape == "ball" else "halfwidths"
        lines += ["", f"[body.v{i}]", f"shape = {shape}",
                  f"{key} = " + ", ".join(str(p) for p in params)]
    return "\n".join(lines) + "\n"
