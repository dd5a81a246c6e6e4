"""Finite patches of the three regular plane tilings and periodic labelings.

Torus patches stand in for the infinite tilings: a periodic labeling that is
valid on a full-period torus wraps consistently, so boundary effects cannot
hide violations.  Open patches serve only as balls of the infinite graph.

Lattice realizations (vertex (x, y), id = y*width + x):

* square      -- edges to (x+1, y) and (x, y+1); 4-regular on the torus.
* hexagonal   -- brick wall: horizontal edges everywhere, vertical edge at
                 (x, y)-(x, y+1) when x+y is even; 3-regular on the torus
                 (height must be even).
* triangular  -- edges to (x+1, y), (x, y+1) and (x+1, y+1); 6-regular on
                 the torus.

``find_pattern`` returns one built-in periodic labeling per lattice at the
4/(degree+3) lower bound (4/7, 2/3, 4/9), checked on its minimal torus.  A
pattern's period is the number of its labels.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import record
from .errors import BadSpecError, IncompatibleTorusError
from .families import FamilySpec, density, density_lower_bound, gamma_formula
from .graph import Graph, ball, max_degree
from .labeling import LABELS, Labeling, validate
from .limits import LATTICE_KINDS

LATTICE_DEGREE = {"square": 4, "hexagonal": 3, "triangular": 6}


@record
class PatchSpec:
    kind: str
    width: int
    height: int
    wrap: str = "open"

    def __post_init__(self):
        if self.kind not in LATTICE_KINDS:
            raise BadSpecError(f"unknown tiling kind: {self.kind!r}")
        if self.width < 1 or self.height < 1:
            raise BadSpecError("patch dimensions must be >= 1")
        if self.wrap not in ("open", "torus"):
            raise BadSpecError(f"wrap must be 'open' or 'torus', got {self.wrap!r}")
        if self.wrap == "torus":
            if self.width < 3 or self.height < 2:
                raise IncompatibleTorusError(
                    "torus needs width >= 3 and height >= 2 to stay simple")
            if self.kind != "hexagonal" and self.height < 3:
                raise IncompatibleTorusError(
                    f"{self.kind} torus needs height >= 3 to stay simple")
            if self.kind == "hexagonal" and self.height % 2:
                raise IncompatibleTorusError(
                    "hexagonal torus needs an even height")


@record
class Patch:
    """A lattice patch together with its coordinate layout."""

    spec: PatchSpec
    graph: Graph

    def vertex_id(self, x: int, y: int) -> int:
        return y * self.spec.width + x

    def coords(self, v: int) -> tuple[int, int]:
        return v % self.spec.width, v // self.spec.width


# The brick wall takes the square steps, but its vertical step only where
# x + y is even.
_NEIGHBOR_STEPS = {
    "square": ((1, 0), (0, 1)),
    "hexagonal": ((1, 0), (0, 1)),
    "triangular": ((1, 0), (0, 1), (1, 1)),
}


def generate_patch(spec: PatchSpec) -> Patch:
    w, h = spec.width, spec.height
    torus = spec.wrap == "torus"
    brick = spec.kind == "hexagonal"
    edges = []
    for y in range(h):
        for x in range(w):
            for dx, dy in _NEIGHBOR_STEPS[spec.kind]:
                if brick and dy and (x + y) % 2:
                    continue
                nx, ny = x + dx, y + dy
                if torus:
                    nx, ny = nx % w, ny % h
                elif nx >= w or ny >= h:
                    continue
                edges.append((y * w + x, ny * w + nx))
    # ``PatchSpec`` keeps a torus wide and high enough that no wrap edge is a loop.
    return Patch(spec, Graph(w * h, edges))


@record
class TilingPattern:
    """Periodic labeling: label_at(x, y) = labels[(ax*x + ay*y) mod m], where
    the period m is the number of labels.

    A w x h torus is compatible when w*ax and h*ay are multiples of m.
    """

    kind: str
    x_coeff: int
    y_coeff: int
    labels: tuple[int, ...]

    def __post_init__(self):
        if any(lab not in LABELS for lab in self.labels):
            raise BadSpecError("pattern labels must be in {0, 1, 2}")

    def label_at(self, x: int, y: int) -> int:
        return self.labels[(self.x_coeff * x + self.y_coeff * y) % len(self.labels)]

    @property
    def declared_density(self) -> Fraction:
        """The average label over the residue classes realized on the
        lattice, which cover a compatible torus uniformly."""
        realized = _realized_residues(self)
        return Fraction(sum(self.labels[r] for r in realized), len(realized))


def pattern_labeling(pattern: TilingPattern, patch: Patch) -> Labeling:
    """Apply the pattern to a compatible torus patch."""
    spec = patch.spec
    if spec.wrap != "torus":
        raise IncompatibleTorusError("patterns apply to torus patches only")
    if spec.kind != pattern.kind:
        raise BadSpecError(f"pattern is for {pattern.kind}, patch is {spec.kind}")
    m = len(pattern.labels)
    if (spec.width * pattern.x_coeff) % m or (spec.height * pattern.y_coeff) % m:
        raise IncompatibleTorusError(
            f"{spec.width}x{spec.height} torus does not wrap the pattern period")
    labels = [0] * (spec.width * spec.height)
    for y in range(spec.height):
        for x in range(spec.width):
            labels[y * spec.width + x] = pattern.label_at(x, y)
    return Labeling(patch.graph, tuple(labels))


# (x_coeff, y_coeff, labels); two 2s among the deg+3 residues
_PATTERNS = {
    "square": (1, 2, (2, 0, 0, 2, 0, 0, 0)),
    "hexagonal": (2, 2, (0, 0, 0, 2, 2, 0)),
    "triangular": (1, 1, (0, 0, 0, 0, 2, 0, 0, 0, 2)),
}


def find_pattern(kind: str) -> TilingPattern:
    """The built-in periodic labeling of the lattice, checked on its minimal
    (period x period) torus: it must be valid at attack 2 and meet the
    4/(degree+3) target density, or BadSpecError is raised."""
    if kind not in LATTICE_KINDS:
        raise BadSpecError(f"unknown tiling kind: {kind!r}")
    pattern = TilingPattern(kind, *_PATTERNS[kind])
    m = len(pattern.labels)
    patch = generate_patch(PatchSpec(kind, m, m, "torus"))
    labeling = pattern_labeling(pattern, patch)
    target = density_lower_bound(LATTICE_DEGREE[kind])
    if Fraction(labeling.weight, patch.graph.order) != target or not validate(labeling, 2).valid:
        raise BadSpecError(f"built-in {kind} pattern is not a valid 4/(deg+3) labeling")
    return pattern


@record
class PatternReport:
    width: int
    height: int
    valid: bool
    density: Fraction
    weight: int
    order: int
    witness: tuple[int, ...] | None = None


def verify_pattern(pattern: TilingPattern, sizes) -> list[PatternReport]:
    """Validate the pattern on each torus size and report exact densities.

    Validity is size-independent: the attack-2 conditions only inspect a
    2-neighborhood, every vertex's 2-neighborhood on a compatible torus is a
    translate of one on the single-period torus, and the labeling commutes
    with those translates.  Checking two sizes per kind in the test suite
    exercises that argument empirically.
    """
    reports = []
    for w, h in sizes:
        patch = generate_patch(PatchSpec(pattern.kind, w, h, "torus"))
        labeling = pattern_labeling(pattern, patch)
        report = validate(labeling, 2)
        reports.append(PatternReport(w, h, report.valid,
                                     Fraction(labeling.weight, patch.graph.order),
                                     labeling.weight, patch.graph.order, report.witness))
    return reports


def pattern_table(pattern: TilingPattern) -> str:
    """Residue-class table, one line per realized residue: 'dx dy label'.

    Unrealized classes carry no cells and are omitted, so the table's label
    average is the pattern's ``declared_density``.
    """
    lines = []
    for r, (dx, dy) in sorted(_realized_residues(pattern).items()):
        lines.append(f"{dx} {dy} {pattern.labels[r]}")
    return "\n".join(lines) + "\n"


def _realized_residues(pattern: TilingPattern) -> dict[int, tuple[int, int]]:
    """Each residue class some lattice cell takes, with its first cell
    (dx, dy) in row-major order over one m x m period, m the number of labels.

    Coefficients sharing a factor with m realize only a subgroup
    coset of the residues.
    """
    seen: dict[int, tuple[int, int]] = {}
    m = len(pattern.labels)
    for dy in range(m):
        for dx in range(m):
            r = (pattern.x_coeff * dx + pattern.y_coeff * dy) % m
            seen.setdefault(r, (dx, dy))
    return seen


# ---------------------------------------------------------------------------
# balls of the infinite lattices
# ---------------------------------------------------------------------------


def _lattice_ball(kind: str, radius: int) -> tuple[Graph, list[tuple[int, int]]]:
    """Ball of the infinite lattice as a graph plus per-vertex coordinates.

    A (2r+1)-wide open patch suffices: every step changes each coordinate by
    at most 1, so shortest paths from the center stay inside the patch and
    patch distances equal infinite-lattice distances.
    """
    if radius < 0:
        raise BadSpecError("radius must be >= 0")
    side = 2 * radius + 1
    patch = generate_patch(PatchSpec(kind, side, side, "open"))
    center = patch.vertex_id(radius, radius)
    sub = ball(patch.graph, center, radius)
    coords = [patch.coords(ext) for ext in sub.external_ids]
    return sub, coords


def ball_graph(kind: str, radius: int) -> Graph:
    """Induced subgraph on the lattice vertices within the given radius."""
    return _lattice_ball(kind, radius)[0]


def ball_density_sequence(kind: str, radii) -> list[tuple[int, Fraction]]:
    """Exact ball densities around a canonical center vertex.

    For the path the ball of radius n is a path on 2n+1 vertices, whose
    number is ``families.gamma_formula`` of that path (cross-checked against
    the solver in the test suite).  Lattice balls go through
    ``families.density``, which has no order limit.
    """
    out = []
    for radius in radii:
        if radius < 0:
            raise BadSpecError("radius must be >= 0")
        if kind == "path":
            n = 2 * radius + 1
            out.append((radius, Fraction(gamma_formula(FamilySpec("path", (n,))), n)))
            continue
        out.append((radius, density(ball_graph(kind, radius))))
    return out


def ball_density_bounds(kind: str, radii) -> list[tuple[int, Fraction, Fraction]]:
    """(radius, lower, upper) density bounds for lattice balls of any size.

    Lower bound: ``density_lower_bound`` of the ball's max degree.  Upper
    bound: the built-in periodic pattern restricted to the ball, repaired to
    validity by raising offending 0s to 1, or the all-1 labeling when that is
    lighter; both are achievable, hence upper bounds.
    """
    pattern = find_pattern(kind)
    out = []
    for radius in radii:
        sub, coords = _lattice_ball(kind, radius)
        labels = [pattern.label_at(x, y) for (x, y) in coords]
        labeling = Labeling(sub, tuple(labels))
        while True:
            report = validate(labeling, 2)
            if report.valid:
                break
            bump = min(v for v in report.witness if labeling.labels[v] == 0)
            labels[bump] = 1
            labeling = Labeling(sub, tuple(labels))
        lower = density_lower_bound(max_degree(sub))
        upper = min(Fraction(labeling.weight, sub.order), Fraction(1))
        out.append((radius, lower, upper))
    return out
