"""End-to-end construction and verification of the bundled non-rigidity
example.

The scenario: a graded affine algebra R is presented by generic matrices X
(2x4, entries of weight 2) and Y (4x8, entries of weight 3), the relations
being the entries of XY, all 3x3 minors of Y, and one relation g - f*u per
adjoined degree-2 generator u (f a fixed 2x2 minor of X, g a 2x2 minor of Y
in its first two rows, one per column pair).  A 3-dimensional square-zero
local algebra S = K[s, t]/(s^2, st, t^2) receives R through the assignment
that sends the generic entries to the displayed radical matrices

    Xbar = [s 0 t 0]      Ybar = [s.I4 | t.I4]
           [0 s 0 t]

and every u to 0; the assignment is a ring homomorphism because every
relation lies in the square of the generator ideal and rad(S)^2 = 0.  The
module N = S^2/((t,0), (0,s), (s,t))S has length 3, and the homology of
0 -> N^2 -> N^4 -> N^8 gives the Tor table (16, 0, 2): vanishing in degree 1
with non-vanishing in degree 2, which is the non-rigidity witness.

Every finitely checkable claim in that story is run here as a named check;
facts consumed from the literature (exactness of the symbolic complex over
the determinantal base ring, completeness of the relation list) are reported
as cited inputs rather than silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebras import ArtinAlgebra, FDModule, free_module, monomial_square_zero_algebra
from .complexes import (
    AlgebraMatrix,
    NotAComplexError,
    image_equals_radical_power,
    tor_from_resolution,
)
from .linalg import same_span
from .poly import PolyMatrix, VarTable, WeightedPoly

EXPECTED_TOR = (16, 0, 2)
# forced weighted degree of each derived polynomial class, in check order
EXPECTED_DEGREES = {"xy_entries": 5, "minors3": 9, "f": 4, "g": 6, "u_relations": 6}
# the classes that are relation generators of R, in report order
RELATION_CLASSES = ("xy_entries", "minors3", "u_relations")
EXPECTED_BETTI = (8, 4, 2)

CITED_NOT_VERIFIED = (
    "exactness of the symbolic complex 0 -> R^2 -> R^4 -> R^8 over the "
    "determinantal base ring K((2,4,8),(2,2)) (Bruns, Math. Ann. 264 (1983), "
    "53-71): consumed as a cited input, not recomputed",
    "completeness of the listed relation generators for the full defining "
    "ideal of R, and with it minimality of the presentation behind linear "
    "independence of the generators in P/P^2: only the listed generators "
    "are checked to lie in P^2",
)

NOT_CONSTRUCTED = (
    "a <9 3 1> Betti-pattern variant with a length-4 module: no defining "
    "data is available to mechanize, so it is not built",
    "<b b 1> Betti-pattern examples: out of scope, none attempted",
)


@dataclass(frozen=True)
class GenericComplexData:
    """The symbolic side: variables, matrices and relation generators."""

    table: VarTable
    x: PolyMatrix
    y: PolyMatrix
    xy_entries: tuple  # ((i, j) 1-based, poly), row-major, 16 of them
    minors3: tuple  # ((rows, cols) 1-based, poly), 224 of them
    f: WeightedPoly
    g: tuple  # ((c1, c2) 1-based, poly), 28 of them, lexicographic
    u_relations: tuple  # ((c1, c2) 1-based, g - f*u), 28 of them

    def labelled_classes(self):
        """Every derived polynomial class as a list of (label, poly), keyed by
        class name, in report order."""
        return {
            "xy_entries": [("xy[%d,%d]" % pos, p) for pos, p in self.xy_entries],
            "minors3": [
                ("minor3[%s|%s]" % (",".join(map(str, rs)), ",".join(map(str, cs))), p)
                for (rs, cs), p in self.minors3
            ],
            "f": [("f", self.f)],
            "g": [("g[%d,%d]" % pair, p) for pair, p in self.g],
            "u_relations": [("u_rel[%d,%d]" % pair, p) for pair, p in self.u_relations],
        }

    def relation_generators(self):
        """All 268 listed relations as (label, poly), in report order."""
        classes = self.labelled_classes()
        return [item for name in RELATION_CLASSES for item in classes[name]]


@dataclass(frozen=True)
class SpecializationData:
    """The specialized side: S, the assignment, the displayed matrices, N."""

    algebra: ArtinAlgebra
    assignment: dict
    xbar: AlgebraMatrix
    ybar: AlgebraMatrix
    module: FDModule


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict


@dataclass(frozen=True)
class VerificationReport:
    field_label: str
    checks: tuple
    tor: dict  # homological degree -> length; empty if the complex check failed
    betti: tuple
    lengths: dict
    cited_not_verified: tuple = CITED_NOT_VERIFIED
    not_constructed: tuple = NOT_CONSTRUCTED

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self):
        for c in self.checks:
            if not c.passed:
                return c.name
        return None

    def to_dict(self) -> dict:
        return {
            "field": self.field_label,
            "overall_pass": self.overall_pass,
            "first_failure": self.first_failure,
            "tor": {str(k): v for k, v in sorted(self.tor.items())},
            "betti": list(self.betti),
            "lengths": dict(sorted(self.lengths.items())),
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
            "cited_not_verified": list(self.cited_not_verified),
            "not_constructed": list(self.not_constructed),
        }


# -- construction -------------------------------------------------------------


def assemble_generic_data(table, x, y) -> GenericComplexData:
    """Derive products, minors and relations from given X and Y; extends the
    table with one weight-2 u-variable per column pair of Y."""
    xy = x @ y
    xy_entries = tuple(
        ((i + 1, j + 1), xy.entry(i, j)) for i in range(xy.nrows) for j in range(xy.ncols)
    )
    minors3 = tuple(
        ((tuple(r + 1 for r in rows), tuple(c + 1 for c in cols)), p)
        for rows, cols, p in y.all_minors(3)
    )
    f = x.minor([0, 1], [2, 3])
    g = []
    u_relations = []
    for c1, c2 in combinations(range(y.ncols), 2):
        pair = (c1 + 1, c2 + 1)
        g_poly = y.minor([0, 1], [c1, c2])
        g.append((pair, g_poly))
        u_idx = table.add_var("u%d%d" % pair, 2)
        u_relations.append((pair, g_poly - f * WeightedPoly.variable(table, u_idx)))
    return GenericComplexData(
        table=table,
        x=x,
        y=y,
        xy_entries=xy_entries,
        minors3=minors3,
        f=f,
        g=tuple(g),
        u_relations=tuple(u_relations),
    )


def build_generic_data(field) -> GenericComplexData:
    """Generic X (2x4, weight 2) and Y (4x8, weight 3) plus everything derived."""
    table = VarTable(field)
    x = PolyMatrix.generic(table, "x", 2, 4, 2)
    y = PolyMatrix.generic(table, "y", 4, 8, 3)
    return assemble_generic_data(table, x, y)


def displayed_matrices(algebra):
    """The specialized images of X and Y: Xbar = [[s,0,t,0],[0,s,0,t]] and
    Ybar = the 4x8 block matrix [s.I | t.I]."""
    s, t, zero = algebra.generator("s"), algebra.generator("t"), algebra.zero()
    xbar = AlgebraMatrix(
        algebra,
        [[s if j == i else (t if j == i + 2 else zero) for j in range(4)] for i in range(2)],
    )
    ybar = AlgebraMatrix(
        algebra,
        [[s if j == i else (t if j == i + 4 else zero) for j in range(8)] for i in range(4)],
    )
    return xbar, ybar


def build_specialization(field, u_image=None) -> SpecializationData:
    """S, the displayed matrices, the generator assignment, and N.

    ``u_image`` optionally maps the algebra to the common image of every
    u-variable (default: zero).  Any radical element keeps the assignment a
    homomorphism, which the battery re-checks rather than assuming.
    """
    S = monomial_square_zero_algebra(field, ["s", "t"])
    xbar, ybar = displayed_matrices(S)
    u_value = S.zero() if u_image is None else u_image(S)
    assignment = {}
    for i in range(2):
        for j in range(4):
            assignment["x%d%d" % (i + 1, j + 1)] = xbar.entry(i, j)
    for i in range(4):
        for j in range(8):
            assignment["y%d%d" % (i + 1, j + 1)] = ybar.entry(i, j)
    for c1, c2 in combinations(range(1, 9), 2):
        assignment["u%d%d" % (c1, c2)] = u_value
    F = free_module(S, 2)
    # relations (t,0), (0,s), (s,t) in coordinates over the basis (1,s,t|1,s,t)
    W = F.submodule_generated(
        [(0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1)]
    )
    N, _ = F.quotient_module(W)
    return SpecializationData(algebra=S, assignment=assignment, xbar=xbar, ybar=ybar, module=N)


# -- individual checks -----------------------------------------------------------


def check_counts(data: GenericComplexData) -> CheckResult:
    counts = {
        "xy_entries": len(data.xy_entries),
        "minors3": len(data.minors3),
        "g": len(data.g),
        "u_relations": len(data.u_relations),
    }
    expected = {"xy_entries": 16, "minors3": 224, "g": 28, "u_relations": 28}
    return CheckResult(
        "generator_counts", counts == expected, {"counts": counts, "expected": expected}
    )


def check_grading(data: GenericComplexData) -> CheckResult:
    """Every derived polynomial is homogeneous of its forced weighted degree."""
    classes = data.labelled_classes()
    degrees = dict(EXPECTED_DEGREES)
    for name, expected in EXPECTED_DEGREES.items():
        for label, p in classes[name]:
            if p.weighted_degree() != ("homogeneous", expected):
                return CheckResult("grading", False, {"degrees": degrees, "offender": label})
    return CheckResult("grading", True, {"degrees": degrees})


def check_psquare(data: GenericComplexData) -> CheckResult:
    """Every listed relation generator has >= 2 variable factors in each term
    and weighted degree >= 4, so the generators stay independent modulo P^2."""
    min_degree = {}
    min_factors = {}
    offender = None
    classes = data.labelled_classes()
    for class_name in RELATION_CLASSES:
        degrees = []
        factors = []
        for _, p in classes[class_name]:
            kind, d = p.weighted_degree()
            degrees.append(d if d is not None else -1)
            factors.append(p.min_factor_count() if not p.is_zero() else 0)
        min_degree[class_name] = min(degrees)
        min_factors[class_name] = min(factors)
        if min(factors) < 2 or min(degrees) < 4:
            offender = offender or class_name
    details = {"min_degree": min_degree, "min_factor_count": min_factors}
    if offender is not None:
        details["offender"] = offender
    return CheckResult("relations_in_p_squared", offender is None, details)


def check_specialization_matrices(spec: SpecializationData) -> CheckResult:
    """The stored matrices equal the displayed ones entry for entry."""
    xbar, ybar = displayed_matrices(spec.algebra)
    x_ok = spec.xbar == xbar
    y_ok = spec.ybar == ybar
    details = {"xbar_matches": x_ok, "ybar_matches": y_ok}
    if not x_ok or not y_ok:
        for label, got, want in (("xbar", spec.xbar, xbar), ("ybar", spec.ybar, ybar)):
            for i in range(want.nrows):
                for j in range(want.ncols):
                    if got.entry(i, j) != want.entry(i, j):
                        details["offender"] = "%s[%d,%d]" % (label, i + 1, j + 1)
                        return CheckResult("specialization_matrices", False, details)
    return CheckResult("specialization_matrices", x_ok and y_ok, details)


def check_module_lengths(spec: SpecializationData) -> CheckResult:
    N = spec.module
    measured = {
        "N": N.length(),
        "radical_N": N.radical_submodule().dim,
        "N4": N.direct_sum_power(4).length(),
        "N8": N.direct_sum_power(8).length(),
    }
    expected = {"N": 3, "radical_N": 1, "N4": 12, "N8": 24}
    return CheckResult(
        "module_lengths", measured == expected, {"measured": measured, "expected": expected}
    )


def check_homomorphism(data: GenericComplexData, spec: SpecializationData) -> CheckResult:
    """All 268 listed relations substitute to zero, so the generator
    assignment extends to a ring homomorphism of the presented algebra."""
    generators = data.relation_generators()
    zero_count = 0
    offender = None
    for label, p in generators:
        if p.substitute(spec.assignment, spec.algebra).is_zero():
            zero_count += 1
        elif offender is None:
            offender = label
    details = {"zero_count": zero_count, "total": len(generators)}
    if offender is not None:
        details["offender"] = offender
    return CheckResult("homomorphism_relations_vanish", offender is None, details)


def check_pd_witness(data: GenericComplexData, spec: SpecializationData) -> CheckResult:
    """Every entry of Xbar lies in the radical and every entry of X has zero
    constant term, so the first map of the resolution cannot split off."""
    offender = None
    for i in range(spec.xbar.nrows):
        for j in range(spec.xbar.ncols):
            if not spec.xbar.entry(i, j).in_radical():
                offender = "xbar[%d,%d]" % (i + 1, j + 1)
                break
        if offender:
            break
    symbolic_ok = all(
        data.table.field.is_zero(data.x.entry(i, j).constant_term())
        for i in range(data.x.nrows)
        for j in range(data.x.ncols)
    )
    details = {"xbar_in_radical": offender is None, "x_zero_constant_terms": symbolic_ok}
    if offender:
        details["offender"] = offender
    return CheckResult("pd_witness", offender is None and symbolic_ok, details)


def run_tor_checks(data: GenericComplexData, spec: SpecializationData):
    """Specialize the resolution, compute Tor, and check the homology table,
    the degree-2 kernel identity, the image identities and the Euler
    characteristic on the report's own complex of induced maps.  Returns
    ``(TorReport or None, list of CheckResult)``."""
    N = spec.module
    try:
        report = tor_from_resolution([data.x, data.y], spec.assignment, N)
    except NotAComplexError as exc:
        return None, [CheckResult("tor_table", False, {"error": str(exc)})]
    checks = []
    lengths = report.lengths()
    tor_ok = lengths == EXPECTED_TOR and lengths[1] == 0 and lengths[2] != 0
    checks.append(
        CheckResult(
            "tor_table",
            tor_ok,
            {"lengths": list(lengths), "expected": list(EXPECTED_TOR)},
        )
    )

    fx, fy = report.complex.maps

    kernel = fx.matrix.kernel_basis()
    radical_pairs = fx.source.radical_submodule()
    tor2_ok = same_span(kernel, radical_pairs.basis)
    checks.append(
        CheckResult(
            "tor2_equals_radical_pairs",
            tor2_ok,
            {"kernel_dim": kernel.ncols, "radical_dim": radical_pairs.dim},
        )
    )

    image_x = image_equals_radical_power(fx, 1)
    image_y = image_equals_radical_power(fy, 1)
    checks.append(
        CheckResult(
            "image_identities",
            image_x and image_y,
            {
                "first_map_image_is_radical": image_x,
                "second_map_image_is_radical": image_y,
                "image_dims": [report.degrees[1].image_dim, report.degrees[0].image_dim],
                "target_length_first_map": fx.target.length(),
            },
        )
    )

    module_lengths = [fy.target.length(), fy.source.length(), fx.source.length()]
    alternating = sum((-1) ** i * l for i, l in enumerate(module_lengths))
    euler_ok = report.euler_characteristic() == alternating
    checks.append(
        CheckResult(
            "euler_characteristic",
            euler_ok,
            {"homology_alternating_sum": report.euler_characteristic(),
             "module_alternating_sum": alternating},
        )
    )
    return report, checks


def betti_readout(data: GenericComplexData) -> tuple:
    """Free ranks of the resolution read from the matrix shapes, degree 0 up."""
    resolution = [data.x, data.y]
    ranks = [resolution[-1].ncols] + [m.nrows for m in reversed(resolution)]
    return tuple(ranks)


def full_report(field, generic=None, specialization=None) -> VerificationReport:
    """Run the whole battery in order and collect a deterministic report.

    ``generic`` and ``specialization`` default to the bundled constructions;
    passing modified ones is how the negative-control tests exercise each
    check's failure path.
    """
    data = generic if generic is not None else build_generic_data(field)
    spec = specialization if specialization is not None else build_specialization(field)
    if data.table.field != spec.algebra.field:
        raise ValueError("generic data and specialization use different fields")

    lengths_check = check_module_lengths(spec)
    checks = [
        check_counts(data),
        check_grading(data),
        check_psquare(data),
        check_specialization_matrices(spec),
        lengths_check,
        check_homomorphism(data, spec),
        check_pd_witness(data, spec),
    ]
    report, tor_checks = run_tor_checks(data, spec)
    checks.extend(tor_checks)

    betti = betti_readout(data)
    checks.append(
        CheckResult(
            "betti_numbers",
            betti == EXPECTED_BETTI,
            {"measured": list(betti), "expected": list(EXPECTED_BETTI)},
        )
    )

    tor_table = {}
    if report is not None:
        tor_table = {i: h.length for i, h in enumerate(report.degrees)}
    return VerificationReport(
        field_label=field.label,
        checks=tuple(checks),
        tor=tor_table,
        betti=betti,
        lengths=lengths_check.details["measured"],
    )
