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
assignment is the one stored record of that map: the checks get Xbar and
Ybar by substituting X and Y through it once, and take Tor of them.  The
module N = S^2/((t,0), (0,s), (s,t))S has length 3, and the homology of
0 -> N^2 -> N^4 -> N^8 gives the Tor table (16, 0, 2): vanishing in degree 1
with non-vanishing in degree 2, which is the non-rigidity witness.

Every finitely checkable claim in that story is run here as a named check;
facts consumed from the literature (exactness of the symbolic complex over
the determinantal base ring, completeness of the relation list) are reported
as cited inputs rather than silently assumed.  Each derived polynomial class
has its label, degree, count and role in one table, ``DERIVED_CLASSES``, and
each "measured equals expected" check is one call of :func:`compare`.
:func:`full_report` takes only the field and builds both sides over it; a
negative control calls the check functions directly on modified data.
"""

from itertools import combinations

from .algebras import FDModule, free_module, monomial_square_zero_algebra
from .complexes import AlgebraMatrix, NotAComplexError, substitute_matrix, tor_from_specialized
from .linalg import record, same_span
from .poly import PolyMatrix, Substitution, VarTable, WeightedPoly

EXPECTED_TOR = (16, 0, 2)
EXPECTED_BETTI = (8, 4, 2)
# each derived polynomial class in check order: its report label, formatted
# from the 1-based key (a tuple part as its comma-joined indices), its forced
# weighted degree, its count (f is not counted) and whether it is a relation
# generator class of R
DERIVED_CLASSES = {
    "xy_entries": ("xy[%s,%s]", 5, 16, True),
    "minors3": ("minor3[%s|%s]", 9, 224, True),
    "f": ("f", 4, None, False),
    "g": ("g[%s,%s]", 6, 28, False),
    "u_relations": ("u_rel[%s,%s]", 6, 28, True),
}
# the classes that are relation generators of R, in report order
RELATION_CLASSES = tuple(name for name, (*_, relation) in DERIVED_CLASSES.items() if relation)

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


class GenericComplexData(
    record("GenericComplexData", "table x y xy_entries minors3 f g u_relations")
):
    """The symbolic side: variables, matrices and relation generators.

    ``table``, ``x``, ``y`` and ``f`` are the variable table, the generic
    matrices X and Y and the fixed 2x2 minor of X.  The other fields are
    tuples of (1-based key, poly): ``xy_entries`` ((i, j), row-major, 16 of
    them), ``minors3`` ((rows, cols), 224), ``g`` ((c1, c2), lexicographic,
    28) and ``u_relations`` ((c1, c2), g - f*u, 28).
    """

    def keyed_classes(self):
        """Every derived polynomial class as a sequence of (key, poly), keyed
        by class name, in report order.  The checks name an offender by
        :func:`relation_label`, so a passing check formats no label."""
        return {
            name: (((), self.f),) if name == "f" else getattr(self, name)
            for name in DERIVED_CLASSES
        }

    def weighted_degrees(self):
        """Every derived polynomial class as a sequence of (key,
        ``weighted_degree()``), keyed by class name in report order.  Each
        polynomial is classified once per instance and the result kept in
        the instance dict, so the grading and P^2 checks of one report share
        it; a modified copy made by ``data._replace(...)`` classifies its
        own."""
        kept = vars(self)
        if "degrees" not in kept:
            kept["degrees"] = {
                name: tuple((key, p.weighted_degree()) for key, p in polys)
                for name, polys in self.keyed_classes().items()
            }
        return kept["degrees"]


def relation_label(class_name, key) -> str:
    """Report label of the polynomial at ``key`` in a derived class, such as
    ``xy[1,2]``, ``minor3[1,2,3|1,2,4]``, ``f``, ``g[1,2]`` or ``u_rel[1,2]``."""
    parts = tuple(",".join(map(str, k)) if isinstance(k, tuple) else k for k in key)
    return DERIVED_CLASSES[class_name][0] % parts


class SpecializationData(record("SpecializationData", "assignment module")):
    """The specialized side: the assignment, the one record of R -> S, and N.

    Xbar and Ybar are X and Y substituted through the assignment
    (:meth:`specialized`).  It and :meth:`module_power` build each
    specialized matrix and each power N^k once and keep it in the instance
    dict, so the checks of one report share them.  The kept values take no
    part in ``==`` or ``repr``, and a modified copy made by
    ``spec._replace(...)`` builds its own.
    """

    @property
    def algebra(self):
        """S, the algebra of :attr:`module`."""
        return self.module.algebra

    def module_power(self, k: int) -> FDModule:
        """The direct sum power N^k of :attr:`module`."""
        powers = vars(self).setdefault("powers", {})
        if k not in powers:
            powers[k] = self.module.direct_sum_power(k)
        return powers[k]

    def specialized(self, m) -> AlgebraMatrix:
        """The polynomial matrix ``m`` substituted through :attr:`assignment`
        into S, as Tor substitutes it; kept per matrix object, which the entry
        holds so that its ``id`` is not reused."""
        kept = vars(self).setdefault("substituted", {})
        if id(m) not in kept:
            kept[id(m)] = (m, substitute_matrix(m, self.assignment, self.algebra))
        return kept[id(m)][1]


class CheckResult(record("CheckResult", "name passed details")):
    """One check of the battery: its name, whether it passed, and the
    measured and expected values or the offender that the report shows."""

    __slots__ = ()


def compare(name, key, measured, expected) -> CheckResult:
    """The check ``name``: ``measured`` equals ``expected``; both reported."""
    return CheckResult(name, measured == expected, {key: measured, "expected": expected})


class VerificationReport(record("VerificationReport", "field_label checks tor betti lengths")):
    """The battery's outcome over one field.

    ``checks`` holds the :class:`CheckResult` of each check in run order,
    ``tor`` maps homological degree to length (empty if the complex check
    failed), ``betti`` holds the free ranks from degree 0 up, and ``lengths``
    the measured module lengths.  The cited inputs and the examples not
    constructed are the same for every report, so ``cited_not_verified`` and
    ``not_constructed`` are class constants.
    """

    __slots__ = ()
    cited_not_verified = CITED_NOT_VERIFIED
    not_constructed = NOT_CONSTRUCTED

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
    """The specialized images of X and Y, both of the form [s.I_k | t.I_k]:
    Xbar = [s.I2 | t.I2] (2x4) and Ybar = [s.I4 | t.I4] (4x8).  Every u goes
    to 0; other images come through ``spec._replace(assignment=...)``."""
    s, t = (algebra.generator(g).coords for g in "st")
    zero = algebra.zero().coords

    def block(k):
        grid = [
            [s if j == i else (t if j == i + k else zero) for j in range(2 * k)] for i in range(k)
        ]
        return AlgebraMatrix._raw(algebra, algebra.coefficient_stack(grid, 2 * k))

    return block(2), block(4)


def build_specialization(field) -> SpecializationData:
    """The generator assignment into S, and N.

    The assignment sends each x and y to its entry of Xbar or Ybar and every
    u to 0, in that key order.  Other images, such as radical u-images, come
    through ``spec._replace(assignment=...)``; the battery re-checks that the
    assignment is a homomorphism rather than assuming it.
    """
    S = monomial_square_zero_algebra(field, ["s", "t"])
    xbar, ybar = displayed_matrices(S)
    assignment = {
        "%s%d%d" % (prefix, i + 1, j + 1): m.entry(i, j)
        for prefix, m in (("x", xbar), ("y", ybar))
        for i in range(m.nrows)
        for j in range(m.ncols)
    }
    zero = S.zero()
    for c1, c2 in combinations(range(1, ybar.ncols + 1), 2):
        assignment["u%d%d" % (c1, c2)] = zero
    F = free_module(S, 2)
    # relations (t,0), (0,s), (s,t) in coordinates over the basis (1,s,t|1,s,t)
    N, _ = F.quotient_module([(0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1)])
    return SpecializationData(assignment=assignment, module=N)


# -- individual checks -----------------------------------------------------------


def check_counts(data: GenericComplexData) -> CheckResult:
    expected = {
        name: count for name, (_, _, count, _) in DERIVED_CLASSES.items() if count is not None
    }
    counts = {name: len(getattr(data, name)) for name in expected}
    return compare("generator_counts", "counts", counts, expected)


def check_grading(data: GenericComplexData) -> CheckResult:
    """Every derived polynomial is homogeneous of its forced weighted degree."""
    classified = data.weighted_degrees()
    degrees = {name: degree for name, (_, degree, _, _) in DERIVED_CLASSES.items()}
    for name, expected in degrees.items():
        for key, found in classified[name]:
            if found != ("homogeneous", expected):
                details = {"degrees": degrees, "offender": relation_label(name, key)}
                return CheckResult("grading", False, details)
    return CheckResult("grading", True, {"degrees": degrees})


def check_psquare(data: GenericComplexData) -> CheckResult:
    """Every listed relation generator has >= 2 variable factors in each term
    and weighted degree >= 4, so the generators stay independent modulo P^2."""
    min_degree = {}
    min_factors = {}
    offender = None
    classes = data.keyed_classes()
    classified = data.weighted_degrees()
    for class_name in RELATION_CLASSES:
        degrees = [d if d is not None else -1 for _, (_, d) in classified[class_name]]
        factors = [p.min_factor_count() if p else 0 for _, p in classes[class_name]]
        min_degree[class_name] = min(degrees)
        min_factors[class_name] = min(factors)
        if min(factors) < 2 or min(degrees) < 4:
            offender = offender or class_name
    details = {"min_degree": min_degree, "min_factor_count": min_factors}
    if offender is not None:
        details["offender"] = offender
    return CheckResult("relations_in_p_squared", offender is None, details)


def check_specialization_matrices(data: GenericComplexData, spec: SpecializationData):
    """X and Y substituted through the assignment, as Tor substitutes them,
    equal the displayed Xbar and Ybar entry for entry."""
    bars = [spec.specialized(m) for m in (data.x, data.y)]
    compared = list(zip(("xbar", "ybar"), bars, displayed_matrices(spec.algebra)))
    details = {"%s_matches" % label: got == want for label, got, want in compared}
    for label, got, want in compared:
        if got == want:
            continue
        shape, expected = (got.nrows, got.ncols), (want.nrows, want.ncols)
        if shape != expected:
            details["offender"] = "%s shape %dx%d, expected %dx%d" % (label, *shape, *expected)
            return CheckResult("specialization_matrices", False, details)
        for i in range(want.nrows):
            for j in range(want.ncols):
                if got.entry(i, j) != want.entry(i, j):
                    details["offender"] = "%s[%d,%d]" % (label, i + 1, j + 1)
                    return CheckResult("specialization_matrices", False, details)
    return CheckResult("specialization_matrices", True, details)


def check_module_lengths(spec: SpecializationData) -> CheckResult:
    N = spec.module
    measured = {
        "N": N.length(),
        "radical_N": N.radical_submodule().ncols,
        "N4": spec.module_power(4).length(),
        "N8": spec.module_power(8).length(),
    }
    expected = {"N": 3, "radical_N": 1, "N4": 12, "N8": 24}
    return compare("module_lengths", "measured", measured, expected)


def check_homomorphism(data: GenericComplexData, spec: SpecializationData) -> CheckResult:
    """All 268 listed relations substitute to zero, so the generator
    assignment extends to a ring homomorphism of the presented algebra.  One
    :class:`~torcheck.poly.Substitution` values them all."""
    substitution = Substitution(data.table, spec.assignment, spec.algebra)
    classes = data.keyed_classes()
    zero_count = total = 0
    offender = None
    for name in RELATION_CLASSES:
        for key, p in classes[name]:
            total += 1
            if not substitution(p):
                zero_count += 1
            elif offender is None:
                offender = relation_label(name, key)
    details = {"zero_count": zero_count, "total": total}
    if offender is not None:
        details["offender"] = offender
    return CheckResult("homomorphism_relations_vanish", offender is None, details)


def check_pd_witness(data: GenericComplexData, spec: SpecializationData) -> CheckResult:
    """Xbar and X both vanish modulo the maximal ideal: every entry of Xbar
    lies in the radical and every entry of X has zero constant term, so the
    first map of the resolution cannot split off.  Xbar is X substituted as
    Tor substitutes it; modulo the maximal ideal it is its stack's layer 0."""
    xbar = spec.specialized(data.x)
    unit = xbar.stack[0].first_nonzero()
    symbolic_ok = not any(p.constant_term() for row in data.x.entries for p in row)
    details = {"xbar_in_radical": unit is None, "x_zero_constant_terms": symbolic_ok}
    if unit is not None:
        details["offender"] = "xbar[%d,%d]" % (unit[0] + 1, unit[1] + 1)
    return CheckResult("pd_witness", unit is None and symbolic_ok, details)


def run_tor_checks(data: GenericComplexData, spec: SpecializationData):
    """Take Tor of the specialized resolution, and check the homology table,
    the degree-2 kernel identity, the image identities and the Euler
    characteristic on the report's own complex of induced maps.  Returns
    ``(TorReport or None, list of CheckResult)``."""
    try:
        report = tor_from_specialized([spec.specialized(m) for m in (data.x, data.y)], spec.module)
    except NotAComplexError as exc:
        return None, [CheckResult("tor_table", False, {"error": str(exc)})]
    checks = [compare("tor_table", "lengths", list(report.lengths()), list(EXPECTED_TOR))]

    fx, fy = report.complex.maps
    # N^2, N^4 and N^8 as modules, for their radicals and lengths
    source, middle, target = (
        spec.module_power(k) for k in (data.x.nrows, data.x.ncols, data.y.ncols)
    )

    kernel = fx.kernel_basis()
    radical_pairs = source.radical_submodule()
    tor2_ok = same_span(kernel, radical_pairs)
    checks.append(
        CheckResult(
            "tor2_equals_radical_pairs",
            tor2_ok,
            {"kernel_dim": kernel.ncols, "radical_dim": radical_pairs.ncols},
        )
    )

    image_x = same_span(fx, middle.radical_submodule())
    image_y = same_span(fy, target.radical_submodule())
    checks.append(
        CheckResult(
            "image_identities",
            image_x and image_y,
            {
                "first_map_image_is_radical": image_x,
                "second_map_image_is_radical": image_y,
                "image_dims": [report.degrees[1].image_dim, report.degrees[0].image_dim],
                "target_length_first_map": middle.length(),
            },
        )
    )

    module_lengths = [target.length(), middle.length(), source.length()]
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


def full_report(field) -> VerificationReport:
    """Run the whole battery in order over ``field``, on the generic data and
    the specialization built over it, and collect a deterministic report.

    The report's field label is the field every check ran over.  The negative
    controls call the check functions directly on modified data.
    """
    data = build_generic_data(field)
    spec = build_specialization(field)
    lengths_check = check_module_lengths(spec)
    checks = [
        check_counts(data),
        check_grading(data),
        check_psquare(data),
        check_specialization_matrices(data, spec),
        lengths_check,
        check_homomorphism(data, spec),
        check_pd_witness(data, spec),
    ]
    report, tor_checks = run_tor_checks(data, spec)
    checks.extend(tor_checks)
    betti = betti_readout(data)
    checks.append(compare("betti_numbers", "measured", list(betti), list(EXPECTED_BETTI)))

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
