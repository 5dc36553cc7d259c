"""Sparse multivariate polynomials with a positive integer weight per variable.

Variables live in a shared append-only table; each carries a weight, and the
weighted degree of a monomial is the weight-dot-exponent sum.  Polynomials
identify variables by table index internally, so the table may keep growing
after a polynomial is created (generic matrices extend it); names matter only
for input, output and substitution.

Coefficients are exact field values from :mod:`torcheck.linalg`.  Sums,
differences, products and parsed polynomials share one accumulator,
:func:`sum_terms`, which adds ``(monomial, coefficient)`` pairs up in one dict
and reduces each sum once; a minor adds its terms up the same way.  A monomial key is a sorted tuple of (variable
index, exponent) pairs, so when every index of one factor is below every index
of the other, the product's key is the two keys concatenated; only other pairs
are merged exponent by exponent.  A :class:`PolyMatrix` is a
:class:`~torcheck.linalg.DenseMatrix` over a table: its public constructor
checks that each entry from outside uses the table, and products, generic
matrices and parsed matrices are built by the trusted ``_raw``.

A :class:`Substitution` is the map from the polynomials over one table into
one :class:`~torcheck.algebras.ArtinAlgebra` that an assignment of images to
variables defines.  It needs one field for both, checked once when it is
built; it then uses each coefficient as stored.  It works on coordinate
vectors through the algebra's one coordinate product, looks each image up
once and takes each power of an image once, for every polynomial it is
applied to, and builds one element per polynomial.  The powers are kept by
the ``(variable index, exponent)`` pairs of the monomial keys themselves, so
valuing a monomial builds no tuple per factor once its powers are kept.

Minors are expanded along their first row.  The signed products of the
cofactors are added up in one dict per minor, in one loop, and the minors of
the rows below are cached for one :meth:`PolyMatrix.all_minors` call as
``(key, coeff)`` lists, so each smaller minor is built once and only the
minors returned become polynomials.

The per-term loops here are plain nested loops: on Python 3.11 every list,
set or generator comprehension is a function call of its own, and most keys
hold only a few pairs, so one comprehension per key costs more than its work.
"""

from __future__ import annotations

from itertools import chain, combinations

from .algebras import AlgebraElement
from .linalg import DenseMatrix, FieldMismatchError, dense_product, readable


class VarTable:
    """Ordered table of (name, weight) variables over a coefficient field."""

    def __init__(self, field):
        self.field = field
        self._names = []
        self._weights = []
        self._index = {}

    def add_var(self, name: str, weight: int) -> int:
        if name in self._index:
            raise ValueError("variable name collision: %s" % readable(name))
        if not isinstance(weight, int) or weight < 1:
            raise ValueError("weight must be a positive integer; got %r" % (weight,))
        idx = len(self._names)
        self._names.append(name)
        self._weights.append(weight)
        self._index[name] = idx
        return idx

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError("unknown variable %r" % name) from None

    def name_of(self, idx: int) -> str:
        return self._names[idx]

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self._names)


def sum_terms(table, pairs):
    """Sum the ``(key, coeff)`` pairs per monomial key, a sorted tuple of (var
    index, exponent>0), into one polynomial: each sum is reduced once and the
    zero sums are dropped; keys keep the order in which they first occur."""
    acc = {}
    get = acc.get
    for key, c in pairs:
        old = get(key)
        acc[key] = c if old is None else old + c
    reduce = table.field.reduce
    return WeightedPoly(table, {key: r for key, c in acc.items() if (r := reduce(c))})


def _key_product(ka, kb):
    """The key of the product of the monomials with keys ``ka`` and ``kb``:
    the two keys concatenated when every index of one is below every index of
    the other, else their exponents merged per index."""
    if not ka or not kb:
        return ka or kb
    if ka[-1][0] < kb[0][0]:
        return ka + kb
    if kb[-1][0] < ka[0][0]:
        return kb + ka
    exps = dict(ka)
    for idx, e in kb:
        exps[idx] = exps.get(idx, 0) + e
    return tuple(sorted(exps.items()))


def _product_terms(a, b):
    """The list of ``(key, coeff)`` pairs of the term-by-term product of the
    polynomials ``a`` and ``b``."""
    right = list(b.terms.items())
    out = []
    for ka, ca in a.terms.items():
        out += [(_key_product(ka, kb), ca * cb) for kb, cb in right]
    return out


def _coordinate_power(algebra, base, exp):
    """Coordinates of the ``exp``-th power (``exp >= 1``) of the element with
    coordinates ``base``, by repeated squaring through
    :meth:`~torcheck.algebras.ArtinAlgebra.coordinate_product`."""
    result = None
    while exp:
        if exp & 1:
            result = base if result is None else algebra.coordinate_product(result, base)
        exp >>= 1
        if exp:
            base = algebra.coordinate_product(base, base)
    return result


class Substitution:
    """The evaluation of the polynomials over ``table`` in ``algebra`` that
    sends each variable to its image under ``assignment``, a mapping from
    variable names to elements of ``algebra``.  Being defined on generators,
    it is a ring homomorphism by construction.

    Building one raises :class:`~torcheck.linalg.FieldMismatchError` unless
    the table and the algebra have one field; the coefficients are then used
    as stored.  Calling it on a polynomial over ``table`` returns the image
    element, and raises ``ValueError`` for a polynomial over another table,
    or if a variable occurring in the polynomial has no image, or an image
    that is not an element of ``algebra``.

    The images and their powers are shared by every polynomial it is called
    on: each image is looked up and checked once, and each power of an image
    is taken once, by repeated squaring.  A monomial is valued as a chain of
    :meth:`~torcheck.algebras.ArtinAlgebra.coordinate_product` calls, one
    power at a time, that stops once the running product vanishes, and a
    polynomial adds each monomial's coefficient times its value
    coordinatewise.  The assignment is read as it is when an image is first
    needed, so it must not change while the substitution is in use.
    """

    __slots__ = ("table", "assignment", "algebra", "_powers")

    def __init__(self, table, assignment, algebra):
        if table.field != algebra.field:
            raise FieldMismatchError(
                "polynomial over %r substituted into an algebra over %r"
                % (table.field, algebra.field)
            )
        self.table, self.assignment, self.algebra = table, assignment, algebra
        self._powers = {}  # (variable index, exponent) -> coordinates of that power of its image

    def __call__(self, p) -> AlgebraElement:
        if p.table is not self.table:
            raise ValueError("polynomial uses another variable table than the substitution")
        algebra, powers = self.algebra, self._powers
        acc = [0] * algebra.dim
        for key, coeff in p.terms.items():
            # every image of the monomial is resolved before the products, so
            # a missing variable raises even after a factor that vanishes; a
            # kept power of a variable means its image is kept too
            for pair in key:
                if pair not in powers and (pair[0], 1) not in powers:
                    powers[pair[0], 1] = self._image(self.table.name_of(pair[0]))
            value = None
            for pair in key:
                power = powers.get(pair)
                if power is None:
                    power = powers[pair] = _coordinate_power(algebra, powers[pair[0], 1], pair[1])
                value = power if value is None else algebra.coordinate_product(value, power)
                if not any(value):
                    break
            if value is None:
                value = (1,) + (0,) * (algebra.dim - 1)
            for k, v in enumerate(value):
                if v:
                    acc[k] += coeff * v
        return AlgebraElement(algebra, map(algebra.field.reduce, acc))

    def _image(self, name):
        """Coordinates of the image of the variable ``name``."""
        try:
            image = self.assignment[name]
        except KeyError:
            raise ValueError("no image assigned for variable %r" % name) from None
        if not isinstance(image, AlgebraElement) or image.algebra != self.algebra:
            raise ValueError("image of variable %r is not an element of the algebra" % name)
        return image.coords


class WeightedPoly:
    """Immutable sparse polynomial over a shared :class:`VarTable`."""

    __slots__ = ("table", "terms")

    def __init__(self, table, terms):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, name, value):
        raise AttributeError("WeightedPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table):
        return cls(table, {})

    @classmethod
    def variable(cls, table, name):
        idx = table.index_of(name) if isinstance(name, str) else name
        return cls(table, {((idx, 1),): 1})

    # -- ring operations ----------------------------------------------

    def _check_table(self, other):
        if self.table is not other.table:
            raise ValueError("polynomials use different variable tables")

    def __add__(self, other):
        self._check_table(other)
        return sum_terms(self.table, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        self._check_table(other)
        negated = [(k, -c) for k, c in other.terms.items()]
        return sum_terms(self.table, chain(self.terms.items(), negated))

    def __neg__(self):
        reduce = self.table.field.reduce
        return WeightedPoly(self.table, {k: reduce(-c) for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, WeightedPoly):
            return NotImplemented
        self._check_table(other)
        return sum_terms(self.table, _product_terms(self, other))

    def __eq__(self, other):
        return (
            isinstance(other, WeightedPoly)
            and self.table is other.table
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.table), tuple(sorted(self.terms.items()))))

    # -- queries --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self):
        return self.terms.get((), 0)

    def variables_used(self):
        return {idx for key in self.terms for idx, _ in key}

    def weighted_degree(self):
        """Classify against the table weights.

        Returns ``("zero", None)``, ``("homogeneous", d)`` with every term of
        weighted degree ``d``, or ``("inhomogeneous", None)``.
        """
        if not self.terms:
            return ("zero", None)
        weights = self.table._weights
        first = None
        for key in self.terms:
            degree = 0
            for idx, e in key:
                degree += weights[idx] * e
            if first is None:
                first = degree
            elif degree != first:
                return ("inhomogeneous", None)
        return ("homogeneous", first)

    def min_factor_count(self) -> int:
        """Minimum over terms of the number of variable factors (with multiplicity)."""
        if not self.terms:
            raise ValueError("zero polynomial has no factor count")
        least = None
        for key in self.terms:
            count = 0
            for _, e in key:
                count += e
            if least is None or count < least:
                least = count
        return least

    def substitute(self, assignment, algebra):
        """Evaluate by sending each variable to its assigned algebra element:
        ``Substitution(self.table, assignment, algebra)(self)``, with the
        errors of :class:`Substitution`.  To evaluate many polynomials under
        one assignment, build one :class:`Substitution` and call it on each,
        so that the images and their powers are shared."""
        return Substitution(self.table, assignment, algebra)(self)

    def __repr__(self):
        if not self.terms:
            return "0"
        f = self.table.field
        parts = []
        for key in sorted(self.terms):
            factors = [f.format(self.terms[key])]
            for idx, e in key:
                name = self.table.name_of(idx)
                factors.append(name if e == 1 else "%s^%d" % (name, e))
            parts.append("*".join(factors))
        return " + ".join(parts)


class PolyMatrix(DenseMatrix):
    """Dense matrix over a variable table; an entry from outside must be a
    :class:`WeightedPoly` over that table."""

    __slots__ = ()
    table = DenseMatrix.ring

    @staticmethod
    def _admit(table, p):
        if p.table is not table:
            raise ValueError("entry uses a different variable table")
        return p

    @classmethod
    def generic(cls, table, prefix, nrows, ncols, weight):
        """Extend ``table`` with ``nrows*ncols`` fresh variables ``prefix<i><j>``
        (1-based) of the given weight; entry (i, j) is the corresponding
        monomial."""
        rows = []
        for i in range(1, nrows + 1):
            row = []
            for j in range(1, ncols + 1):
                idx = table.add_var("%s%d%d" % (prefix, i, j), weight)
                row.append(WeightedPoly.variable(table, idx))
            rows.append(row)
        return cls._raw(table, rows, ncols)

    def __matmul__(self, other):
        if self.table is not other.table:
            raise ValueError("matrices use different variable tables")
        rows = dense_product(self, other, WeightedPoly.zero(self.table))
        return PolyMatrix._raw(self.table, rows, other.ncols)

    def minor(self, row_idx, col_idx):
        """Determinant of the selected square submatrix (plain sign convention,
        rows and columns taken in increasing order)."""
        row_idx, col_idx = list(row_idx), list(col_idx)
        if len(row_idx) != len(col_idx):
            raise ValueError("row and column index lists must have equal length")
        for idx, bound, kind in ((row_idx, self.nrows, "row"), (col_idx, self.ncols, "column")):
            if any(not 0 <= i < bound for i in idx):
                raise ValueError("%s index out of range: %r" % (kind, idx))
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError("%s indices must be strictly increasing: %r" % (kind, idx))
        return WeightedPoly(self.table, self._expand(tuple(row_idx), tuple(col_idx), {}))

    def all_minors(self, size):
        """All ``size x size`` minors as ``(row_idx, col_idx, poly)`` triples,
        in lexicographic order of the index tuples.  The smaller minors met in
        the expansions are shared through one cache, so each is built once."""
        if size > min(self.nrows, self.ncols):
            raise ValueError("minor size %d exceeds matrix dimensions" % size)
        cache = {}
        out = []
        for rows in combinations(range(self.nrows), size):
            for cols in combinations(range(self.ncols), size):
                out.append((rows, cols, WeightedPoly(self.table, self._expand(rows, cols, cache))))
        return out

    def _expand(self, rows, cols, cache):
        """The ``(key, coeff)`` pairs of the determinant of the submatrix on
        the index tuples ``rows`` and ``cols``, expanded along its first row,
        in the order of :func:`sum_terms`.  The signed products of the
        cofactors are added up in one dict; the term lists of the minors of
        the rows below are looked up in, or added to, ``cache``, keyed by
        ``(rows, cols)``."""
        if not rows:
            return [((), 1)]
        top = self.entries[rows[0]]
        if len(rows) == 1:
            return top[cols[0]].terms.items()
        found = cache.get((rows, cols))
        if found is not None:
            return found
        below = rows[1:]
        acc = {}
        get = acc.get
        for j, c in enumerate(cols):
            sub = self._expand(below, cols[:j] + cols[j + 1 :], cache)
            for ka, ca in top[c].terms.items():
                if j & 1:
                    ca = -ca
                last = ka[-1][0] if ka else -1
                for kb, cb in sub:
                    # the fast case of _key_product, inlined
                    key = ka + kb if kb and last < kb[0][0] else _key_product(ka, kb)
                    acc[key] = get(key, 0) + ca * cb
        reduce = self.table.field.reduce
        terms = cache[rows, cols] = [(key, r) for key, c in acc.items() if (r := reduce(c))]
        return terms
