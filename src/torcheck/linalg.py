"""Exact dense linear algebra over the rationals and over prime fields.

Every homology number in this package reduces to a rank, kernel or column
span of a dense matrix, mostly zero (a 96x192 induced map has 128 non-zero
entries).  Rank, rref and image basis share one fraction-free elimination on
Python ints (Bareiss) that skips zero rows and finds each pivot from the
rows' first non-zero columns; rank and image basis need only its forward
pass.  A rational entry is a Python ``int`` when it is an integer and a
``fractions.Fraction`` otherwise; prime-field entries are integer residues in
``[0, p)``.  No floating point anywhere, so no ``/``: an exact quotient is
``Fraction(a, b)``.

Field values are plain numbers with Python's own ``+ - *`` and truth value,
and 0 and 1 are the ints 0 and 1 in every field; a field object is consulted
only to check, reduce, invert, parse and print.  A value from
outside enters through the field's checked ``normalize``; a sum or product
of values already in the field goes through its ``reduce`` (an integral
``Fraction`` to its numerator over Q, ``% p`` over F_p) before it is stored,
whether as a matrix entry, an algebra element coordinate or a polynomial
coefficient.  A stored value is therefore false exactly when it is zero.
Over Q most stored values are ints, and a sum or product of two ints skips
``Fraction``'s gcds.

Field and polynomial matrices share one core, :class:`DenseMatrix`.  Its
public constructor checks entries from outside; every matrix the library
builds itself (products, substitutions, generic matrices, kernel and image
bases, stacks) is made by the trusted ``_raw`` and not checked again.
:func:`unchecked` and :func:`immutable` are the one definition of that
policy: ``ArtinAlgebra``, ``DenseMatrix``, ``FDModule``, ``AlgebraMatrix``
and ``ChainComplex`` bind ``_raw = classmethod(unchecked)``, and
``AlgebraElement``, ``DenseMatrix``, ``WeightedPoly`` and ``AlgebraMatrix``
bind ``__setattr__ = immutable``.  Beside them, :func:`record` is the one
definition of the package's result records (``HomologySummary``,
``TorReport``, ``GenericComplexData``, ``SpecializationData``,
``CheckResult`` and ``VerificationReport``): tuples with named fields, built
without compiling source, so importing the package stays cheap.
"""

from fractions import Fraction
from itertools import chain, compress, count
from math import lcm
from operator import itemgetter


class FieldMismatchError(ValueError):
    """Operands live over different coefficient fields."""


class ShapeError(ValueError):
    """Matrix shapes are incompatible with the requested operation."""


def _is_prime(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field of rational numbers.  A value is an ``int`` when its
    denominator is 1 and a ``Fraction`` in lowest terms otherwise, with
    Python's ``+ - *``, false exactly when zero.  Mixed ``int``/``Fraction``
    sums and products are exact, but one may be an integral ``Fraction``;
    :meth:`reduce` takes that to its numerator."""

    label = "q"

    def normalize(self, x):
        if type(x) is int:
            return x
        if isinstance(x, float):
            raise TypeError("floating point values are not exact; got %r" % (x,))
        return self.reduce(Fraction(x))

    def reduce(self, x):
        if type(x) is Fraction and x.denominator == 1:
            return x.numerator
        return x

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.reduce(Fraction(1, a))

    def parse(self, s: str):
        """Parse ``"num/den"`` or ``"num"`` (integer strings only)."""
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return self.reduce(Fraction(int(num), int(den)))
        return int(s)

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


def readable(value) -> str:
    """``repr(value)`` for an error line, except that a value whose ``repr``
    would be over 100 characters is named by its size: an int past 64 bits
    by its sign and approximate number of digits, a text by its length, a
    list or dict by its type and length, anything else by its type and the
    length of its ``repr``.  ``repr`` refuses an int longer than the
    interpreter's digit limit, and a line is no place for thousands of
    characters."""
    if isinstance(value, int) and value.bit_length() > 64:
        digits = (value.bit_length() - 1) * 30103 // 100000 + 1
        return "%s<about %d digits>" % ("-" * (value < 0), digits)
    text = repr(value)
    if len(text) <= 100:
        return text
    if isinstance(value, str):
        return "<%d characters>" % len(value)
    if isinstance(value, (list, dict)):
        return "<%s of length %d>" % (type(value).__name__, len(value))
    return "<%s of %d characters>" % (type(value).__name__, len(text))


class PrimeField:
    """The prime field F_p for a word-size prime p.  Values are ``int``
    residues in [0, p) with Python's ``+ - *``, false exactly when zero;
    :meth:`reduce` takes integer sums and products back into [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p < 2**31):
            raise ValueError("prime field characteristic must be an integer in [2, 2^31); got %s" % readable(p))
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.label = "fp:%d" % p

    def normalize(self, x):
        if isinstance(x, float):
            raise TypeError("floating point values are not exact; got %r" % (x,))
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def reduce(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def parse(self, s: str):
        return int(s.strip()) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime_field", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def unchecked(cls, *parts):
    """A ``cls`` made by ``cls.__new__`` and its ``_set(*parts)``, with no
    check: the trusted constructor, for parts that already meet the class's
    invariants.  A class binds it as ``_raw = classmethod(unchecked)``."""
    obj = cls.__new__(cls)
    obj._set(*parts)
    return obj


def immutable(obj, name, value):
    """``__setattr__`` of a value type: no attribute is set after ``_set``."""
    raise AttributeError("%s is immutable" % type(obj).__name__)


def record(typename, field_names):
    """A ``tuple`` subclass named ``typename`` whose items are read by the
    space-separated ``field_names``: built as ``R(*values)`` or
    ``R(name=value, ...)``, copied with changes by ``_replace(name=value)``,
    listed by ``_fields`` and shown as ``R(name=value, ...)``; equality and
    hash are the tuple's.  It is built by ``type()`` from plain functions,
    so unlike the standard library's named tuples it compiles no source.  A
    subclass without ``__slots__`` gets an instance dict, which ``_replace``
    does not copy."""
    fields = tuple(field_names.split())

    def __new__(cls, *args, **kwargs):
        if kwargs and kwargs.keys() == set(fields[len(args) :]):
            args += tuple(map(kwargs.__getitem__, fields[len(args) :]))
        elif kwargs or len(args) != len(fields):
            raise TypeError(
                "%s takes (%s); got %d positional values and the keywords %s"
                % (typename, ", ".join(fields), len(args), ", ".join(kwargs) or "none")
            )
        return tuple.__new__(cls, args)

    def _replace(self, **changes):
        return type(self)(**dict(zip(fields, self), **changes))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(map("%s=%r".__mod__, zip(fields, self))))

    namespace = {name: property(itemgetter(i)) for i, name in enumerate(fields)}
    namespace.update(
        __slots__=(), _fields=fields, __new__=__new__, _replace=_replace, __repr__=__repr__
    )
    return type(typename, (tuple,), namespace)


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError("mixed coefficient fields: %r vs %r" % (a.field, b.field))


class DenseMatrix:
    """Immutable matrix over a ring (a field or a variable table),
    stored row-major as a tuple of row tuples.  The one shape rule: rows have
    equal length, and ``ncols`` gives the width of a matrix with no rows.  A
    subclass checks an entry from outside in its ``_admit`` and defines ``@``.
    """

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring, entries, ncols=None):
        rows = tuple(tuple(self._admit(ring, x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != width:
                raise ShapeError("ncols=%d disagrees with row width %d" % (ncols, width))
            ncols = width
        elif ncols is None:
            ncols = 0
        self._set(ring, rows, ncols)

    _raw = classmethod(unchecked)  # rows of ``ncols`` entries already in the ring

    def _set(self, ring, rows, ncols):
        rows = tuple(tuple(r) for r in rows)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", rows)

    __setattr__ = immutable

    def entry(self, i, j):
        return self.entries[i][j]

    def first_nonzero(self):
        """``(row, col)`` of the first non-zero entry in row-major order, or ``None``."""
        for r, row in enumerate(self.entries):
            if any(row):
                return r, next(c for c, x in enumerate(row) if x)
        return None

    def _key(self):
        return (self.nrows, self.ncols, self.ring, self.entries)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%dx%d)" % (type(self).__name__, self.nrows, self.ncols)


class Matrix(DenseMatrix):
    """Dense matrix over the coefficient field ``field``, its entries
    normalized into the field."""

    __slots__ = ()
    field = DenseMatrix.ring
    # in Matrix's own dict, where bench/spans.py wraps it
    __init__ = DenseMatrix.__init__

    @staticmethod
    def _admit(field, x):
        return field.normalize(x)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, field, n):
        return cls._raw(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if not cols:
            if nrows is None:
                raise ShapeError("nrows required for a matrix with no columns")
            return cls(field, [()] * nrows)
        if any(len(c) != len(cols[0]) for c in cols):
            raise ShapeError("ragged columns")
        return cls(field, list(zip(*cols)), ncols=len(cols))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.entries)
        return "Matrix(%dx%d over %r: [%s])" % (self.nrows, self.ncols, self.field, body)

    def hstack(self, *others: "Matrix") -> "Matrix":
        """``self`` followed by the columns of each of ``others`` in turn."""
        for other in others:
            _check_same_field(self, other)
            if self.nrows != other.nrows:
                raise ShapeError("hstack row counts differ: %d vs %d" % (self.nrows, other.nrows))
        parts = (self,) + others
        rows = [tuple(chain.from_iterable(row)) for row in zip(*(m.entries for m in parts))]
        return Matrix._raw(self.field, rows, sum(m.ncols for m in parts))

    # -- arithmetic ---------------------------------------------------

    def __matmul__(self, other):
        _check_same_field(self, other)
        reduce = self.field.reduce
        rows = dense_product(self, other, 0)
        return Matrix._raw(self.field, [[reduce(x) for x in row] for row in rows], other.ncols)

    # -- elimination --------------------------------------------------

    def _eliminate(self, full):
        """``(rows, pivots)`` of fraction-free elimination (Bareiss) of the
        non-zero rows of ``self``: ``pivots`` are the pivot columns and each
        of ``rows[:len(pivots)]`` a multiple of its rref row.  Over Q rows are
        scaled to integers by the lcm of their denominators; a step is
        ``(a*x - b*y) // prev``, ``a`` the pivot and ``prev`` the pivot that
        last reduced the row, exact since every entry is a minor.  Over F_p it
        is ``(a*x - b*y) % p``.  Both skip a row whose ``b`` is 0; over Q it
        owes ``a / prev``, paid if it becomes a pivot row.  ``full`` also
        clears above each pivot.

        Zero rows are dropped first, as they never pivot and no step changes
        them.  Each row keeps a lower bound on its first non-zero column, set
        to ``pc + 1`` when the pivot at ``pc`` reduces it.  Rows at or below
        the next pivot row are zero left of the least bound; it is the next
        pivot column if its first row is non-zero there, else that bound moves
        on to its row's first non-zero.  So an empty column is never scanned:
        the largest induced map of a length-6 residue resolution (entries in
        rad(N^q)) has 32 non-zero rows of 96 and 128 non-zero entries."""
        p = self.field.p if isinstance(self.field, PrimeField) else None
        nonzero = [row for row in self.entries if any(row)]
        if p is None:
            dens = [lcm(*(x.denominator for x in row)) for row in nonzero]
            m = [[x.numerator * d // x.denominator for x in r] for r, d in zip(nonzero, dens)]
        else:
            m = [list(row) for row in nonzero]
        n, width = len(m), self.ncols
        level = [1] * n  # the pivot that last reduced each row
        lead = [next(compress(count(), row)) for row in m]  # no non-zero left of it
        pivots = []
        prev = 1
        for pr in range(n):
            pc = min(lead[pr:])
            r = lead.index(pc, pr)
            while pc < width and not m[r][pc]:
                lead[r] = next(compress(count(pc + 1), m[r][pc + 1 :]), width)
                pc = min(lead[pr:])
                r = lead.index(pc, pr)
            if pc == width:
                break
            m[pr], m[r] = m[r], m[pr]
            level[pr], level[r] = level[r], level[pr]
            lead[pr], lead[r] = lead[r], lead[pr]
            top = m[pr]
            # a row at or below pr is zero left of pc; a row above needs every column
            if p is None and level[pr] != prev:
                top[pc:] = [x * prev // level[pr] for x in top[pc:]]
            a, tail = top[pc], top[pc:]
            for r in range(0 if full else pr + 1, n):
                row, b = m[r], m[r][pc]
                if r == pr or not b:
                    continue
                start, ys = (pc, tail) if r > pr else (0, top)
                if p:
                    row[start:] = [(a * x - b * y) % p for x, y in zip(row[start:], ys)]
                else:
                    row[start:] = [(a * x - b * y) // level[r] for x, y in zip(row[start:], ys)]
                level[r], lead[r] = a, pc + 1
            pivots.append(pc)
            level[pr] = prev = a
        return m, tuple(pivots)

    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where ``pivots`` is the strictly increasing
        tuple of pivot column indices.  Each pivot row of the full
        elimination is divided by its own pivot; zero rows follow.
        """
        f = self.field
        rows, pivots = self._eliminate(True)
        out = []
        for row, pc in zip(rows, pivots):
            inv = f.inv(row[pc])
            out.append([f.reduce(x * inv) for x in row])
        out += [[0] * self.ncols] * (self.nrows - len(pivots))
        return Matrix._raw(f, out, self.ncols), pivots

    def rank(self) -> int:
        return len(self._eliminate(False)[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the right null space, one per free column
        ``j``: 1 at ``j`` and minus column ``j`` of the rref at the pivots."""
        red, pivots = self.rref()
        f = self.field
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        rows = [[0] * len(free) for _ in range(self.ncols)]
        for k, j in enumerate(free):
            rows[j][k] = 1
        for row, pc in zip(red.entries, pivots):
            rows[pc] = [f.reduce(-row[j]) for j in free]
        return Matrix._raw(f, rows, len(free))

    def image_basis(self) -> "Matrix":
        """Columns of ``self`` at the pivots of its forward elimination, the
        first columns independent of those before them."""
        kept = self._eliminate(False)[1]
        return Matrix._raw(self.field, [[row[j] for j in kept] for row in self.entries], len(kept))


def check_product_shape(a, b):
    """Raise :class:`ShapeError` unless the dense matrices ``a`` and ``b``
    (``nrows``, ``ncols``) can be multiplied as ``a @ b``."""
    if a.ncols != b.nrows:
        raise ShapeError(
            "product shape mismatch: %dx%d @ %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols)
        )


def dense_product(a, b, zero):
    """Rows of ``a @ b`` for dense matrices (``nrows``, ``ncols``, row-major
    ``entries``) of ring elements that are false exactly when zero; ``zero``
    starts every sum.  Each row of ``b`` is scanned once for its non-zero
    entries and only pairs of non-zero entries are multiplied, so the products
    number the sum over k of the non-zeros in column k of ``a`` times those in
    row k of ``b``.  Sums are left as ``+`` gives them; a field caller reduces
    them."""
    check_product_shape(a, b)
    b_terms = [[(j, y) for j, y in enumerate(row) if y] for row in b.entries]
    rows = []
    for row in a.entries:
        acc = [zero] * b.ncols
        for x, terms in zip(row, b_terms):
            if terms and x:
                for j, y in terms:
                    acc[j] += x * y
        rows.append(acc)
    return rows


def _contained(a: Matrix, b: Matrix):
    """``(is a's column span inside b's, rank of b)``, after checking that
    both have one field and one ambient dimension."""
    _check_same_field(a, b)
    if a.nrows != b.nrows:
        raise ShapeError("ambient dimensions differ: %d vs %d" % (a.nrows, b.nrows))
    rank = b.rank()
    return a.ncols == 0 or b.hstack(a).rank() == rank, rank


def subspace_leq(a: Matrix, b: Matrix) -> bool:
    """Is the column span of ``a`` contained in the column span of ``b``?"""
    return _contained(a, b)[0]


def same_span(a: Matrix, b: Matrix) -> bool:
    """Equal column spans: ``a``'s lies in ``b``'s and has the same dimension.
    Three eliminations; no bases are compared entrywise."""
    inside, rank = _contained(a, b)
    return inside and a.rank() == rank
