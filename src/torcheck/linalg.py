"""Exact dense linear algebra over the rationals and over prime fields.

Every homology number in this package reduces to a rank, kernel or column
span of a dense matrix of modest size (an induced map of a length-6
resolution is 96x192).  Rank, rref and image basis share one fraction-free
elimination on Python ints (Bareiss); rank and image basis need only its
forward pass.  A rational entry is a Python ``int`` when it is an integer and
a ``fractions.Fraction`` otherwise; prime-field entries are integer residues
in ``[0, p)``.  No floating point anywhere, and so no ``/``: an exact quotient
is ``Fraction(a, b)``.

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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm


class FieldMismatchError(ValueError):
    """Operands live over different coefficient fields."""


class ShapeError(ValueError):
    """Matrix shapes are incompatible with the requested operation."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
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

    @classmethod
    def _raw(cls, ring, rows, ncols):
        """Internal constructor for rows of ``ncols`` entries already in the ring."""
        m = cls.__new__(cls)
        m._set(ring, tuple(tuple(r) for r in rows), ncols)
        return m

    def _set(self, ring, rows, ncols):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

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
        clears above each pivot; else zero columns are dropped.

        A zero row never pivots and no step changes it, so zero rows are
        dropped first, before any scaling or column scan.  They are most of
        an induced map's rows: a matrix with entries in the radical of S maps
        N^p into rad(N^q), so where some vectors of N's basis span rad(N), as
        a quotient module's often do, every row at another basis vector is
        zero (64 of the 96 rows of the largest map of a length-6 residue
        resolution)."""
        p = self.field.p if isinstance(self.field, PrimeField) else None
        nonzero = [row for row in self.entries if any(row)]
        if p is None:
            dens = [lcm(*(x.denominator for x in row)) for row in nonzero]
            m = [[x.numerator * d // x.denominator for x in r] for r, d in zip(nonzero, dens)]
        else:
            m = [list(row) for row in nonzero]
        cols = range(self.ncols) if full else [j for j, c in enumerate(zip(*m)) if any(c)]
        if not full:  # a column that is zero in every row never pivots
            m = [[row[j] for j in cols] for row in m]
        n = len(m)
        level = [1] * n  # the pivot that last reduced each row
        pivots = []
        prev = 1
        for pc in range(len(cols)):
            pr = len(pivots)
            if pr == n:
                break
            r = next((r for r in range(pr, n) if m[r][pc]), None)
            if r is None:
                continue
            m[pr], m[r] = m[r], m[pr]
            level[pr], level[r] = level[r], level[pr]
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
                level[r] = a
            pivots.append(cols[pc])
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
            if isinstance(f, PrimeField):
                inv = f.inv(row[pc])
                out.append([x * inv % f.p for x in row])
            else:
                out.append([f.reduce(Fraction(x, row[pc])) for x in row])
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


def dense_product(a, b, zero):
    """Rows of ``a @ b`` for dense matrices (``nrows``, ``ncols``, row-major
    ``entries``) of ring elements that are false exactly when zero; ``zero``
    starts every sum.  Each row of ``b`` is scanned once for its non-zero
    entries and only pairs of non-zero entries are multiplied, so the products
    number the sum over k of the non-zeros in column k of ``a`` times those in
    row k of ``b``.  Sums are left as ``+`` gives them; a field caller reduces
    them."""
    if a.ncols != b.nrows:
        raise ShapeError(
            "product shape mismatch: %dx%d @ %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols)
        )
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
