"""Exact dense linear algebra over the rationals and over prime fields.

Every homology number in this package reduces to a rank, kernel or column
span of a dense matrix of modest size (an induced map of a length-6
resolution is 96x192), so the implementation favours clarity over
asymptotics: plain Gauss-Jordan elimination with exact arithmetic.  Rational
entries are ``fractions.Fraction``, prime-field entries are integer residues
in ``[0, p)``.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


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
    """The field of rational numbers; values are reduced ``Fraction`` objects."""

    kind = "rationals"
    label = "q"

    def normalize(self, x):
        if isinstance(x, float):
            raise TypeError("floating point values are not exact; got %r" % (x,))
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def parse(self, s: str):
        """Parse ``"num/den"`` or ``"num"`` (integer strings only)."""
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))

    def format(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p for a word-size prime p; values are residues in [0, p)."""

    kind = "prime_field"

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p < 2**31):
            raise ValueError("prime field characteristic must be an integer in [2, 2^31); got %r" % (p,))
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

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

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


class Matrix:
    """Immutable dense matrix over a fixed coefficient field.

    Entries are stored row-major as a tuple of row tuples, already normalized
    into the field.  A matrix may have zero rows or zero columns; ``ncols``
    must then be supplied explicitly where it cannot be inferred.
    """

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, entries, ncols=None):
        rows = tuple(tuple(field.normalize(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != width:
                raise ShapeError("ncols=%d disagrees with row width %d" % (ncols, width))
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, field, rows, ncols):
        """Internal constructor for entries already normalized into the field."""
        m = cls.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "entries", tuple(tuple(r) for r in rows))
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls._raw(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls._raw(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ShapeError("nrows required for a matrix with no columns")
        return cls(field, [[c[i] for c in cols] for i in range(nrows)], ncols=len(cols))

    # -- basics -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.entries)
        return "Matrix(%dx%d over %r: [%s])" % (self.nrows, self.ncols, self.field, body)

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for row in self.entries for x in row)

    def column(self, j):
        if not 0 <= j < self.ncols:
            raise ShapeError("column index %d out of range" % j)
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def hstack(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if self.nrows != other.nrows:
            raise ShapeError("hstack row counts differ: %d vs %d" % (self.nrows, other.nrows))
        return Matrix._raw(
            self.field,
            [self.entries[i] + other.entries[i] for i in range(self.nrows)],
            self.ncols + other.ncols,
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        _check_same_field(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("addition shape mismatch")
        f = self.field
        return Matrix._raw(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Matrix._raw(f, [[f.neg(x) for x in row] for row in self.entries], self.ncols)

    def scaled(self, c) -> "Matrix":
        f = self.field
        c = f.normalize(c)
        return Matrix._raw(f, [[f.mul(c, x) for x in row] for row in self.entries], self.ncols)

    def __matmul__(self, other):
        _check_same_field(self, other)
        if self.ncols != other.nrows:
            raise ShapeError(
                "product shape mismatch: %dx%d @ %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        f = self.field
        zero = f.zero()
        is_zero, add, mul = f.is_zero, f.add, f.mul
        out = []
        for row_i in self.entries:
            acc = [zero] * other.ncols
            for k, a in enumerate(row_i):
                if is_zero(a):
                    continue
                row_k = other.entries[k]
                acc = [add(x, mul(a, b)) for x, b in zip(acc, row_k)]
            out.append(acc)
        return Matrix._raw(f, out, other.ncols)

    def apply(self, vec):
        """Matrix-vector product; ``vec`` has length ``ncols``."""
        if len(vec) != self.ncols:
            raise ShapeError("vector length %d != ncols %d" % (len(vec), self.ncols))
        f = self.field
        vec = [f.normalize(x) for x in vec]
        out = []
        for row in self.entries:
            acc = f.zero()
            for a, x in zip(row, vec):
                acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where ``pivots`` is the strictly increasing
        tuple of pivot column indices.
        """
        f = self.field
        m = [list(row) for row in self.entries]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            if pr == self.nrows:
                break
            pivot_row = None
            for r in range(pr, self.nrows):
                if not f.is_zero(m[r][pc]):
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            inv = f.inv(m[pr][pc])
            m[pr] = [f.mul(inv, x) for x in m[pr]]
            for r in range(self.nrows):
                if r != pr and not f.is_zero(m[r][pc]):
                    c = m[r][pc]
                    m[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
        return Matrix._raw(f, m, self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the right null space (ncols - rank of them)."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        f = self.field
        cols = []
        for j in free:
            v = [f.zero()] * self.ncols
            v[j] = f.one()
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(red.entries[i][j])
            cols.append(v)
        return Matrix.from_cols(f, cols, nrows=self.ncols)

    def image_basis(self) -> "Matrix":
        """Columns of ``self`` at the pivot positions; they span the column space."""
        _, pivots = self.rref()
        return Matrix.from_cols(self.field, [self.column(j) for j in pivots], nrows=self.nrows)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ShapeError("only square matrices are invertible")
        n = self.nrows
        aug = self.hstack(Matrix.identity(self.field, n))
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix._raw(self.field, [row[n:] for row in red.entries], n)


def dense_product(a, b, zero):
    """Rows of ``a @ b`` for dense matrices (``nrows``, ``ncols``, row-major
    ``entries``) of any ring elements with ``is_zero()``; ``zero`` starts
    every sum.  As in :meth:`Matrix.__matmul__`, zero entries of ``a`` are
    skipped; each row's non-zero entries are found once for all columns."""
    if a.ncols != b.nrows:
        raise ShapeError(
            "product shape mismatch: %dx%d @ %dx%d" % (a.nrows, a.ncols, b.nrows, b.ncols)
        )
    rows = []
    for row in a.entries:
        terms = [(x, b.entries[j]) for j, x in enumerate(row) if not x.is_zero()]
        out = []
        for k in range(b.ncols):
            acc = zero
            for x, b_row in terms:
                acc = acc + x * b_row[k]
            out.append(acc)
        rows.append(out)
    return rows


def subspace_leq(a: Matrix, b: Matrix) -> bool:
    """Is the column span of ``a`` contained in the column span of ``b``?"""
    _check_same_field(a, b)
    if a.nrows != b.nrows:
        raise ShapeError("ambient dimensions differ: %d vs %d" % (a.nrows, b.nrows))
    if a.ncols == 0:
        return True
    return b.hstack(a).rank() == b.rank()


def same_span(a: Matrix, b: Matrix) -> bool:
    """Mutual containment of column spans; never compares bases entrywise."""
    return subspace_leq(a, b) and subspace_leq(b, a)
