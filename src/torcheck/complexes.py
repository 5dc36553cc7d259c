"""Matrices over an Artinian algebra, the K-matrices of the module maps they
induce, chain complexes of K-matrices and their homology, and Tor computed
from a specialized free resolution.

Row-vector convention throughout: a p x q algebra matrix ``a`` sends an
element (n_1, ..., n_p) of N^p to (sum_i a_i1 . n_i, ..., sum_i a_iq . n_i)
in N^q.  This matches resolutions written left to right as

    0 -> R^2 --X--> R^4 --Y--> R^8

with X of shape 2 x 4.  The mirror-image column convention is isomorphic but
must not be mixed with this one.  Its one owner is
:func:`torcheck.algebras.block_operator`, which writes every induced K-matrix.

A length over a local algebra with residue field K is a K-dimension, so a
complex of induced maps is its list of K-matrices and its homology is read
from their ranks.  A list of differentials for Tor is checked (non-empty,
chaining shapes) in one place, :func:`tor_from_specialized`.  The powers
N^k are built as modules only where their module structure is asked about
(radicals, in :mod:`torcheck.rigidity`).

An :class:`AlgebraMatrix` is its coefficient stack, one K-matrix per basis
element, and a composite is taken by the structure constants.  Its public
constructor checks that each entry from outside belongs to the algebra;
products, substitutions and the matrices the command line has parsed and
checked are built from their stacks by the trusted ``_raw``.
"""

from __future__ import annotations

from collections import namedtuple

from .algebras import AlgebraElement, FDModule, block_operator
from .linalg import Matrix, ShapeError, dense_product
from .poly import Substitution


class NotAComplexError(ValueError):
    """Consecutive differentials do not compose to zero."""

    def __init__(self, message, position=None, entry=None):
        super().__init__(message)
        self.position = position
        self.entry = entry


def _check_composite(product, position, what):
    """Raise :class:`NotAComplexError` at the first non-zero entry, row-major,
    of the composite ``product`` of the maps at ``position`` and
    ``position + 1``; ``what`` words the message up to the entry, with a
    ``%d`` for each of the two."""
    entry = product.first_nonzero()
    if entry is not None:
        message = what % (position, position + 1) + " at entry (%d, %d)" % entry
        raise NotAComplexError(message, position=position, entry=entry)


class AlgebraMatrix:
    """Immutable matrix over an algebra, stored as its coefficient stack:
    ``stack[l]`` is the K-matrix of the entries' coordinates on basis element
    ``l``.  An entry from outside must be an :class:`AlgebraElement` of that
    algebra."""

    __slots__ = ("algebra", "stack", "nrows", "ncols")

    def __init__(self, algebra, rows, ncols=None):
        rows = [list(row) for row in rows]
        if not all(isinstance(e, AlgebraElement) and e.algebra == algebra for r in rows for e in r):
            raise ValueError("entry is not an element of the given algebra")
        # the public Matrix constructor checks the shape of each layer
        layers = ([[e.coords[l] for e in row] for row in rows] for l in range(algebra.dim))
        self._set(algebra, tuple(Matrix(algebra.field, layer, ncols) for layer in layers))

    @classmethod
    def _raw(cls, algebra, stack):
        """Internal constructor for ``algebra.dim`` K-matrices of one shape,
        their entries already in the algebra's field."""
        m = cls.__new__(cls)
        m._set(algebra, tuple(stack))
        return m

    def _set(self, algebra, stack):
        for name, value in zip(self.__slots__, (algebra, stack, stack[0].nrows, stack[0].ncols)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraMatrix is immutable")

    def entry(self, i, j):
        return AlgebraElement(self.algebra, [m.entries[i][j] for m in self.stack])

    def first_nonzero(self):
        """``(row, col)`` of the first non-zero entry in row-major order, or ``None``."""
        return min(filter(None, (m.first_nonzero() for m in self.stack)), default=None)

    def __eq__(self, other):
        same = type(other) is AlgebraMatrix
        return same and (self.algebra, self.stack) == (other.algebra, other.stack)

    def __repr__(self):
        return "AlgebraMatrix(%dx%d)" % (self.nrows, self.ncols)

    def __matmul__(self, other):
        """Layer ``k`` of the product sums ``c^k_lm . A_l B_m`` over the pairs
        ``(l, m)`` with ``mult[l][m]``, ``A_l`` and ``B_m`` non-zero, and is
        reduced once, where it is stored."""
        if self.algebra != other.algebra:
            raise ValueError("matrices over different algebras")
        check_chain([self, other], "factors")
        f, mult, ncols = self.algebra.field, self.algebra.mult, other.ncols
        right = [(m, b) for m, b in enumerate(other.stack) if b.first_nonzero() is not None]
        terms = {}  # output basis index -> (structure constant, unreduced rows of A_l B_m)
        for l, a in enumerate(self.stack):
            for m, b in right if a.first_nonzero() is not None else ():
                if any(mult[l][m]):
                    product = dense_product(a, b, 0)
                    for k, c in enumerate(mult[l][m]):
                        if c:
                            terms.setdefault(k, []).append((c, product))
        stack = [Matrix._raw(f, [[0] * ncols] * self.nrows, ncols)] * self.algebra.dim
        rows, cols = range(self.nrows), range(ncols)
        for k, parts in terms.items():
            sums = [[f.reduce(sum(c * r[i][j] for c, r in parts)) for j in cols] for i in rows]
            stack[k] = Matrix._raw(f, sums, ncols)
        return AlgebraMatrix._raw(self.algebra, stack)


def check_chain(matrices, what):
    """Raise :class:`ShapeError` unless each matrix's columns match the next
    one's rows, as the row-vector convention composes them; ``what`` names the
    list in the message."""
    for i, (a, b) in enumerate(zip(matrices, matrices[1:])):
        if a.ncols != b.nrows:
            raise ShapeError(
                "%s %d and %d do not chain: %dx%d then %dx%d"
                % (what, i, i + 1, a.nrows, a.ncols, b.nrows, b.ncols)
            )


def substitute_matrix(m, assignment, algebra) -> AlgebraMatrix:
    """Entrywise polynomial substitution into the algebra by one
    :class:`~torcheck.poly.Substitution`, so the entries share their images
    and the powers of them, split into layers by ``coefficient_stack``.
    Raises :class:`~torcheck.linalg.FieldMismatchError` unless the matrix and
    the algebra have one field, checked once per matrix, so a matrix with no
    non-zero entry is checked too.  A zero entry is not substituted."""
    substitution = Substitution(m.table, assignment, algebra)
    zero = (0,) * algebra.dim
    # a zero polynomial has no terms: no method call for a resolution's many zeros
    grid = [[substitution(p).coords if p.terms else zero for p in row] for row in m.entries]
    return AlgebraMatrix._raw(algebra, algebra.coefficient_stack(grid, m.ncols))


def check_module_map(source: FDModule, target: FDModule, matrix: Matrix):
    """Raise unless ``matrix`` (shape ``target.dim x source.dim``) is a map of
    modules over one algebra: it must commute with every action operator."""
    if source.algebra != target.algebra:
        raise ValueError("source and target over different algebras")
    if matrix.nrows != target.dim or matrix.ncols != source.dim:
        raise ShapeError(
            "matrix shape %dx%d does not map dim %d to dim %d"
            % (matrix.nrows, matrix.ncols, source.dim, target.dim)
        )
    for a_src, a_tgt in zip(source.actions, target.actions):
        if matrix @ a_src != a_tgt @ matrix:
            raise ValueError("map does not commute with the algebra action")


class ModuleMap:
    """K-linear map between modules over one algebra, commuting with the action.

    ``matrix`` has shape ``target.dim x source.dim`` and acts on coordinate
    column vectors.  The constructor checks commutation with every action
    operator (:func:`check_module_map`).  The library builds none: its
    induced maps are bare K-matrices, which commute by construction.
    """

    def __init__(self, source: FDModule, target: FDModule, matrix: Matrix):
        check_module_map(source, target, matrix)
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self):
        return "ModuleMap(%d -> %d)" % (self.source.dim, self.target.dim)


def induced_map(a: AlgebraMatrix, module: FDModule) -> Matrix:
    """K-matrix of the map N^p -> N^q induced by a p x q algebra matrix under
    the row-vector convention, of shape ``q*dim x p*dim``.  It is the q x p
    grid of action operators that :func:`block_operator` writes from the
    matrix's coefficient stack, with block (k, i) the action of a[i][k]; no
    module N^p or N^q is built."""
    if a.algebra != module.algebra:
        raise ValueError("matrix and module over different algebras")
    return block_operator(module.algebra.field, module.actions, a.stack, module.dim)


class HomologySummary(namedtuple("HomologySummary", "length kernel_dim image_dim")):
    """Homology at one module: its length (kernel dim - image dim) and both dims."""

    __slots__ = ()


class ChainComplex:
    """Bounded complex of K-spaces V_k -> ... -> V_0 given by its K-matrices:
    ``maps[j]`` sends a vector of dimension ``dims[j]`` to one of dimension
    ``dims[j+1]`` (listed from homological degree k down to 0), so it has
    shape ``dims[j+1] x dims[j]``.  The public constructor checks that the
    maps chain and that consecutive composites vanish, naming the first
    non-zero entry of a composite that does not."""

    def __init__(self, maps):
        maps = list(maps)
        if not maps:
            raise ValueError("a complex needs at least one map")
        for j in range(len(maps) - 1):
            if maps[j].nrows != maps[j + 1].ncols:
                raise ShapeError("maps %d and %d do not chain" % (j, j + 1))
            _check_composite(maps[j + 1] @ maps[j], j, "composite of maps %d and %d is nonzero")
        self._set(maps)

    @classmethod
    def _raw(cls, maps):
        """Internal constructor for maps that chain and compose to zero by
        construction."""
        cx = cls.__new__(cls)
        cx._set(list(maps))
        return cx

    def _set(self, maps):
        self.maps = maps
        self.dims = [maps[0].ncols] + [f.nrows for f in maps]

    def homology(self):
        """Summaries listed from the left end (degree k) to degree 0."""
        ranks = [f.rank() for f in self.maps] + [0]
        out = []
        for pos, dim in enumerate(self.dims):
            ker = dim - ranks[pos]
            im = ranks[pos - 1] if pos > 0 else 0
            out.append(HomologySummary(ker - im, ker, im))
        return out


class TorReport(namedtuple("TorReport", "degrees complex")):
    """Homology of a specialized resolution tensored with a module.

    ``degrees[i]`` is the summary in homological degree i (degree 0 is the
    cokernel end); ``complex`` is the :class:`ChainComplex` it was taken
    from, whose ``maps`` are the induced K-matrices in resolution order.
    """

    __slots__ = ()

    def lengths(self):
        return tuple(h.length for h in self.degrees)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * h.length for i, h in enumerate(self.degrees))


def tor_from_resolution(resolution, assignment, module) -> TorReport:
    """Tor of the module presented by a free resolution against ``module``.

    ``resolution`` lists the differentials of ``0 -> R^a --d_k--> ... --d_1-->
    R^z`` left to right as polynomial matrices.  Each is specialized once
    through ``assignment`` into the module's algebra, and
    :func:`tor_from_specialized` checks the specialized list and takes Tor of
    it.  The resolution and the module must have one field: substitution
    raises :class:`~torcheck.linalg.FieldMismatchError` otherwise, before
    any shape is checked.
    """
    return tor_from_specialized(
        [substitute_matrix(m, assignment, module.algebra) for m in resolution], module
    )


def tor_from_specialized(matrices, module) -> TorReport:
    """Tor against ``module`` of the complex ``0 -> S^a --d_k--> ... -->
    S^z`` whose differentials ``matrices`` lists left to right as
    :class:`AlgebraMatrix` objects over the module's algebra.  The list is
    checked here, and only here: it must hold at least one matrix, and their
    shapes must chain.  Each is induced on powers of ``module``, and the
    homology of the resulting complex is returned with degree 0 at the
    cokernel end.

    Consecutive matrices must multiply to zero in the algebra (for a
    specialized resolution, substitution is a ring homomorphism, so this is
    the symbolic composite substituted); otherwise :class:`NotAComplexError`
    reports which composite and which entry, the first non-zero in
    row-major order, failed.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("a resolution needs at least one matrix")
    check_chain(matrices, "resolution matrices")
    what = "composite of resolution matrices %d and %d substitutes to a nonzero element"
    for i in range(len(matrices) - 1):
        _check_composite(matrices[i] @ matrices[i + 1], i, what)
    # induced_map(a @ b) == induced_map(b) @ induced_map(a), so the induced
    # composites vanish too and are not multiplied out again
    cx = ChainComplex._raw(induced_map(a, module) for a in matrices)
    return TorReport(tuple(reversed(cx.homology())), cx)
