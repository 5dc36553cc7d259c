"""Matrices over an Artinian algebra, the module maps they induce, chain
complexes and their homology, and Tor computed from a specialized free
resolution.

Row-vector convention throughout: a p x q algebra matrix ``a`` sends an
element (n_1, ..., n_p) of N^p to (sum_i a_i1 . n_i, ..., sum_i a_iq . n_i)
in N^q.  This matches resolutions written left to right as

    0 -> R^2 --X--> R^4 --Y--> R^8

with X of shape 2 x 4.  The mirror-image column convention is isomorphic but
must not be mixed with this one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import AlgebraElement, FDModule
from .linalg import Matrix, ShapeError, dense_product, same_span


class NotAComplexError(ValueError):
    """Consecutive differentials do not compose to zero."""

    def __init__(self, message, position=None, entry=None):
        super().__init__(message)
        self.position = position
        self.entry = entry


class AlgebraMatrix:
    """Dense matrix of :class:`AlgebraElement` entries over one algebra.

    As for :class:`~torcheck.linalg.Matrix`, a matrix with no rows takes its
    width from ``ncols``.
    """

    __slots__ = ("algebra", "nrows", "ncols", "entries")

    def __init__(self, algebra, entries, ncols=None):
        rows = tuple(tuple(row) for row in entries)
        width = len(rows[0]) if rows else ncols or 0
        if ncols is not None and ncols != width:
            raise ShapeError("ncols=%d disagrees with row width %d" % (ncols, width))
        for row in rows:
            if len(row) != width:
                raise ShapeError("ragged rows")
            for e in row:
                if not isinstance(e, AlgebraElement) or e.algebra != algebra:
                    raise ValueError("entry is not an element of the given algebra")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraMatrix is immutable")

    @classmethod
    def zeros(cls, algebra, nrows, ncols):
        z = algebra.zero()
        return cls(algebra, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, algebra, n):
        one, zero = algebra.one(), algebra.zero()
        return cls(algebra, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMatrix)
            and self.algebra == other.algebra
            and self.entries == other.entries
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.algebra, self.nrows, self.ncols))

    def __matmul__(self, other):
        if self.algebra != other.algebra:
            raise ValueError("matrices over different algebras")
        rows = dense_product(self, other, self.algebra.zero())
        return AlgebraMatrix(self.algebra, rows, other.ncols)

    def __repr__(self):
        return "AlgebraMatrix(%dx%d over %r)" % (self.nrows, self.ncols, self.algebra)


def substitute_matrix(m, assignment, algebra) -> AlgebraMatrix:
    """Entrywise polynomial substitution into the algebra."""
    return AlgebraMatrix(
        algebra,
        [[p.substitute(assignment, algebra) for p in row] for row in m.entries],
        m.ncols,
    )


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
    column vectors.  The public constructor checks commutation with every
    action operator (:func:`check_module_map`); maps the library builds
    (zero, identity, induced maps and composites) commute by construction
    and skip the check.
    """

    def __init__(self, source: FDModule, target: FDModule, matrix: Matrix):
        check_module_map(source, target, matrix)
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def _raw(cls, source, target, matrix):
        """Internal constructor for a map that commutes by construction."""
        m = cls.__new__(cls)
        m.source = source
        m.target = target
        m.matrix = matrix
        return m

    @classmethod
    def zero(cls, source, target):
        if source.algebra != target.algebra:
            raise ValueError("source and target over different algebras")
        return cls._raw(source, target, Matrix.zeros(source.algebra.field, target.dim, source.dim))

    @classmethod
    def identity(cls, module):
        return cls._raw(module, module, Matrix.identity(module.algebra.field, module.dim))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __repr__(self):
        return "ModuleMap(%d -> %d)" % (self.source.dim, self.target.dim)


def induced_map(a: AlgebraMatrix, module: FDModule) -> ModuleMap:
    """Map N^p -> N^q induced by a p x q algebra matrix under the row-vector
    convention; the underlying K-matrix is the q x p grid of action operators
    with block (k, i) the action of a[i][k]."""
    if a.algebra != module.algebra:
        raise ValueError("matrix and module over different algebras")
    f = module.algebra.field
    d = module.dim
    source = module.direct_sum_power(a.nrows)
    target = module.direct_sum_power(a.ncols)
    rows = []
    for k in range(a.ncols):
        blocks = [module.element_action(a.entries[i][k]) for i in range(a.nrows)]
        for r in range(d):
            row = []
            for b in blocks:
                row.extend(b.entries[r])
            rows.append(row)
    return ModuleMap._raw(source, target, Matrix._raw(f, rows, d * a.nrows))


def compose(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f after g."""
    if g.target != f.source:
        raise ShapeError("compose: target of second argument must equal source of first")
    return ModuleMap._raw(g.source, f.target, f.matrix @ g.matrix)


@dataclass(frozen=True)
class HomologySummary:
    length: int
    kernel_dim: int
    image_dim: int


def homology_at(incoming, outgoing) -> HomologySummary:
    """Homology at the middle module of ``incoming: A -> B``, ``outgoing: B -> C``.

    Either map may be ``None`` for the zero map at an end of a complex.  The
    homology subquotient is automatically action-closed, so only its length
    (= kernel dim - image dim) and the two dimensions are reported.
    """
    maps = [m for m in (incoming, outgoing) if m is not None]
    if not maps:
        raise ValueError("at least one map is required")
    cx = ChainComplex(maps)
    return cx.homology()[0 if incoming is None else 1]


class ChainComplex:
    """Bounded complex M_k -> ... -> M_0 built from its maps: ``maps[j]``
    sends ``modules[j]`` to ``modules[j+1]`` (modules are listed from
    homological degree k down to 0).  The maps must chain and consecutive
    composites must vanish; this is the one place where a composite of
    K-matrices is checked."""

    def __init__(self, maps):
        maps = list(maps)
        if not maps:
            raise ValueError("a complex needs at least one map")
        for j in range(len(maps) - 1):
            if maps[j].target != maps[j + 1].source:
                raise ShapeError("maps %d and %d do not chain" % (j, j + 1))
            if not (maps[j + 1].matrix @ maps[j].matrix).is_zero():
                raise NotAComplexError(
                    "composite of maps %d and %d is nonzero" % (j, j + 1), position=j
                )
        self.modules = [maps[0].source] + [f.target for f in maps]
        self.maps = maps

    @property
    def top_degree(self) -> int:
        return len(self.maps)

    def homology(self):
        """Summaries listed from the left end (degree k) to degree 0."""
        ranks = [f.matrix.rank() for f in self.maps] + [0]
        out = []
        for pos, m in enumerate(self.modules):
            ker = m.dim - ranks[pos]
            im = ranks[pos - 1] if pos > 0 else 0
            out.append(HomologySummary(ker - im, ker, im))
        return out


@dataclass(frozen=True)
class TorReport:
    """Homology of a specialized resolution tensored with a module.

    ``degrees[i]`` is the summary in homological degree i (degree 0 is the
    cokernel end); ``complex`` is the complex of induced maps it was taken
    from, with ``complex.maps`` in resolution order.
    """

    degrees: tuple
    complex: ChainComplex

    def lengths(self):
        return tuple(h.length for h in self.degrees)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * h.length for i, h in enumerate(self.degrees))


def tor_from_resolution(resolution, assignment, module) -> TorReport:
    """Tor of the module presented by a free resolution against ``module``.

    ``resolution`` lists the differentials of ``0 -> R^a --d_k--> ... --d_1-->
    R^z`` left to right as polynomial matrices with chaining shapes; it must
    hold at least one.  Each is specialized once through ``assignment`` into
    the module's algebra, induced on powers of ``module``, and the homology of
    the resulting complex is returned with degree 0 at the cokernel end.

    Consecutive specialized matrices must multiply to zero in the algebra
    (substitution is a ring homomorphism, so this is the symbolic composite
    substituted); otherwise :class:`NotAComplexError` reports which composite
    and which entry, the first non-zero in row-major order, failed.
    """
    resolution = list(resolution)
    if not resolution:
        raise ValueError("a resolution needs at least one matrix")
    for i in range(len(resolution) - 1):
        if resolution[i].ncols != resolution[i + 1].nrows:
            raise ShapeError(
                "resolution matrices %d and %d do not chain: %dx%d then %dx%d"
                % (
                    i,
                    i + 1,
                    resolution[i].nrows,
                    resolution[i].ncols,
                    resolution[i + 1].nrows,
                    resolution[i + 1].ncols,
                )
            )
    specialized = [substitute_matrix(m, assignment, module.algebra) for m in resolution]
    for i in range(len(specialized) - 1):
        product = specialized[i] @ specialized[i + 1]
        for r, row in enumerate(product.entries):
            for c, value in enumerate(row):
                if not value.is_zero():
                    raise NotAComplexError(
                        "composite of resolution matrices %d and %d substitutes to a "
                        "nonzero element at entry (%d, %d)" % (i, i + 1, r, c),
                        position=i,
                        entry=(r, c),
                    )
    cx = ChainComplex(induced_map(a, module) for a in specialized)
    return TorReport(tuple(reversed(cx.homology())), cx)


def image_equals_radical_power(f: ModuleMap, k: int = 1) -> bool:
    """Does the image of ``f`` equal rad^k of its target, as subspaces?

    Checked by mutual containment of spans, never by comparing bases.
    """
    image = f.matrix.image_basis()
    rad = f.target.radical_power_subspace(k)
    return same_span(image, rad.basis)
