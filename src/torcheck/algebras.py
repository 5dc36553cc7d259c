"""Finite-dimensional local algebras given by structure constants, and their
finitely generated modules realized as vector spaces with one action operator
per algebra basis element.

Algebras here are commutative, associative, unital and local with residue
field K: basis element 0 is the unit, the remaining basis elements span the
Jacobson radical, and the radical is nilpotent.  An algebra given from
outside is checked as its own regular module, by the module axiom check; the
algebras built here are valid by construction and skip it.
Element coordinates are normalized into the field once, where they come in:
in :meth:`ArtinAlgebra.element` and the scalar of a scalar product.  Every
other element is built by the arithmetic here, which reduces each coordinate.
Products of coordinate vectors have one owner,
:meth:`ArtinAlgebra.coordinate_product`, which element multiplication and
polynomial substitution share.
A module built from given action operators is checked against the module
axioms; the modules derived here (free modules, direct sum powers, quotients)
satisfy them by construction and skip the check.  Subspaces are basis
matrices.  The library builds them only by generation (submodules, radical
powers), so their columns are independent and closed under the action by
construction and are not checked either; quotients are taken by generators.
:func:`block_operator` is the one owner of the row-vector block convention.
It takes the coefficient stack of a matrix over the algebra, one K-matrix
per basis element: the axiom check, direct sum powers, free modules and the
induced maps of :mod:`torcheck.complexes` all hand it stacks.  It visits
only the non-zero cells of the stack and of the operators, and sums Python
ints over every field: over Q it scales the operator entries it uses by the
lcm of their denominators and divides each cell it writes once, so it adds
and multiplies no ``Fraction`` unless a coefficient of the stack is one.
The length of a module over such an algebra equals its K-dimension, because
the only simple module is the 1-dimensional residue field.
"""

from fractions import Fraction
from itertools import compress, count
from math import lcm

from .linalg import Matrix, ShapeError, immutable, subspace_leq, unchecked


class ArtinAlgebra:
    """Commutative local K-algebra with unit basis element 0.

    ``mult[i][j]`` is the coordinate vector of the product of basis elements
    i and j.  Every non-unit basis element lies in the radical, so the
    quotient by the radical is the 1-dimensional residue field.
    """

    def __init__(self, field, basis_names, mult):
        basis_names = tuple(basis_names)
        n = len(basis_names)
        if n == 0 or basis_names[0] != "1":
            raise ValueError("basis must start with the unit element named '1'")
        if len(set(basis_names)) != n:
            raise ValueError("duplicate basis names")
        if len(mult) != n or any(len(row) != n for row in mult):
            raise ValueError("multiplication table must be %d x %d" % (n, n))
        table = tuple(tuple(tuple(field.normalize(c) for c in v) for v in row) for row in mult)
        if any(len(v) != n for row in table for v in row):
            raise ValueError("structure constant vector of wrong length")
        self._set(field, basis_names, table)
        self._validate()

    _raw = classmethod(unchecked)  # normalized coordinate tuples, axioms met by construction

    def _set(self, field, basis_names, mult):
        self.field = field
        self.basis_names = basis_names = tuple(basis_names)
        self.dim = len(basis_names)
        self.mult = mult
        self.radical_indices = tuple(range(1, self.dim))

    def _validate(self):
        f, n = self.field, self.dim
        for i in range(n):
            for j in range(i + 1, n):
                if self.mult[i][j] != self.mult[j][i]:
                    raise ValueError("multiplication is not commutative at (%d, %d)" % (i, j))
        # The algebra is checked as its own regular module: the unit acts as
        # the identity (a two-sided unit, by commutativity), and
        # L_i L_j = L_{e_i e_j} on every e_k is (e_i e_j) e_k = e_i (e_j e_k).
        regular = free_module(self, 1)
        check_module_axioms(self, regular.actions)
        # radical is an ideal: products never re-enter the span of the unit
        for i in range(n):
            for r in self.radical_indices:
                if self.mult[i][r][0]:
                    raise ValueError("radical span is not an ideal")
        # a nilpotent radical of an n-dimensional algebra has rad^n = 0
        if regular.radical_power_subspace(n).ncols:
            raise ValueError("radical is not nilpotent")

    # -- elements -------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        """Element with the given coordinates, normalized into the field."""
        coords = [self.field.normalize(c) for c in coords]
        if len(coords) != self.dim:
            raise ValueError("coordinate vector of wrong length")
        return AlgebraElement(self, coords)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [0] * self.dim)

    def basis_element(self, i) -> "AlgebraElement":
        coords = [0] * self.dim
        coords[i] = 1
        return AlgebraElement(self, coords)

    def generator(self, name) -> "AlgebraElement":
        return self.basis_element(self.basis_names.index(name))

    def coefficient_stack(self, grid, ncols) -> tuple:
        """The stack of a grid of coordinate vectors already in the field: one
        K-matrix per basis element, layer ``l`` holding coordinate ``l``.
        Each grid row is transposed once into its ``dim`` layer rows, which
        are empty for a row of no cells."""
        split = [list(zip(*row)) or [()] * self.dim for row in grid]
        return tuple(Matrix._raw(self.field, [r[l] for r in split], ncols) for l in range(self.dim))

    def coordinate_product(self, a, b) -> tuple:
        """Coordinates of the product of the elements with coordinate vectors
        ``a`` and ``b``, whose values are already in the field.  Zero
        coordinates are skipped, and each output coordinate is reduced."""
        acc = [0] * self.dim
        for i, x in enumerate(a):
            if not x:
                continue
            products = self.mult[i]
            for y, vector in zip(b, products):
                if not y or not any(vector):
                    continue
                xy = x * y
                for k, c in enumerate(vector):
                    if c:
                        acc[k] += xy * c
        return tuple(map(self.field.reduce, acc))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ArtinAlgebra)
            and self.field == other.field
            and self.basis_names == other.basis_names
            and self.mult == other.mult
        )

    def __hash__(self):
        return hash((self.field, self.basis_names))

    def __repr__(self):
        return "ArtinAlgebra(%s over %r)" % (", ".join(self.basis_names), self.field)


class AlgebraElement:
    """Element of an :class:`ArtinAlgebra`, stored as a coordinate vector.

    The constructor takes field values as they are; coordinates from outside
    go through :meth:`ArtinAlgebra.element`, which normalizes and checks them.

    ``+ - *`` have no library caller: they are kept as the reference
    arithmetic that tests check the coordinate and stack kernels against.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(coords))

    __setattr__ = immutable

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        reduce = self.algebra.field.reduce
        coords = [reduce(a + b) for a, b in zip(self.coords, other.coords)]
        return AlgebraElement(self.algebra, coords)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        reduce = self.algebra.field.reduce
        return AlgebraElement(self.algebra, [reduce(-a) for a in self.coords])

    def __mul__(self, other):
        f = self.algebra.field
        if not isinstance(other, AlgebraElement):
            c = f.normalize(other)
            return AlgebraElement(self.algebra, [f.reduce(c * a) for a in self.coords])
        self._check(other)
        coords = self.algebra.coordinate_product(self.coords, other.coords)
        return AlgebraElement(self.algebra, coords)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra == other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        f = self.algebra.field
        parts = []
        for name, c in zip(self.algebra.basis_names, self.coords):
            if not c:
                continue
            parts.append(f.format(c) if name == "1" else "%s*%s" % (f.format(c), name))
        return " + ".join(parts) if parts else "0"


def monomial_square_zero_algebra(field, generator_names) -> ArtinAlgebra:
    """K[g_1, ..., g_r] modulo all degree-2 monomials in the generators.

    The product of any two generators is zero, so the radical (spanned by the
    generators) squares to zero.  The table is valid by construction; only
    the names are checked.
    """
    names = ("1",) + tuple(generator_names)
    n = len(names)
    if n == 1:
        raise ValueError("at least one generator is required")
    if len(set(names)) != n:
        raise ValueError("generator names must be distinct and differ from '1'")
    unit = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    null = (0,) * n
    mult = tuple(
        tuple(unit[j] if i == 0 else unit[i] if j == 0 else null for j in range(n))
        for i in range(n)
    )
    return ArtinAlgebra._raw(field, names, mult)


def block_operator(field, actions, stack, dim) -> Matrix:
    """The K-matrix of the ``p x q`` algebra matrix with coefficient stack
    ``stack`` acting through ``actions``, one ``dim x dim`` operator per basis
    element.  Block ``(k, i)``, at rows ``k*dim`` and columns ``i*dim``, is
    the sum of ``stack[l][i][k] * actions[l]``.  Only the cells written by a
    non-zero stack entry times a non-zero operator entry are summed; a row
    with none is one shared zero tuple.  The sums are taken on Python ints:
    the operator entries that a non-zero layer of the stack uses are scaled
    by ``den``, the lcm of their denominators (1 over F_p and for integral
    operators over Q), and each written cell is divided by ``den`` and
    reduced once, after every layer has added to it."""
    p, q = stack[0].nrows, stack[0].ncols
    used, den = [], 1
    for layer, action in zip(stack, actions):
        cells = [(i, k, r[k]) for i, r in enumerate(layer.entries) for k in compress(count(), r)]
        if cells:
            numbered = enumerate(action.entries)
            # the non-zero operator entries as (row, column, entry)
            terms = [(r, j, row[j]) for r, row in numbered for j in compress(count(), row)]
            den = lcm(den, *(x.denominator for _, _, x in terms))
            used.append((cells, terms))
    sums = {}  # the written rows, each a dict of its written cells
    for cells, terms in used:
        if den != 1:
            terms = [(r, j, x.numerator * (den // x.denominator)) for r, j, x in terms]
        for i, k, c in cells:
            top, left = k * dim, i * dim
            for r, j, x in terms:
                acc = sums.setdefault(top + r, {})
                acc[left + j] = acc.get(left + j, 0) + c * x
    if den == 1:
        reduce = field.reduce
    else:
        # a sum that cancelled, an int 0 or a Fraction stack entry's
        # Fraction(0, 1), is stored as the int 0
        def reduce(v):
            return field.reduce(Fraction(v, den)) if v else 0

    rows = [(0,) * (p * dim)] * (q * dim)
    for t, acc in sums.items():
        rows[t] = out = [0] * (p * dim)
        for j, v in acc.items():
            out[j] = reduce(v)
    return Matrix._raw(field, rows, p * dim)


def check_module_axioms(algebra, actions):
    """Raise ``ValueError`` unless ``actions`` (one square operator per algebra
    basis element, over the algebra field) make a module: the unit acts as
    the identity and the operators multiply by the structure constants."""
    if len(actions) != algebra.dim:
        raise ValueError("need one action operator per algebra basis element")
    dim = actions[0].nrows
    f = algebra.field
    for a in actions:
        if a.field != f or a.nrows != dim or a.ncols != dim:
            raise ValueError("action operators must be square over the algebra field")
    if actions[0] != Matrix.identity(f, dim):
        raise ValueError("unit must act as the identity")
    for i, products in enumerate(algebra.mult):
        for j, coords in enumerate(products):
            product = block_operator(f, actions, algebra.coefficient_stack([[coords]], 1), dim)
            if actions[i] @ actions[j] != product:
                raise ValueError("actions violate the structure constants at (%d, %d)" % (i, j))


class FDModule:
    """Finite-dimensional module over an :class:`ArtinAlgebra`.

    The module is a K-space of dimension ``dim`` together with one ``dim x
    dim`` operator per algebra basis element.  Construction verifies the
    module axioms against the structure constants for every ordered pair of
    basis elements, so the operators commute as the algebra does.
    """

    def __init__(self, algebra, actions):
        actions = tuple(actions)
        check_module_axioms(algebra, actions)
        self._set(algebra, actions)

    _raw = classmethod(unchecked)  # actions that satisfy the axioms by construction

    def _set(self, algebra, actions):
        self.algebra = algebra
        self.actions = actions = tuple(actions)
        self.dim = actions[0].nrows

    def __repr__(self):
        return "FDModule(dim %d over %r)" % (self.dim, self.algebra)

    # -- structure -------------------------------------------------------

    def length(self) -> int:
        """Composition length; equals dim_K because the algebra is local with
        residue field K."""
        return self.dim

    def submodule_generated(self, gens) -> Matrix:
        """Column basis of the smallest action-closed subspace containing the
        given vectors.  They are first cut down to a basis of their span, so
        the work after that is bounded by the module dimension; the unit acts
        as the identity, so that basis is followed by its other images."""
        f = self.algebra.field
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != self.dim:
                raise ShapeError("generator of wrong length (%d != %d)" % (len(g), self.dim))
        basis = Matrix.from_cols(f, gens, nrows=self.dim).image_basis()
        return basis.hstack(*(a @ basis for a in self.actions[1:])).image_basis()

    def radical_submodule(self) -> Matrix:
        return self.radical_power_subspace(1)

    def radical_power_subspace(self, k: int) -> Matrix:
        """Column basis of rad(A)^k . M (k = 0 gives the whole module)."""
        if k < 0:
            raise ValueError("power must be non-negative")
        f = self.algebra.field
        empty = Matrix._raw(f, [()] * self.dim, 0)
        span = Matrix.identity(f, self.dim)
        for _ in range(k):
            if not span.ncols:
                break
            images = (self.actions[r] @ span for r in self.algebra.radical_indices)
            span = empty.hstack(*images).image_basis()
        return span

    def quotient_module(self, gens):
        """Quotient by the submodule generated by the vectors ``gens``.

        The submodule is generated here, so it is closed under the action by
        construction.  Returns ``(Q, projection)`` where ``projection`` is the
        surjective coordinate map of shape ``Q.dim x self.dim`` with kernel
        exactly the submodule.  The complement basis is chosen greedily from
        the standard basis in index order, so the construction is
        deterministic and depends only on the span of ``gens``.

        One rref of ``[W | I]`` (``W`` the ``k`` basis columns of the
        submodule) gives both: the pivots past ``k`` pick the complement, and
        rows ``k:``, columns ``k:`` of the reduced matrix are the projection,
        since they kill ``W`` and are the identity on the complement.  Each
        quotient operator is then the projection of the action restricted to
        the complement columns.
        """
        f = self.algebra.field
        w = self.submodule_generated(gens)
        k = w.ncols
        red, pivots = w.hstack(Matrix.identity(f, self.dim)).rref()
        proj = Matrix._raw(f, [row[k:] for row in red.entries[k:]], self.dim)
        completion = [p - k for p in pivots if p >= k]
        actions = [
            proj
            @ Matrix._raw(f, [[row[c] for c in completion] for row in a.entries], len(completion))
            for a in self.actions
        ]
        return FDModule._raw(self.algebra, actions), proj

    def direct_sum_power(self, k: int) -> "FDModule":
        if k < 0:
            raise ValueError("power must be non-negative")
        f, n = self.algebra.field, self.algebra.dim
        one, zero = Matrix.identity(f, k), Matrix._raw(f, [[0] * k] * k, k)
        # action l of N^k is the k x k diagonal of e_l, whose stack is I_k at l
        stacks = ([one if j == l else zero for j in range(n)] for l in range(n))
        actions = [block_operator(f, self.actions, stack, self.dim) for stack in stacks]
        return FDModule._raw(self.algebra, actions)


class Subspace:
    """A column basis from outside the library, checked to span an
    action-closed subspace of ``module``.

    The library's own subspaces are plain basis matrices, closed by
    construction (see the module docstring); this is the check for any other.
    """

    def __init__(self, module, basis: Matrix):
        if basis.field != module.algebra.field or basis.nrows != module.dim:
            raise ShapeError("basis matrix does not match the ambient module")
        if basis.rank() != basis.ncols:
            raise ValueError("basis columns are dependent")
        for a in module.actions:
            if not subspace_leq(a @ basis, basis):
                raise ValueError("subspace is not closed under the algebra action")
        self.module = module
        self.basis = basis


def free_module(algebra: ArtinAlgebra, rank: int) -> FDModule:
    """Free module of the given rank: the direct sum power of the regular
    module, where basis element i acts by the matrix whose column j holds the
    coordinates of e_i e_j.  ``direct_sum_power`` rejects a negative rank."""
    f, n = algebra.field, algebra.dim
    regular = [Matrix._raw(f, zip(*products), n) for products in algebra.mult]
    return FDModule._raw(algebra, regular).direct_sum_power(rank)
