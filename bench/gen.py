"""Seeded input documents for the benchmark and their closed-form oracles.

Everything here depends on the seed and the size parameters alone and uses
only the standard library, so the oracle never shares code with torcheck.

The scaling family is the minimal free resolution of the residue field K over
S = K[x_1..x_e]/(x)^2, truncated at length L: d_i is S^(e^i) -> S^(e^(i-1))
(row-vector convention, rows indexed by pairs (a, k)), with x_k in row
(a, k), column a.  Against N = S^r/(n independent radical relations) it gives
Tor_i(K, N) = beta_i(N), and over a ring with m^2 = 0 (Avramov, "Infinite free
resolutions", 1998) beta_0 = r and beta_i = n * e^(i-1) for i >= 1.  The top
degree L is truncated; its value follows from the Euler characteristic of the
finite complex.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

RANK = 2  # generators of N
RELATIONS = 3  # independent radical relations of N
MULTIPLIERS = (-3, -2, -1, 1, 2, 3)  # elementary basis-change multipliers
ENTRY_CAP = 9  # largest |entry| of a basis change or its inverse
# Elementary operations per basis change, per unit of rank: enough that the
# changed differentials are dense, so the cost of Q arithmetic is alike from
# seed to seed (at 2 per rank the density, and the op time, vary by half).
OPS_PER_RANK = 6


def field_spec(field):
    """``"q"`` or ``"fp:<p>"`` as the JSON ``field`` value of a document."""
    return "q" if field == "q" else {"fp": int(field[3:])}


def _scalar(field, value):
    return str(value) if field == "q" else str(value % int(field[3:]))


def _rank(field, rows):
    """Rank of an integer matrix over Q or F_p (plain elimination)."""
    p = None if field == "q" else int(field[3:])
    m = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col] if p is None else pow(m[rank][col], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                c = m[r][col] * inv
                m[r] = [x - c * y if p is None else (x - c * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def algebra_doc(e):
    return {"type": "square_zero", "generators": ["x%d" % (k + 1) for k in range(e)]}


def _element(field, coords):
    return [_scalar(field, c) for c in coords]


def module_doc(field, e, rng):
    """N = S^2 / (3 K-independent relations inside rad(S^2)), so dim N = 3.

    A radical relation has coordinates only on the generators x_k of each of
    the two summands; the submodule it generates is its K-span because
    m . rad = 0.  The relations are drawn in general position (every maximal
    minor non-zero): then no action entry of N vanishes by accident, so every
    seed's N has the same sparsity and costs the same to compute with.
    """
    while True:
        vecs = [[rng.randint(-3, 3) for _ in range(RANK * e)] for _ in range(RELATIONS)]
        if all(
            _rank(field, [[row[c] for c in cols] for row in vecs]) == RELATIONS
            for cols in combinations(range(RANK * e), RELATIONS)
        ):
            break
    relations = [
        [_element(field, [0] + v[j * e : (j + 1) * e]) for j in range(RANK)] for v in vecs
    ]
    return {
        "field": field_spec(field),
        "algebra": algebra_doc(e),
        "module": {"quotient_of_free": RANK, "relations": relations},
    }


def residue_differentials(e, length):
    """[d_L, ..., d_1] with d_i given per generator: ``d[k][row][col]`` is the
    integer coefficient of x_(k+1) in entry (row, col)."""
    out = []
    for i in range(length, 0, -1):
        rows, cols = e**i, e ** (i - 1)
        d = [[[0] * cols for _ in range(rows)] for _ in range(e)]
        for a in range(cols):
            for k in range(e):
                d[k][a * e + k][a] = 1
        out.append(d)
    return out


def resolution_doc(field, e, length):
    """The symbolic residue-field resolution with x_k assigned to generator k."""
    mats = []
    for d in residue_differentials(e, length):
        rows, cols = len(d[0]), len(d[0][0])
        entries = [
            [
                [["1", {"x%d" % (k + 1): 1}] for k in range(e) if d[k][r][c]]
                for c in range(cols)
            ]
            for r in range(rows)
        ]
        mats.append({"rows": rows, "cols": cols, "entries": entries})
    assignment = {
        "x%d" % (k + 1): _element(field, [1 if j == k + 1 else 0 for j in range(e + 1)])
        for k in range(e)
    }
    return {
        "field": field_spec(field),
        "variables": [["x%d" % (k + 1), 1] for k in range(e)],
        "matrices": mats,
        "assignment": assignment,
    }


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _unimodular(n, rng):
    """(U, U^-1) for a product of OPS_PER_RANK * n elementary row operations
    on n x n integer matrices, no entry of either above ENTRY_CAP; identity
    when n == 1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    if n < 2:
        return u, u_inv
    done = 0
    while done < OPS_PER_RANK * n:
        i, j = rng.sample(range(n), 2)
        c = rng.choice(MULTIPLIERS)
        # U <- E U with E = I + c e_ij;  U^-1 <- U^-1 E^-1 with E^-1 = I - c e_ij
        new_row = [x + c * y for x, y in zip(u[i], u[j])]
        new_col = [row[j] - c * row[i] for row in u_inv]
        if max(map(abs, new_row + new_col)) > ENTRY_CAP:
            continue
        u[i] = new_row
        for row, x in zip(u_inv, new_col):
            row[j] = x
        done += 1
    return u, u_inv


def dense_complex_doc(field, e, length, rng):
    """The specialized residue-field complex tensored with a seeded N, every
    free module's basis changed by a seeded unimodular integer matrix:
    d_i' = U_i d_i U_(i-1)^-1.  Isomorphic complexes, so equal homology."""
    diffs = residue_differentials(e, length)  # d_L .. d_1
    ranks = [e**i for i in range(length, -1, -1)]  # F_L .. F_0
    changes = [_unimodular(n, rng) for n in ranks]
    maps = []
    for pos, d in enumerate(diffs):
        u, _ = changes[pos]
        _, v_inv = changes[pos + 1]
        conj = [_matmul(_matmul(u, dk), v_inv) for dk in d]
        rows, cols = len(conj[0]), len(conj[0][0])
        entries = [
            [_element(field, [0] + [conj[k][r][c] for k in range(e)]) for c in range(cols)]
            for r in range(rows)
        ]
        maps.append({"rows": rows, "cols": cols, "entries": entries})
    doc = module_doc(field, e, rng)
    doc["maps"] = maps
    return doc


def expected_tor(e, length):
    """Tor_i(K, N) for i = 0..L of the truncated residue-field resolution:
    beta_0 = r, beta_i = n e^(i-1) below the top, the top from Euler."""
    ell = RANK * (1 + e) - RELATIONS
    tor = [RANK] + [RELATIONS * e ** (i - 1) for i in range(1, length)]
    euler = sum((-1) ** i * ell * e**i for i in range(length + 1))
    top = (-1) ** length * (euler - sum((-1) ** i * t for i, t in enumerate(tor)))
    return tor + [top]


def expected_tor_payload(e, length):
    """The whole ``torcheck tor --format json`` payload: the kernel and
    image dimensions follow from the Tor lengths and the module dimensions."""
    ell = RANK * (1 + e) - RELATIONS
    tor = expected_tor(e, length)
    kernel, image = [], []
    rank_out = 0  # rank of the map leaving degree i
    for i in range(length + 1):
        ker = ell * e**i - rank_out
        im = ker - tor[i]
        kernel.append(ker)
        image.append(im)
        rank_out = im
    if image[length] != 0:
        raise AssertionError("closed form and Euler characteristic disagree")
    keys = [str(i) for i in range(length + 1)]
    return {
        "tor": dict(zip(keys, tor)),
        "kernel_dims": dict(zip(keys, kernel)),
        "image_dims": dict(zip(keys, image)),
    }


def expected_homology_payload(e, length):
    return {"homology": {str(i): t for i, t in enumerate(expected_tor(e, length))}}


def rng_for(seed, stream):
    """Independent deterministic stream per document kind."""
    return random.Random("%d/%s" % (seed, stream))
