"""Polynomial builders that only the tests need."""

from torcheck.poly import sum_terms


def monomial(table, exponents, c=1):
    """``c`` times the monomial whose ``exponents`` map variable names or
    indices to positive exponents; ``c`` comes from outside, so it is
    normalized into the table's field."""
    key = sorted((table.index_of(v) if isinstance(v, str) else v, e) for v, e in exponents.items())
    return sum_terms(table, [(tuple(key), table.field.normalize(c))])


def constant(table, c):
    """The constant polynomial ``c``, normalized into the table's field; the
    zero polynomial when ``c`` is zero."""
    return monomial(table, {}, c)
