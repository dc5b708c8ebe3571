"""Generic finite-dimensional algebra given by structure constants.

Used for the center of a Hopf algebra, block algebras, projective class
algebras, and small test fixtures.  The Jacobson radical is computed as
the radical of the trace form of the regular representation, which is
valid in characteristic zero; ``trace_form`` is that form, for this module
and for the PBW algebras alike.
"""

from __future__ import annotations

from .cyclo import _sum_of_products
from .linalg import Mat, SpanBuilder, kernel_basis

__all__ = ["TableAlgebra", "trace_form"]


def trace_form(field, basis, mul):
    """The trace form (u, v) -> Tr(L_uv) = sum_w c_w Tr(L_w), uv = sum_w c_w w.

    ``mul(u, v)`` is the product of two basis elements as a dict from basis
    element to nonzero scalar.  Each Tr(L_w) = sum_x mul(w, x)[x] is computed
    once, the first time an entry of the form needs it.
    """
    zero = field.zero
    traces = {}

    def trace(w):
        t = traces.get(w)
        if t is None:
            t = zero
            for x in basis:
                c = mul(w, x).get(x)
                if c is not None:
                    t = t + c
            traces[w] = t
        return t

    def form(u, v):
        g = zero
        for w, c in mul(u, v).items():
            t = trace(w)
            if not t._is0:
                g = g + c * t
        return g

    return form


def _form_matrix(field, form, rows, cols):
    """The matrix of form(r, c) over r in rows and c in cols, as sparse rows
    indexed by position."""
    out = []
    for r in rows:
        row = {}
        for k, c in enumerate(cols):
            g = form(r, c)
            if not g._is0:
                row[k] = g
        out.append(row)
    return Mat(field, len(rows), len(cols), out)


class TableAlgebra:
    """Algebra on an abstract basis with product given as coordinate vectors,
    each a sparse row (basis index -> nonzero scalar)."""

    def __init__(self, field, dim, product, unit=None):
        """product(i, j) must return the coordinates of basis_i * basis_j,
        a sparse row with no stored zero."""
        self.field = field
        self.dim = dim
        self._table = {}
        self._product = product
        self.unit = unit  # coordinates of 1, if known
        self._radical = None
        self._commutative = None

    def basis_product(self, i, j):
        """basis_i * basis_j, memoized."""
        key = (i, j)
        v = self._table.get(key)
        if v is None:
            v = self._table[key] = self._product(i, j)
        return v

    def mul_vec(self, x, y):
        """Product of two coordinate vectors."""
        if not (isinstance(x, dict) and isinstance(y, dict)):
            raise TypeError("coordinate vectors are sparse rows")
        product = self.basis_product
        ys = y.items()
        terms = ((xi, yj, product(i, j)) for i, xi in x.items() for j, yj in ys)
        return _sum_of_products(self.field, terms)

    def gram(self):
        basis = range(self.dim)
        form = trace_form(self.field, basis, self.basis_product)
        return _form_matrix(self.field, form, basis, basis)

    def radical(self):
        if self._radical is None:
            self._radical = kernel_basis(self.gram())
        return self._radical

    def is_idempotent(self, x):
        return self.mul_vec(x, x) == x

    def is_commutative(self):
        """Whether every pair of basis elements commutes, certified once."""
        if self._commutative is None:
            product = self.basis_product
            self._commutative = all(
                product(i, j) == product(j, i)
                for i in range(self.dim) for j in range(i + 1, self.dim)
            )
        return self._commutative

    def orthogonal(self, x, y):
        return not self.mul_vec(x, y) and (self.is_commutative() or not self.mul_vec(y, x))

    def ideal_span(self, generators):
        """Two-sided ideal generated by the given coordinate vectors."""
        sb = SpanBuilder(self.field, self.dim)
        frontier = list(generators)
        for g in frontier:
            sb.insert(g)
        while frontier:
            nxt = []
            for g in frontier:
                for j in range(self.dim):
                    e = {j: self.field.one}
                    for prod in (self.mul_vec(e, g), self.mul_vec(g, e)):
                        if sb.insert(prod):
                            nxt.append(prod)
            frontier = nxt
        return sb.to_subspace()

    def subspace_product_span(self, xs, ys):
        sb = SpanBuilder(self.field, self.dim)
        for x in xs:
            for y in ys:
                sb.insert(self.mul_vec(x, y))
        return sb.to_subspace()

    def nilpotency_index(self, sub):
        """Least m with sub^m = 0 for a subalgebra-closed span (None if not nilpotent)."""
        rows = sub.rows
        m = 1
        while rows:
            if m > self.dim + 1:
                return None
            rows = self.subspace_product_span(rows, sub.rows).rows
            m += 1
        return m

    def quotient_by_ideal(self, ideal):
        """Quotient algebra on the complement coordinates of the ideal."""
        comp = ideal.complement_indices()

        def product(i, j):
            return ideal.quotient_coords(self.basis_product(comp[i], comp[j]))

        unit = None if self.unit is None else ideal.quotient_coords(self.unit)
        return TableAlgebra(self.field, len(comp), product, unit=unit)
