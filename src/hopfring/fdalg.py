"""Generic finite-dimensional algebra given by structure constants.

Used for the center of a Hopf algebra, block algebras, projective class
algebras, and small test fixtures.  The Jacobson radical is computed as
the radical of the trace form of the regular representation, which is
valid in characteristic zero; ``trace_form`` is that form, for this module
and for the PBW algebras alike.
"""

from __future__ import annotations

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


class TableAlgebra:
    """Algebra on an abstract basis with product given as coordinate vectors."""

    def __init__(self, field, dim, product, unit=None):
        """product(i, j) must return the coordinates of basis_i * basis_j."""
        self.field = field
        self.dim = dim
        self._table = {}
        self._product = product
        self.unit = unit  # coordinate vector of 1, if known
        self._radical = None

    def basis_product(self, i, j):
        """basis_i * basis_j as a dict from index to nonzero coordinate."""
        key = (i, j)
        v = self._table.get(key)
        if v is None:
            v = {k: c for k, c in enumerate(self._product(i, j)) if not c._is0}
            self._table[key] = v
        return v

    def mul_vec(self, x, y):
        z = self.field.zero
        out = [z] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                c = xi * yj
                for k, pk in self.basis_product(i, j).items():
                    out[k] = out[k] + c * pk
        return out

    def gram(self):
        form = trace_form(self.field, range(self.dim), self.basis_product)
        rows = [[form(i, j) for j in range(self.dim)] for i in range(self.dim)]
        return Mat.from_rows(self.field, rows)

    def radical(self):
        if self._radical is None:
            self._radical = kernel_basis(self.gram())
        return self._radical

    def is_idempotent(self, x):
        return self.mul_vec(x, x) == list(x)

    def orthogonal(self, x, y):
        z = self.field.zero
        return all(c.is_zero() for c in self.mul_vec(x, y)) and all(
            c.is_zero() for c in self.mul_vec(y, x)
        )

    def ideal_span(self, generators):
        """Two-sided ideal generated by the given coordinate vectors."""
        sb = SpanBuilder(self.field, self.dim)
        z = self.field.zero
        frontier = [list(g) for g in generators]
        for g in frontier:
            sb.insert(g)
        while frontier:
            nxt = []
            for g in frontier:
                for j in range(self.dim):
                    e = [z] * self.dim
                    e[j] = self.field.one
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
        rows = [list(r) for r in sub.rows]
        m = 1
        while rows:
            if m > self.dim + 1:
                return None
            nxt = self.subspace_product_span(rows, [list(r) for r in sub.rows])
            rows = [list(r) for r in nxt.rows]
            m += 1
        return m

    def quotient_by_ideal(self, ideal):
        """Quotient algebra on the complement coordinates of the ideal."""
        comp = ideal.complement_indices()
        pos = {j: k for k, j in enumerate(comp)}
        field = self.field
        z = field.zero

        def product(i, j):
            ei = [z] * self.dim
            ei[comp[i]] = field.one
            ej = [z] * self.dim
            ej[comp[j]] = field.one
            red = ideal.reduce(self.mul_vec(ei, ej))
            return [red[c] for c in comp]

        unit = None
        if self.unit is not None:
            red = ideal.reduce(list(self.unit))
            unit = [red[c] for c in comp]
        return TableAlgebra(field, len(comp), product, unit=unit)
