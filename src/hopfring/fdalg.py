"""Generic finite-dimensional algebra given by structure constants.

Used for the center of a Hopf algebra, block algebras, projective class
algebras, and small test fixtures.  The Jacobson radical is computed as
the radical of the trace form of the regular representation, which is
valid in characteristic zero; ``trace_form`` is that form, for this module
and for the PBW algebras alike.

``graded_radical`` computes that radical blockwise along a grading of the
basis.  When every product
of basis elements of grades g and h is homogeneous of grade g + h, L_w
shifts grades by the grade of w, so Tr(L_uv) = 0 unless the grades of u
and v sum to zero: the Gram matrix pairs grade g only with grade -g, and
the radical is the sum of the kernels of those blocks (a graded algebra's
radical is graded: Cohen and Montgomery, Trans. AMS 282, 1984).  A grade
with no partner lies in the radical whole.  The caller proves the grading;
with no grading there is one block, the whole Gram matrix.
"""

from __future__ import annotations

from .cyclo import _sum_of_products
from .linalg import Mat, SpanBuilder, Subspace, kernel_basis

__all__ = ["TableAlgebra", "trace_form", "graded_radical"]


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


def graded_radical(field, basis, mul, grade=None):
    """The radical of the trace form on span(basis), block by block.

    ``mul`` is as for ``trace_form``.  ``grade(u)`` is the pair
    (grade of u, its negation), for a grading that the products respect;
    with ``grade=None`` the basis is one block.  The result is a canonical
    subspace of the coordinates indexed by position in ``basis``.
    """
    classes = {}
    partner = {}
    for k, u in enumerate(basis):
        g, neg = (None, None) if grade is None else grade(u)
        classes.setdefault(g, []).append(k)
        partner[g] = neg
    form = trace_form(field, basis, mul)
    one = field.one
    rows = []  # (pivot, row)
    forms = {}  # grade g -> form(u, v) over u of grade g and v of grade -g
    for g, ks in classes.items():
        partners = classes.get(partner[g])
        if partners is None:
            rows.extend((k, {k: one}) for k in ks)
            continue
        # one row per partner v, one column per u of grade g; the form is
        # symmetric, Tr(L_u L_v) = Tr(L_v L_u), so the partner's own block
        # is this one already when it was formed first
        gram = forms.get(partner[g])
        if gram is None:
            forms[g] = _form_matrix(
                field, form, [basis[k] for k in ks], [basis[k] for k in partners]
            )
            gram = forms[g].transpose()
        ker = kernel_basis(gram)
        rows.extend(
            (ks[p], {ks[j]: c for j, c in kv.items()}) for p, kv in zip(ker.pivots, ker.rows)
        )
    # each block's canonical rows, moved to its own increasing positions,
    # stay canonical, and the blocks' supports are disjoint: sorted by pivot,
    # together they are the canonical echelon basis of the sum
    rows.sort(key=lambda pr: pr[0])
    return Subspace(field, len(basis), [r for _, r in rows], [p for p, _ in rows])


class TableAlgebra:
    """Algebra on an abstract basis with product given as coordinate vectors,
    each a sparse row (basis index -> nonzero scalar)."""

    def __init__(self, field, dim, product, unit=None, grade=None):
        """product(i, j) must return the coordinates of basis_i * basis_j,
        a sparse row with no stored zero.  ``grade(i)``, if given, is the
        pair (grade of basis_i, its negation) for a grading the product
        respects; the radical is then computed blockwise."""
        self.field = field
        self.dim = dim
        self._table = {}
        self._product = product
        self.unit = unit  # coordinates of 1, if known
        self._grade = grade
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
        """The whole Gram matrix of the trace form, ungraded."""
        basis = range(self.dim)
        form = trace_form(self.field, basis, self.basis_product)
        return _form_matrix(self.field, form, basis, basis)

    def radical(self):
        if self._radical is None:
            self._radical = graded_radical(
                self.field, range(self.dim), self.basis_product, self._grade
            )
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
