"""Structural analysis of the four-generator algebras.

Radicals are computed from the trace form of the regular representation,
block by block along the finest grading the defining relations respect
(``Algebra.exponent_grade``): a^i b^j c^k d^l has grade (i, j, k, l) with
j, k in Z_n on the basic families, and (i - l, (j - k) mod n) on the
deformed one.  ``Algebra.certify_exponent_grade`` proves the grading on the
generator operators before the first Gram block is formed, and
``fdalg.graded_radical`` pairs grade g only with grade -g.  Integrals, the
center, block decompositions and the block-isomorphism check all reduce to
exact linear algebra on graded pieces; the center is solved in conjugation
grade zero, since it need not lie in exponent grade zero.
"""

from __future__ import annotations

from .algebra import AlgElt
from .cyclo import RAT, _sum_of_products
from .fdalg import TableAlgebra, graded_radical
from .hopf import hopf_maps
from .linalg import Mat, SpanBuilder, Subspace, invert as _invert, kernel_basis

__all__ = [
    "jacobson_radical",
    "radical_report",
    "radical_ideal_generators",
    "loewy_length",
    "left_grouplike_eigenvectors",
    "right_grouplike_eigenvectors",
    "integrals_and_symmetry",
    "center_and_blocks",
    "blocks_isomorphic_H0",
    "monomial_ideal_span",
]


def _exponent_grade_pair(H):
    """u -> (grade of u, its negation), the grading ``graded_radical`` reads."""
    grade = H.exponent_grade
    return lambda m: (grade(m), grade(m, -1))


def jacobson_radical(H):
    """The radical as a canonical subspace of the PBW coordinate space.

    Computed blockwise along ``exponent_grade``, once its certificate has
    passed: the trace form pairs grade g only with grade -g, so the kernel
    decomposes along the grading, and each block's rows are homogeneous.
    """
    if H._radical is None:
        H.certify_exponent_grade()
        # each Gram entry and each Tr(L_w) sweep needs its products once, so
        # they bypass the pair memo
        H._radical = graded_radical(H.field, H.basis, H._mono_product, _exponent_grade_pair(H))
    return H._radical


def monomial_ideal_span(H, predicate):
    """Canonical subspace spanned by the PBW monomials satisfying a predicate.

    The unit rows of the chosen monomials, in basis order, are already in
    reduced echelon form, with pivots at their own indices.
    """
    one = H.field.one
    pivots = [idx for idx, m in enumerate(H.basis) if predicate(m)]
    return Subspace(H.field, H.dim, [{idx: one} for idx in pivots], pivots)


def _right_ideal_generators(elts, letters, dim):
    """Walk the elements: one outside the span so far becomes a generator,
    and its right ideal is spun by right multiplication by the letters.
    Raise ArithmeticError unless the spun span has dimension dim."""
    H = letters[0].algebra
    span = SpanBuilder(H.field, H.dim)
    gens = []
    for g in elts:
        if not span.insert(g.as_row()):
            continue
        gens.append(g)
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for t in letters:
                y = x * t
                if span.insert(y.as_row()):
                    frontier.append(y)
    if span.dim != dim:
        raise ArithmeticError(
            "the right ideal of %d generators has dimension %d, not %d"
            % (len(gens), span.dim, dim)
        )
    return gens


def radical_ideal_generators(H):
    """A small G inside J with G·H = J: generators of J as a right ideal
    (computed once per algebra).

    Radical powers and radical layers rely on G alone: J^k = G·J^(k-1), and
    J·X = G·(H·X) = G·X for every submodule X.  For the basic families G is
    [a, d]: J = aH + dH, which ``radical_report`` checks as
    ``equals_ideal_generated_by_a_d``.  Otherwise G is read off the echelon
    rows of J by ``_right_ideal_generators``, and certified: every row of J
    lies in the spun span by construction, and the span has dimension
    dim J, so G·H = J exactly.
    """
    if H._radical_gens is None:
        if H.basic:
            H._radical_gens = [H.gen("a"), H.gen("d")]
        else:
            J = jacobson_radical(H)
            elts = [_vector_to_elt(H, row) for row in J.rows]
            letters = [H.gen(name) for name in H.letters]
            H._radical_gens = _right_ideal_generators(elts, letters, J.dim)
    return H._radical_gens


def _vector_to_elt(H, row):
    """The element with the given sparse row (basis index -> nonzero scalar)."""
    return AlgElt(H, {H.basis[idx]: c for idx, c in row.items()})


def loewy_length(H):
    """Least m with J^m = 0 (computed once per algebra)."""
    if H._loewy is None:
        H._loewy = _loewy_length(H)
    return H._loewy


def _radical_power_dims(H):
    """dim J^k for k = 1, 2, ... while J^k is nonzero.

    Each power is spanned by the products g·x, for g in the right-ideal
    generators and x in a basis of the previous power; the products that
    grow the span are the basis of the next power.
    """
    gens = radical_ideal_generators(H)
    current = [_vector_to_elt(H, row) for row in jacobson_radical(H).rows]
    dims = []
    while current:
        if len(dims) >= H.dim:
            raise ArithmeticError("radical is not nilpotent")
        dims.append(len(current))
        span = SpanBuilder(H.field, H.dim)
        nxt = []
        for x in current:
            for g in gens:
                y = g * x
                if span.insert(y.as_row()):
                    nxt.append(y)
        current = nxt
    return dims


def _loewy_length(H):
    return len(_radical_power_dims(H)) + 1


def radical_report(H):
    """Radical dimensions, nilpotency and the semisimple-quotient check.

    The quotient H/J is graded on the complement monomials of J: J's
    canonical rows are homogeneous, so reducing a homogeneous product
    modulo J keeps it homogeneous, and the quotient's radical is computed
    blockwise too.
    """
    J = jacobson_radical(H)
    report = {
        "family": H.spec.family,
        "n": H.n,
        "dim": H.dim,
        "radical_dim": J.dim,
        "semisimple_dim": H.dim - J.dim,
    }
    report["loewy_length"] = loewy_length(H)
    if H.basic:
        expected = monomial_ideal_span(H, lambda m: m[0] + m[3] >= 1)
        report["equals_ideal_generated_by_a_d"] = J == expected
    comp = [H.basis[k] for k in J.complement_indices()]
    grade = _exponent_grade_pair(H)

    def product(i, j):
        prod = H.mono_mul(comp[i], comp[j])
        return J.quotient_coords({H.index[m]: c for m, c in prod.items()})

    quo = TableAlgebra(H.field, len(comp), product, grade=lambda i: grade(comp[i]))
    report["quotient_semisimple"] = quo.radical().dim == 0
    return report


def left_grouplike_eigenvectors(H, s, t):
    """Basis of {v : b v = q^s v and c v = q^t v} for left multiplication.

    The eigenvectors are explicit geometric sums over the grouplike
    exponents; each one is verified before being returned.
    """
    lam = H._lam
    n = H.n
    out = []
    for i in range(n):
        for k in range(n):
            terms = {}
            for j in range(n):
                for l in range(n):
                    e = j * (i * lam[(1, 0)] - s) + l * (i * lam[(2, 0)] - t)
                    terms[(i, j, l, k)] = H.field.q_pow(e)
            v = AlgElt(H, terms)
            if H.gen("b") * v != v.scale(H.field.q_pow(s)) or H.gen("c") * v != v.scale(
                H.field.q_pow(t)
            ):
                raise ArithmeticError("left eigenvector construction failed")
            out.append(v)
    return out


def right_grouplike_eigenvectors(H, s, t):
    """Basis of {v : v b = q^s v and v c = q^t v} for right multiplication."""
    lam = H._lam
    n = H.n
    out = []
    for i in range(n):
        for k in range(n):
            terms = {}
            for j in range(n):
                for l in range(n):
                    e = j * (k * lam[(3, 1)] - s) + l * (k * lam[(3, 2)] - t)
                    terms[(i, j, l, k)] = H.field.q_pow(e)
            v = AlgElt(H, terms)
            if v * H.gen("b") != v.scale(H.field.q_pow(s)) or v * H.gen("c") != v.scale(
                H.field.q_pow(t)
            ):
                raise ArithmeticError("right eigenvector construction failed")
            out.append(v)
    return out


def _solve_in_span(H, candidates, constraints):
    """Vectors in span(candidates) killed by all constraint maps.

    candidates are AlgElts; constraints are callables AlgElt -> AlgElt.
    Returns the solution space as a canonical Subspace of the ambient.
    """
    field = H.field
    images = []  # stacked constraint images, one row per candidate
    for v in candidates:
        row = {}
        for k, con in enumerate(constraints):
            row.update((k * H.dim + j, c) for j, c in con(v).as_row().items())
        images.append(row)
    ker = kernel_basis(Mat(field, len(images), len(constraints) * H.dim, images).transpose())
    rows = [v.as_row() for v in candidates]
    vecs = [
        _sum_of_products(field, ((coeff, None, rows[k]) for k, coeff in kv.items()))
        for kv in ker.rows
    ]
    return Subspace.from_vectors(field, H.dim, vecs)


def integrals_and_symmetry(H):
    """Left/right integral spaces, unimodularity, and innerness of S^2."""
    a, d = H.gen("a"), H.gen("d")
    left_cand = left_grouplike_eigenvectors(H, 0, 0)
    left = _solve_in_span(H, left_cand, [lambda v: a * v, lambda v: d * v])
    right_cand = right_grouplike_eigenvectors(H, 0, 0)
    right = _solve_in_span(H, right_cand, [lambda v: v * a, lambda v: v * d])
    maps = hopf_maps(H)
    b, c = H.gen("b"), H.gen("c")
    s2_b = True
    s2_c = True
    for m in H.basis:
        u = H.monomial(m)
        s2 = maps.antipode(maps.antipode(u))
        if s2_b and s2 * b != b * u:
            s2_b = False
        if s2_c and s2 * c != c * u:
            s2_c = False
        if not s2_b and not s2_c:
            break
    unimodular = left == right
    return {
        "family": H.spec.family,
        "n": H.n,
        "left_integral_dim": left.dim,
        "right_integral_dim": right.dim,
        "unimodular": unimodular,
        "s2_inner_by_b": s2_b,
        "s2_inner_by_c": s2_c,
        "symmetric_certified": unimodular and s2_b,
    }


def center_subspace(H):
    """The center, solved inside the conjugation-grade-zero component."""
    grade0 = [m for m in H.basis if H.conj_grade(m) == (0, 0)]
    candidates = [H.monomial(m) for m in grade0]
    a, d = H.gen("a"), H.gen("d")
    return _solve_in_span(
        H, candidates, [lambda v: v * a - a * v, lambda v: v * d - d * v]
    )


def center_table_algebra(H, Z):
    """The center as an abstract commutative algebra on its echelon basis."""
    elts = [_vector_to_elt(H, row) for row in Z.rows]

    def product(i, j):
        return Z.coords((elts[i] * elts[j]).as_row())

    return TableAlgebra(H.field, Z.dim, product, unit=Z.coords(H.one.as_row()))


def _central_idempotents_H0(H):
    """The central primitive idempotents e_i = (1/n) sum_j q^(-ij) b^j c^(-j)
    of the p = 0 deformation, for i = 0, ..., n - 1."""
    n = H.n
    inv = RAT(1, n)
    return [
        AlgElt(H, {(0, j, -j % n, 0): H.field.q_pow(-i * j).scale(inv) for j in range(n)})
        for i in range(n)
    ]


def center_and_blocks(H):
    """Center dimension, number of blocks, and the central idempotent census."""
    Z = center_subspace(H)
    zalg = center_table_algebra(H, Z)
    radZ = zalg.radical()
    report = {
        "family": H.spec.family,
        "n": H.n,
        "center_dim": Z.dim,
        "center_radical_dim": radZ.dim,
        "block_count": Z.dim - radZ.dim,
    }
    if H.spec.family == "hpq" and H.p.is_zero():
        n = H.n
        es = _central_idempotents_H0(H)
        grp = H.group_idempotents()
        agree = all(
            es[i]
            == _sum_elts(H, [grp[((i + j) % n, j)] for j in range(n)])
            for i in range(n)
        )
        outside = [i for i, e in enumerate(es) if not Z.contains(e.as_row())]
        ok_idem = all(e * e == e for e in es)
        ok_orth = all(
            (es[i] * es[j]).is_zero() for i in range(n) for j in range(n) if i != j
        )
        ok_complete = _sum_elts(H, es) == H.one
        prim = []
        # only central elements have center coordinates to test primitivity on
        for e in ([] if outside else es):
            ecoords = Z.coords(e.as_row())
            ideal = zalg.ideal_span([ecoords])
            sub_elems = ideal.rows

            def product(i2, j2):
                return ideal.coords(zalg.mul_vec(sub_elems[i2], sub_elems[j2]))

            block = TableAlgebra(H.field, ideal.dim, product)
            prim.append(ideal.dim - block.radical().dim == 1)
        report["central_idempotents"] = {
            "matches_group_idempotent_sums": agree,
            "central": not outside,
            "idempotent": ok_idem,
            "orthogonal": ok_orth,
            "complete": ok_complete,
            "primitive": not outside and all(prim),
        }
        if outside:  # the witness, kept out of the flags that the gate reads
            report["first_non_central_idempotent"] = outside[0]
    return report


def _sum_elts(H, elts):
    acc = H.zero_elt
    for e in elts:
        acc = acc + e
    return acc


def blocks_isomorphic_H0(H):
    """All n blocks of the p = 0 deformation share one structure-constant table,
    each on the labeled basis a^j d^k b^l e_i of its block H e_i."""
    if not (H.spec.family == "hpq" and H.p.is_zero()):
        raise ValueError("block comparison applies to the p = 0 deformation")
    n = H.n
    gens = [H.gen(name) for name in H.letters]
    labels = [(j, k, l) for j in range(n) for k in range(n) for l in range(n)]
    # block i has the labeled basis x = m ei, m = a^j d^k b^l
    monos = [H.monomial((j, 0, 0, k)) * H.monomial((0, l, 0, 0)) for j, k, l in labels]
    tables = []
    dims = []
    unit_ok = True
    for i, ei in enumerate(_central_idempotents_H0(H)):
        xs = [m * ei for m in monos]
        sb = SpanBuilder(H.field, H.dim)
        for x in xs:
            sb.insert(x.as_row())
        span = sb.to_subspace()
        dims.append(span.dim)
        # the span holds ei, so it is the block H ei exactly when the
        # generators keep it
        reason = None
        if span.dim != n ** 3:
            reason = "block basis not independent"
        elif not all(span.contains((g * x).as_row()) for g in gens for x in xs):
            reason = "block basis does not span a left ideal"
        if reason is not None:
            return {"status": "fail", "reason": reason, "block": i, "dim": span.dim}
        ei_xs = [ei * x for x in xs]
        if any(ex != x or x * ei != x for x, ex in zip(xs, ei_xs)):
            unit_ok = False
        # change of basis from the canonical echelon rows to the labeled
        # basis: echelon coordinate e contributes row e of the inverse of the
        # matrix whose rows are the labeled elements' echelon coordinates
        coords = [span.coords(x.as_row()) for x in xs]
        to_labels = _invert(Mat(H.field, span.dim, span.dim, coords)).sparse_rows
        table = {}
        for lab1, m1 in zip(labels, monos):
            for lab2, ex2 in zip(labels, ei_xs):
                # x1 x2 = (m1 ei) x2 = m1 (ei x2), by associativity of H
                prod = span.coords((m1 * ex2).as_row())
                lcoords = _sum_of_products(
                    H.field, ((c, None, to_labels[e]) for e, c in prod.items())
                )
                table[(lab1, lab2)] = {labels[r]: c for r, c in lcoords.items()}
        tables.append(table)
    all_equal = all(tables[i] == tables[0] for i in range(1, n))
    return {
        "family": H.spec.family,
        "n": n,
        "status": "pass" if (all_equal and unit_ok) else "fail",
        "block_dims": dims,
        "tables_identical": all_equal,
        "idempotent_is_unit": unit_ok,
    }
