"""Structural analysis of the four-generator algebras.

Radicals are computed from the trace form of the regular representation,
organised along the conjugation grading by the grouplike generators so
that the Gram matrix splits into small blocks.  Integrals, the center,
block decompositions and the block-isomorphism check all reduce to exact
linear algebra on graded pieces.
"""

from __future__ import annotations

from .algebra import AlgElt
from .cyclo import RAT
from .fdalg import TableAlgebra, trace_form
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


def _grade_classes(H):
    classes = {}
    for m in H.basis:
        classes.setdefault(H.conj_grade(m), []).append(m)
    return classes


def jacobson_radical(H):
    """The radical as a canonical subspace of the PBW coordinate space.

    Computed blockwise: the trace form pairs the conjugation grade g only
    with grade -g, so the kernel decomposes along the grading.
    """
    if H._radical is not None:
        return H._radical
    classes = _grade_classes(H)
    form = trace_form(H.field, H.basis, H.mono_mul)
    n = H.n
    field = H.field
    vectors = []
    for grade, monos in classes.items():
        ng = ((n - grade[0]) % n, (n - grade[1]) % n)
        partners = classes.get(ng, [])
        # one row per partner v, one column per u in monos (built by columns,
        # so the shape holds with no partners)
        cols = [[form(u, v) for v in partners] for u in monos]
        for kv in kernel_basis(Mat.from_rows(field, cols).transpose()).rows:
            vectors.append({H.index[m]: c for c, m in zip(kv, monos) if not c._is0})
    H._radical = Subspace.from_vectors(field, H.dim, vectors)
    return H._radical


def monomial_ideal_span(H, predicate):
    """Canonical subspace spanned by the PBW monomials satisfying a predicate.

    The unit vectors of the chosen monomials, in basis order, are already in
    reduced echelon form, with pivots at their own indices.
    """
    z, one = H.field.zero, H.field.one
    vecs = []
    pivots = []
    for idx, m in enumerate(H.basis):
        if predicate(m):
            v = [z] * H.dim
            v[idx] = one
            vecs.append(v)
            pivots.append(idx)
    return Subspace(H.field, H.dim, vecs, pivots)


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


def _vector_to_elt(H, vec):
    return AlgElt(H, {H.basis[idx]: c for idx, c in enumerate(vec) if not c._is0})


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


# the deformed quotient check is run up to this dimension (n <= 4)
QUOTIENT_CHECK_MAX_DIM = 300


def radical_report(H):
    """Radical dimensions, nilpotency and the semisimple-quotient check.

    The quotient check runs at every size on the basic families and up to
    ``QUOTIENT_CHECK_MAX_DIM`` on the deformed one; above it the report
    says ``quotient_semisimple: "not run"`` and gives the reason.
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
    if not H.basic and H.dim > QUOTIENT_CHECK_MAX_DIM:
        report["quotient_semisimple"] = "not run"
        report["quotient_semisimple_reason"] = (
            "run on deformed algebras up to dimension %d; this one has dimension %d"
            % (QUOTIENT_CHECK_MAX_DIM, H.dim)
        )
    else:
        comp = J.complement_indices()
        field = H.field

        def product(i, j):
            prod = H.mono_mul(H.basis[comp[i]], H.basis[comp[j]])
            vec = [field.zero] * H.dim
            for m, c in prod.items():
                vec[H.index[m]] = c
            red = J.reduce(vec)
            return [red[c2] for c2 in comp]

        quo = TableAlgebra(field, len(comp), product)
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
    images = []  # stacked constraint images, one column per candidate
    for v in candidates:
        col = []
        for con in constraints:
            col.extend(con(v).as_vector())
        images.append(col)
    ker = kernel_basis(Mat.from_rows(field, images).transpose())
    vecs = []
    for kv in ker.rows:
        acc = H.zero_elt
        for coeff, v in zip(kv, candidates):
            if not coeff.is_zero():
                acc = acc + v.scale(coeff)
        vecs.append(acc.as_row())
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
    field = H.field

    def product(i, j):
        return Z.coords((elts[i] * elts[j]).as_vector())

    unit = Z.coords(H.one.as_vector())
    return TableAlgebra(field, Z.dim, product, unit=unit), elts


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
    zalg, zelts = center_table_algebra(H, Z)
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
        ok_central = all(Z.contains(e.as_vector()) for e in es)
        ok_idem = all(e * e == e for e in es)
        ok_orth = all(
            (es[i] * es[j]).is_zero() for i in range(n) for j in range(n) if i != j
        )
        ok_complete = _sum_elts(H, es) == H.one
        prim = []
        for e in es:
            ecoords = Z.coords(e.as_vector())
            ideal = zalg.ideal_span([ecoords])
            sub_elems = [list(r) for r in ideal.rows]

            def product(i2, j2):
                return ideal.coords(zalg.mul_vec(sub_elems[i2], sub_elems[j2]))

            block = TableAlgebra(H.field, ideal.dim, product)
            prim.append(ideal.dim - block.radical().dim == 1)
        report["central_idempotents"] = {
            "matches_group_idempotent_sums": agree,
            "central": ok_central,
            "idempotent": ok_idem,
            "orthogonal": ok_orth,
            "complete": ok_complete,
            "primitive": all(prim),
        }
    return report


def _sum_elts(H, elts):
    acc = H.zero_elt
    for e in elts:
        acc = acc + e
    return acc


def blocks_isomorphic_H0(H):
    """All n blocks of the p = 0 deformation share one structure-constant table."""
    if not (H.spec.family == "hpq" and H.p.is_zero()):
        raise ValueError("block comparison applies to the p = 0 deformation")
    n = H.n
    tables = []
    dims = []
    unit_ok = True
    for i, ei in enumerate(_central_idempotents_H0(H)):
        basis_elts = []
        sb = SpanBuilder(H.field, H.dim)
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    x = H.monomial((j, 0, 0, k)) * H.monomial((0, l, 0, 0)) * ei
                    basis_elts.append(((j, k, l), x))
                    sb.insert(x.as_vector())
        span = sb.to_subspace()
        dims.append(span.dim)
        if span.dim != n ** 3:
            return {
                "status": "fail",
                "reason": "block basis not independent",
                "block": i,
                "dim": span.dim,
            }
        for _, x in basis_elts:
            if ei * x != x or x * ei != x:
                unit_ok = False
        # change of basis from the canonical echelon rows to the labeled basis
        cols = [span.coords(x.as_vector()) for (_, x) in basis_elts]
        cob = Mat.from_rows(H.field, cols).transpose()
        labels = [lab for lab, _ in basis_elts]
        sol = _invert(cob)
        table = {}
        for idx1, (lab1, x1) in enumerate(basis_elts):
            for lab2, x2 in basis_elts:
                ecoords = span.coords((x1 * x2).as_vector())
                lcoords = sol.apply(ecoords)
                table[(lab1, lab2)] = tuple(
                    (labels[r], c.serialize()) for r, c in enumerate(lcoords) if not c.is_zero()
                )
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
