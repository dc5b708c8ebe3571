"""Structural analysis of the four-generator algebras.

Radicals are computed from the trace form of the regular representation,
organised along the conjugation grading by the grouplike generators so
that the Gram matrix splits into small blocks.  Integrals, the center,
block decompositions and the block-isomorphism check all reduce to exact
linear algebra on graded pieces.
"""

from __future__ import annotations

import time

from .algebra import AlgElt
from .cyclo import RAT
from .fdalg import TableAlgebra
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


def trace_vector(H):
    """Tr(L_w) for every PBW monomial w; nonzero only in conjugation grade 0."""
    tv = {}
    for w in _grade_classes(H).get((0, 0), []):
        t = H.field.zero
        for u in H.basis:
            c = H.mono_mul(w, u).get(u)
            if c is not None:
                t = t + c
        if not t.is_zero():
            tv[w] = t
    return tv


def jacobson_radical(H):
    """The radical as a canonical subspace of the PBW coordinate space.

    Computed blockwise: the trace form pairs the conjugation grade g only
    with grade -g, so the kernel decomposes along the grading.
    """
    if H._radical is not None:
        return H._radical
    classes = _grade_classes(H)
    tv = trace_vector(H)
    n = H.n
    field = H.field
    vectors = []
    for grade, monos in classes.items():
        ng = ((n - grade[0]) % n, (n - grade[1]) % n)
        partners = classes.get(ng, [])
        rows = []
        for v in partners:
            row = []
            for u in monos:
                g = field.zero
                for w, c in H.mono_mul(u, v).items():
                    t = tv.get(w)
                    if t is not None:
                        g = g + c * t
                row.append(g)
            rows.append(row)
        mat = Mat(field, len(partners), len(monos), rows)
        ker = kernel_basis(mat)
        for kv in ker.rows:
            vec = [field.zero] * H.dim
            for coeff, m in zip(kv, monos):
                if not coeff.is_zero():
                    vec[H.index[m]] = coeff
            vectors.append(vec)
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


def radical_ideal_generators(H):
    """Small normalizing ideal generators of J, when available.

    For the undeformed families J is the ideal generated by a and d, and
    both generators normalize the algebra (aH = Ha), so powers of J are
    obtained by right multiplication alone.
    """
    if H.basic:
        return [H.gen("a"), H.gen("d")]
    return None


def _vector_to_elt(H, vec):
    return AlgElt(H, {H.basis[idx]: c for idx, c in enumerate(vec) if not c._is0})


def loewy_length(H):
    """Least m with J^m = 0 (computed once per algebra)."""
    if H._loewy is None:
        H._loewy = _loewy_length(H)
    return H._loewy


def _loewy_length(H):
    J = jacobson_radical(H)
    if J.dim == 0:
        return 1
    gens = radical_ideal_generators(H)
    current = [_vector_to_elt(H, row) for row in J.rows]
    j_elts = current
    m = 1
    while current:
        if m > H.dim:
            raise ArithmeticError("radical is not nilpotent")
        sb = SpanBuilder(H.field, H.dim)
        if gens is not None:
            for x in current:
                for g in gens:
                    sb.insert((x * g).as_vector())
        else:
            for x in current:
                for y in j_elts:
                    sb.insert((x * y).as_vector())
        current = [_vector_to_elt(H, row) for row in sb.rows]
        m += 1
    return m


def radical_report(H, check_quotient=True):
    """Radical dimensions plus nilpotency and semisimple-quotient verification."""
    t0 = time.perf_counter()
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
    if check_quotient:
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
    report["elapsed_s"] = round(time.perf_counter() - t0, 3)
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
    rows = []  # stacked constraint images, one column per candidate
    images = []
    for v in candidates:
        col = []
        for con in constraints:
            col.extend(con(v).as_vector())
        images.append(col)
    height = len(images[0]) if images else 0
    mat = Mat(
        field,
        height,
        len(candidates),
        [[images[j][i] for j in range(len(candidates))] for i in range(height)],
    )
    ker = kernel_basis(mat)
    vecs = []
    for kv in ker.rows:
        acc = H.zero_elt
        for coeff, v in zip(kv, candidates):
            if not coeff.is_zero():
                acc = acc + v.scale(coeff)
        vecs.append(acc.as_vector())
    return Subspace.from_vectors(field, H.dim, vecs)


def integrals_and_symmetry(H):
    """Left/right integral spaces, unimodularity, and innerness of S^2."""
    t0 = time.perf_counter()
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
        "elapsed_s": round(time.perf_counter() - t0, 3),
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
    t0 = time.perf_counter()
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
    report["elapsed_s"] = round(time.perf_counter() - t0, 3)
    return report


def _sum_elts(H, elts):
    acc = H.zero_elt
    for e in elts:
        acc = acc + e
    return acc


def blocks_isomorphic_H0(H):
    """All n blocks of the p = 0 deformation share one structure-constant table."""
    t0 = time.perf_counter()
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
        m = span.dim
        cols = [span.coords(x.as_vector()) for (_, x) in basis_elts]
        cob = Mat(H.field, m, m, [[col[r] for col in cols] for r in range(m)])
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
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
