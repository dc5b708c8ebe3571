"""Test oracles that recompute a result by an independent route, and the
scalar constructors and Hopf-map evaluations only tests use."""

import random
import re
from math import lcm

from hopfring.cyclo import RAT, _reduced
from hopfring.fdalg import _form_matrix, trace_form
from hopfring.linalg import Mat, Subspace, _add_scaled, invert, kernel_basis
from hopfring.repn import Module


def element(field, coeffs):
    """The element with rational coordinates ``coeffs`` over the power basis;
    missing trailing coordinates are zero."""
    coeffs = [RAT(c) for c in coeffs]
    if len(coeffs) > field.phi:
        raise ValueError("too many coefficients")
    coeffs += [RAT(0)] * (field.phi - len(coeffs))
    den = lcm(*[c.denominator for c in coeffs])
    return _reduced(field, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)


def random_element(field, rng, max_num=9, max_den=4):
    """Coordinates num/den with |num| <= max_num and 1 <= den <= max_den,
    drawn from rng numerator first, coordinate by coordinate."""
    return element(
        field,
        [RAT(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(field.phi)],
    )


def parse_element(field, text):
    """Inverse of CycloNum.serialize (accepts any sum of rational z-power terms)."""
    coeffs = [RAT(0)] * field.phi
    s = text.strip()
    if not s:
        raise ValueError("empty cyclotomic literal")
    for term in s.replace("-", "+-").replace("e+-", "e-").split("+"):
        term = term.strip()
        if not term:
            continue
        m = re.fullmatch(r"(-?)\s*(\d+(?:/\d+)?)?\s*\*?\s*(z(?:\^(\d+))?)?", term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError("bad cyclotomic term %r in %r" % (term, text))
        k = 0 if m.group(3) is None else int(m.group(4) or 1)
        if k >= field.phi:
            raise ValueError("exponent %d out of range in %r" % (k, text))
        coeffs[k] += (-1 if m.group(1) else 1) * RAT(m.group(2) or 1)
    return element(field, coeffs)


def delta(maps, elt):
    """The coproduct of an algebra element: {(left mono, right mono): scalar}."""
    out = {}
    for m, c in elt.terms.items():
        _add_scaled(out, c, maps.delta_mono(m))
    return out


def counit(maps, elt):
    """The counit of an algebra element."""
    H = maps.H
    return sum((c * H.counit_mono(m) for m, c in elt.terms.items()), H.field.zero)


def label_dim(label, n):
    """The dimension of the module a basis label names."""
    return {"S": 1, "P": n * n, "V": label.a}.get(label.kind, 2 * n)


def check_symmetric(table):
    labs = table.labels
    return all(table.entries[(a, b)] == table.entries[(b, a)] for a in labs for b in labs)


def check_unit(table):
    one = table.one
    return all(table.entries[(one, a)] == {a: 1} == table.entries[(a, one)] for a in table.labels)


def check_dimension_grading(table):
    n = table.n
    return all(
        label_dim(a, n) * label_dim(b, n) == sum(m * label_dim(c, n) for c, m in out.items())
        for (a, b), out in table.entries.items()
    )


def check_associativity(table):
    """(ab)c = a(bc) on all |labels|^3 triples of basis labels."""
    E, labs = table.entries, table.labels
    return all(
        table.mul(E[(a, b)], {c: 1}) == table.mul({a: 1}, E[(b, c)])
        for a in labs for b in labs for c in labs
    )


def conj_grade_radical(H):
    """The trace-form radical blocked by the conjugation grade alone, which
    is coarser than the exponent grade: grade g pairs with grade -g in
    (Z_n)^2, and every block is solved, partnerless or not."""
    n = H.n
    classes = {}
    for m in H.basis:
        classes.setdefault(H.conj_grade(m), []).append(m)
    form = trace_form(H.field, H.basis, H._mono_product)
    vectors = []
    for (gb, gc), monos in classes.items():
        partners = classes.get((-gb % n, -gc % n), [])
        gram = _form_matrix(H.field, form, monos, partners).transpose()
        for kv in kernel_basis(gram).rows:
            vectors.append({H.index[monos[k]]: c for k, c in kv.items()})
    return Subspace.from_vectors(H.field, H.dim, vectors)


def conjugated_module(M, seed):
    """M rewritten in a random basis, where b and c are in general not
    diagonal (used as an oracle)."""
    rng = random.Random(seed)
    H = M.algebra
    f = H.field
    d = M.dim
    while True:
        draws = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        p = Mat(f, d, d, [{j: f.from_int(v) for j, v in enumerate(r) if v} for r in draws])
        try:
            pinv = invert(p)
            break
        except ValueError:
            continue
    acts = {name: pinv * M.acts[name] * p for name in M.acts}
    return Module(H, acts, label=M.label, check=False)
