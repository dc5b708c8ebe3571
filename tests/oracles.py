"""Test oracles that recompute a result by an independent route."""

import random

from hopfring.fdalg import _form_matrix, trace_form
from hopfring.linalg import Mat, Subspace, invert, kernel_basis
from hopfring.repn import Module


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
    """M rewritten in a random basis (drops weight data; used as an oracle)."""
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
    return Module(H, acts, label=M.label, weights=None, check=False)
