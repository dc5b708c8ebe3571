import random

import pytest

from hopfring import repn
from hopfring.algebra import Algebra, AlgebraSpec, build_algebra
from hopfring.labels import Label, basis_labels, label_dim
from hopfring.linalg import Mat, kronecker
from hopfring.repn import (
    Module,
    ModuleCatalog,
    ModuleError,
    decompose,
    hom_dim,
    module_catalog,
    module_from_vectors,
    pim_arrow_scalars,
    projective_P,
    radical_filtration,
    regular_representation,
    simple_S,
    spin_module,
    tensor_module,
    weight_decomposition,
    weightized,
)
from hopfring.structure import _vector_to_elt, jacobson_radical, radical_ideal_generators
from oracles import conjugated_module
from test_linalg import apply, dense_row, mat_from_rows, sparse_row


def get(family, n, p=None):
    return build_algebra(AlgebraSpec(family, n, p))


def test_regular_representation_basics():
    H = get("tensor_taft", 3)
    reg = regular_representation(H)
    assert reg.dim == 81
    A = reg.acts["a"]
    assert not (A * A).is_zero()
    assert (A * A * A).is_zero()
    B = reg.acts["b"]
    from hopfring.linalg import Mat

    assert B * B * B == Mat.identity(H.field, 81)


def test_simple_module_scalars():
    H = get("hpq", 3, 0)
    s = simple_S(1, 2, H)
    assert s.acts["b"][0, 0] == H.field.q_pow(1)
    assert s.acts["c"][0, 0] == H.field.q_pow(2)
    assert s.acts["a"][0, 0].is_zero()
    # trivial module: everything acts through the counit
    t = simple_S(0, 0, H)
    assert t.acts["b"][0, 0] == H.field.one


def test_simples_pairwise_nonisomorphic():
    H = get("tensor_taft", 3)
    mods = [simple_S(i, j, H) for i in range(3) for j in range(3)]
    for x in range(9):
        for y in range(9):
            expect = 1 if x == y else 0
            assert hom_dim(mods[x], mods[y]).dim == expect


def test_projective_dimensions_and_top():
    for fam, p in (("tensor_taft", None), ("hpq", 0)):
        H = get(fam, 3, p)
        P = projective_P(0, 0, H)
        assert P.dim == 9
        cat = module_catalog(H)
        tvec = [hom_dim(P, cat.simples[lab]).dim for lab in cat.labels]
        assert sum(tvec) == 1
        assert tvec[cat.labels.index(Label("S", 0, 0))] == 1


def test_pim_arrow_scalars_match_diagrams():
    # the undeformed family has undecorated arrows; the p=0 deformation
    # decorates the dashed arrow at (k, l) with q^k
    H = get("tensor_taft", 3)
    solid, dashed = pim_arrow_scalars(0, 0, H)
    assert all(v == H.field.one for v in solid.values())
    assert all(v == H.field.one for v in dashed.values())
    H0 = get("hpq", 3, 0)
    solid0, dashed0 = pim_arrow_scalars(1, 2, H0)
    assert all(v == H0.field.one for v in solid0.values())
    for (k, l), v in dashed0.items():
        assert v == H0.field.q_pow(k)


def test_tensor_module_dims_and_unit():
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    s = cat.simples[Label("S", 0, 0)]
    p = cat.pims[Label("S", 1, 2)]
    t = tensor_module(s, p)
    assert t.dim == 9
    assert decompose(t) == {Label("P", 1, 2): 1}
    t2 = tensor_module(p, s)
    assert decompose(t2) == {Label("P", 1, 2): 1}


def test_tensor_with_trivial_is_identity():
    # S(0,0) (x) M has exactly M's matrices under the canonical index map
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    triv = cat.simples[Label("S", 0, 0)]
    m = cat.pims[Label("S", 2, 1)]
    t = tensor_module(triv, m)
    assert t.dim == m.dim
    for name in "abcd":
        assert t.acts[name] == m.acts[name]


def _written_coproduct(M, N):
    """The coproduct of the abcd families written out by hand:
    a -> a(x)b + 1(x)a, b -> b(x)b, c -> c(x)c, d -> d(x)c + 1(x)d."""
    eye = Mat.identity(M.algebra.field, M.dim)
    return {
        "a": kronecker(M.acts["a"], N.acts["b"]) + kronecker(eye, N.acts["a"]),
        "b": kronecker(M.acts["b"], N.acts["b"]),
        "c": kronecker(M.acts["c"], N.acts["c"]),
        "d": kronecker(M.acts["d"], N.acts["c"]) + kronecker(eye, N.acts["d"]),
    }


@pytest.mark.parametrize(
    "family, p, left, right",
    [
        ("tensor_taft", None, ("pims", Label("S", 1, 2)), ("pims", Label("S", 2, 0))),
        ("hpq", 1, ("pims", Label("V", 1, 0)), ("simples", Label("V", 2, 1))),
    ],
)
def test_tensor_module_matches_written_coproduct(family, p, left, right):
    cat = module_catalog(get(family, 3, p))
    M = getattr(cat, left[0])[left[1]]
    N = getattr(cat, right[0])[right[1]]
    t = tensor_module(M, N)
    assert t.acts == _written_coproduct(M, N)


def test_tensor_of_simples_adds_weights():
    H = get("tensor_taft", 3)
    s1 = simple_S(1, 0, H)
    s2 = simple_S(0, 1, H)
    t = tensor_module(s1, s2)
    assert t.weights == [(1, 1)]
    assert t.acts["b"][0, 0] == H.field.q
    assert t.acts["c"][0, 0] == H.field.q


def test_weight_decomposition_of_regular_module():
    H = get("tensor_taft", 3)
    reg = regular_representation(H)
    assert reg.weights is None  # b and c move the PBW basis
    wd = weight_decomposition(reg)
    assert sorted(wd) == [(i, j) for i in range(3) for j in range(3)]
    assert all(sub.dim == 9 for sub in wd.values())


def test_weight_spaces_shift_under_a():
    H = get("hpq", 3, 0)
    reg = regular_representation(H)
    wd = weight_decomposition(reg)
    A = reg.acts["a"]
    sh = H.weight_shift("a")
    for (i, j), sub in wd.items():
        tgt = wd[((i + sh[0]) % 3, (j + sh[1]) % 3)]
        for row in sub.rows:
            assert tgt.contains(sparse_row(apply(A, dense_row(H.field, row, H.dim))))


def test_hom_of_pim_with_itself():
    # dim Hom(P(S), M) counts the multiplicity [M : S]; for the undeformed
    # family each simple occurs once in P(0,0), so End(P) is 1-dimensional
    # (cross-checked against the corner algebra e H e) and the total over
    # all covers is n^2, one per composition factor.
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    P = cat.pims[Label("S", 0, 0)]
    assert hom_dim(P, P).dim == 1
    from hopfring.linalg import SpanBuilder

    e = H.group_idempotents()[(0, 0)]
    corner = SpanBuilder(H.field, H.dim)
    for m in H.basis:
        x = e * H.monomial(m) * e
        if not x.is_zero():
            corner.insert(x.as_row())
    assert corner.dim == hom_dim(P, P).dim
    assert sum(hom_dim(cat.pims[lab], P).dim for lab in cat.labels) == 9


def test_intertwiner_basis_actually_intertwines():
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    P = cat.pims[Label("S", 0, 0)]
    S = cat.simples[Label("S", 0, 0)]
    hs = hom_dim(P, S)
    assert hs.dim == 1
    (f,) = hs.intertwiners()
    for name in "abcd":
        lhs = f * P.acts[name]
        rhs = S.acts[name] * f
        assert lhs == rhs


def test_radical_filtration_diamond():
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    P = cat.pims[Label("S", 0, 0)]
    pairs = [(lab, cat.simples[lab]) for lab in cat.labels]
    layers = radical_filtration(P, pairs)
    assert [sum(layer.values()) for layer in layers] == [1, 2, 3, 2, 1]
    total = {}
    for layer in layers:
        for lab, m in layer.items():
            total[lab] = total.get(lab, 0) + m
    assert total == {lab: 1 for lab in cat.labels}


def test_act_elt_is_the_sum_of_scaled_monomial_actions():
    H = get("hpq", 3, 1)
    M = regular_representation(H)
    rng = random.Random(7)
    elt = H.zero_elt
    for m in rng.sample(H.basis, 6):
        elt = elt + H.monomial(m).scale(H.field.random(rng))
    ref = Mat.zeros(H.field, M.dim, M.dim)
    for mono, c in elt.terms.items():
        ref = ref + M._mono_matrix(mono).scale(c)
    assert M.act_elt(elt) == ref
    for x in (H.gen("a"), H.gen("d") * H.gen("b")):
        one, image = (dense_row(H.field, y.as_row(), H.dim) for y in (H.one, x))
        assert apply(M.act_elt(x), one) == image


def test_radical_action_kept_on_the_module(monkeypatch):
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    lab = next(l for l in cat.labels if cat.pims[l].dim == 2 * H.n)
    fresh = Module(H, cat.pims[lab].acts, label=lab)
    pairs = [(l, cat.simples[l]) for l in cat.labels]
    layers = radical_filtration(fresh, pairs)
    assert len(layers) == 3
    gens = radical_ideal_generators(H)
    assert len(fresh._radical_mats) == len(gens)
    assert len(gens) < jacobson_radical(H).dim

    def refuse(elt):
        raise AssertionError("radical action rebuilt")

    monkeypatch.setattr(fresh, "act_elt", refuse)
    assert radical_filtration(fresh, pairs) == layers


def test_cartan_matrices():
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    cm = cat.cartan_matrix()
    assert all(v == 1 for row in cm for v in row)
    H0 = get("hpq", 3, 0)
    cat0 = module_catalog(H0)
    for t in cat0.labels:
        for s in cat0.labels:
            expect = 3 if (s.a - t.a) % 3 == (s.b - t.b) % 3 else 0
            assert cat0.cartan.get((t, s), 0) == expect


def test_cartan_weighted_row_sums():
    for fam, p in (("tensor_taft", None), ("hpq", 0)):
        H = get(fam, 3, p)
        cat = module_catalog(H)
        for t in cat.labels:
            total = sum(
                cat.cartan.get((t, s), 0) * cat.simples[s].dim for s in cat.labels
            )
            assert total == cat.pims[t].dim


def test_decompose_pp_tensor_taft():
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    P = cat.pims[Label("S", 0, 0)]
    m = tensor_module(P, P)
    assert decompose(m) == {Label("P", i, j): 1 for i in range(3) for j in range(3)}


def test_decompose_pp_h0():
    H = get("hpq", 3, 0)
    cat = module_catalog(H)
    P = cat.pims[Label("S", 0, 0)]
    assert decompose(tensor_module(P, P)) == {Label("P", t, t): 3 for t in range(3)}


def test_decompose_zero_module():
    H = get("tensor_taft", 3)
    from hopfring.linalg import Mat
    from hopfring.repn import Module

    zero = Module(H, {g: Mat.zeros(H.field, 0, 0) for g in "abcd"}, check=False)
    zero.dim = 0
    assert decompose(zero) == {}


@pytest.mark.parametrize("family,n,p", [
    ("tensor_taft", 3, None), ("hpq", 3, 0), ("hpq", 3, 1), ("hpq", 4, 1),
])
def test_catalog_classes_are_the_ring_basis(family, n, p):
    cat = module_catalog(get(family, n, p))
    key = family if p is None else "hpq%d" % p
    assert set(cat.classes) == set(basis_labels(key, n))
    for lab, M in cat.classes.items():
        assert M.dim == label_dim(lab, n)
        if lab.kind in ("P", "Pr"):  # a cover has exactly its own simple on top
            top = Label("S" if lab.kind == "P" else "V", lab.a, lab.b)
            for s in cat.labels:
                assert hom_dim(M, cat.simples[s]).dim == (s == top)


@pytest.mark.parametrize("family,p", [("tensor_taft", None), ("hpq", 0)])
def test_composition_vector_routes_agree(family, p):
    # weights against Hom(P, M); the S(1,0) factor shifts the weights, so
    # a route that swaps the two weight indices disagrees
    cat = module_catalog(get(family, 3, p))
    for x in (Label("S", 1, 0), Label("P", 0, 0)):
        for y in sorted(cat.classes):
            M = tensor_module(cat.classes[x], cat.classes[y])
            assert cat.composition_vector(M, via_hom=True) == cat.composition_vector(M)


def test_h1_catalog_n3():
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    dims = sorted(cat.simples[lab].dim for lab in cat.labels)
    assert dims == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    for lab in cat.labels:
        assert cat.simples[lab].dim == lab.a
        if lab.a == 3:
            assert cat.pims[lab].dim == 3  # simple projectives
        else:
            assert cat.pims[lab].dim == 6
    assert cat.simples[Label("V", 1, 0)].acts["b"][0, 0] == H.field.one


def test_h1_one_dimensionals_are_characters():
    # a, d act by zero and (b, c) by (q^r, q^(-r))
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    seen = set()
    for r in range(3):
        s = cat.simples[Label("V", 1, r)]
        assert s.acts["a"][0, 0].is_zero()
        assert s.acts["d"][0, 0].is_zero()
        b = s.acts["b"][0, 0]
        c = s.acts["c"][0, 0]
        assert b * c == H.field.one
        k = next(k for k in range(3) if H.field.q_pow(k) == b)
        seen.add(k)
    assert seen == {0, 1, 2}


def test_h1_splitness():
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    for lab in cat.labels:
        assert hom_dim(cat.simples[lab], cat.simples[lab]).dim == 1


def test_h1_projective_simples():
    # composition multiplicity of V(n,r) in the regular module is dim V(n,r)
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    reg = regular_representation(H)
    cvec = cat.composition_vector(reg)
    for lab, c in zip(cat.labels, cvec):
        if lab.a == 3:
            assert c == 3


def test_h1_calibration_fusion_anchor():
    # V(2,0) (x) V(2,0) decomposes as V(3,0) + V(1,1) by calibration
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    t = tensor_module(cat.simples[Label("V", 2, 0)], cat.simples[Label("V", 2, 0)])
    assert decompose(t) == {Label("V", 3, 0): 1, Label("V", 1, 1): 1}


def test_h1_decompose_v2_v3():
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    t = tensor_module(cat.simples[Label("V", 2, 0)], cat.simples[Label("V", 3, 0)])
    assert decompose(t) == {Label("Pr", 2, 1): 1}


def test_decompose_invariant_under_conjugation():
    H = get("tensor_taft", 3)
    cat = module_catalog(H)
    m = tensor_module(cat.simples[Label("S", 1, 0)], cat.pims[Label("S", 0, 1)])
    base = decompose(m)
    for seed in range(20):
        twisted = conjugated_module(m, seed)
        assert twisted.weights is None
        assert decompose(twisted) == base


def test_h1_decompose_invariant_under_conjugation():
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    m = tensor_module(cat.simples[Label("V", 2, 0)], cat.simples[Label("V", 2, 0)])
    base = decompose(m)
    for seed in range(5):
        assert decompose(conjugated_module(m, seed)) == base


def test_module_relation_check_catches_bad_action():
    H = get("tensor_taft", 3)
    from hopfring.linalg import Mat
    from hopfring.repn import Module

    f = H.field
    acts = {
        "a": Mat.zeros(f, 1, 1),
        "d": Mat.zeros(f, 1, 1),
        "b": mat_from_rows(f, [[f.q]]),
        "c": mat_from_rows(f, [[f.one + f.one]]),  # c^n != 1
    }
    with pytest.raises(ModuleError):
        Module(H, acts)


# -- the factored Cartan solve -------------------------------------------------

SOLVE_CATALOGS = [("tensor_taft", None), ("hpq", 1)]


def _cartan_rhs(cat, a, b):
    """The (composition, top) vectors of the module a*simples + b*covers."""
    cm = cat.cartan_matrix()
    k = len(cat.labels)
    cvec = [a[i] + sum(b[j] * cm[j][i] for j in range(k)) for i in range(k)]
    tvec = [a[i] + b[i] for i in range(k)]
    return cvec, tvec


@pytest.mark.parametrize("fam,p", SOLVE_CATALOGS)
def test_solve_mults_round_trip(fam, p):
    cat = module_catalog(get(fam, 3, p))
    k = len(cat.labels)
    free = [not cat.self_projective(lab) for lab in cat.labels]
    rng = random.Random(11)
    for _ in range(40):
        a = [rng.randint(0, 4) for _ in range(k)]
        # copies of a self-projective simple are counted on the simple side
        b = [rng.randint(0, 4) if f else 0 for f in free]
        assert cat._solve_mults(*_cartan_rhs(cat, a, b)) == (a, b)


@pytest.mark.parametrize("fam,p", SOLVE_CATALOGS)
def test_solve_mults_rejects_negative_solutions(fam, p):
    cat = module_catalog(get(fam, 3, p))
    k = len(cat.labels)
    j = next(i for i, lab in enumerate(cat.labels) if not cat.self_projective(lab))
    a = [2] * k
    b = [0] * k
    b[j] = -1
    assert cat._solve_mults(*_cartan_rhs(cat, a, b)) is None
    # b >= 0 but more covers than tops: a comes out negative
    b[j] = 3
    assert cat._solve_mults(*_cartan_rhs(cat, [0] * k, b)) == ([0] * k, b)
    cvec, tvec = _cartan_rhs(cat, [0] * k, b)
    tvec[j] -= 1
    cvec[j] -= 1
    assert cat._solve_mults(cvec, tvec) is None


def test_solve_mults_rejects_fractional_solution():
    # every basic PIM has each simple once: C^T - I = J - I, whose inverse
    # is J/(k-1) - I, so c - t = (1, ..., 1) solves to b = (1/8, ..., 1/8):
    # nonnegative, and a = t - b too, but not integral
    cat = module_catalog(get("tensor_taft", 3))
    k = len(cat.labels)
    assert all(v == 1 for row in cat.cartan_matrix() for v in row)
    assert cat._solve_mults([2] * k, [1] * k) is None
    assert cat._solve_mults([9] * k, [1] * k) == ([0] * k, [1] * k)


def test_solve_mults_rejects_inconsistent_system():
    # V(n, r) is its own cover and lies in no other cover: the rows of the
    # self-projective labels are consistency conditions
    cat = module_catalog(get("hpq", 3, 1))
    k = len(cat.labels)
    j = next(i for i, lab in enumerate(cat.labels) if cat.self_projective(lab))
    cvec, tvec = _cartan_rhs(cat, [1] * k, [0] * k)
    cvec[j] += 1
    assert cat._solve_mults(cvec, tvec) is None


def test_solve_mults_degenerate_cartan_raises():
    cat = module_catalog(get("tensor_taft", 3))
    # C = I makes C^T - I vanish on the cover columns
    bad = ModuleCatalog(
        cat.algebra, cat.labels, cat.simples, cat.pims, {(lab, lab): 1 for lab in cat.labels}
    )
    with pytest.raises(ModuleError):
        bad._solve_mults([0] * len(cat.labels), [0] * len(cat.labels))


# -- catalog spin and weight forms -------------------------------------------


def _spin_seeds(H, count=3):
    """Each e(i,j), then the first ``count`` simple seeds a^(n-1) e(s,t) d^k."""
    n = H.n
    es = H.group_idempotents()
    a_pow = H.monomial((n - 1, 0, 0, 0))
    seeds = [(a_pow * es[(s, t)]) * H.monomial((0, 0, 0, k))
             for s in range(n) for t in range(n) for k in range(n)]
    return [es[w] for w in sorted(es)] + [v for v in seeds if not v.is_zero()][:count]


def _spin_by_products(H, seed):
    """The spin by algebra products g*v, as module_from_vectors expects it."""
    from hopfring.linalg import SpanBuilder

    w0 = repn._left_weight(H, seed)
    builders = {w0: SpanBuilder(H.field, H.dim)}
    builders[w0].insert(seed.as_row())
    frontier = [(w0, seed)]
    while frontier:
        nxt = []
        for w, v in frontier:
            for name in H.letters:
                img = H.gen(name) * v
                sh = H.weight_shift(name)
                w2 = ((w[0] + sh[0]) % H.n, (w[1] + sh[1]) % H.n)
                sb = builders.setdefault(w2, SpanBuilder(H.field, H.dim))
                if not img.is_zero() and sb.insert(img.as_row()):
                    nxt.append((w2, img))
        frontier = nxt
    rows = [row for w in sorted(builders) for row in builders[w].to_subspace().rows]
    return module_from_vectors(H, [_vector_to_elt(H, row) for row in rows])


@pytest.mark.parametrize("n", [3, 4])
def test_spin_matches_module_from_vectors(n):
    H = get("hpq", n, 1)
    for seed in _spin_seeds(H):
        M = spin_module(H, [seed])
        ref = _spin_by_products(H, seed)
        assert M.weights == ref.weights
        assert M.acts == ref.acts


def test_simple_search_skips_covered_weights(monkeypatch):
    # a seed whose weight is an a-killed weight of a found simple is not
    # spun: 18 spins for the 9 simples at n = 3, not one per nonzero seed
    H = Algebra(AlgebraSpec("hpq", 3, 1))
    calls = []
    real = repn.spin_module

    def counting(H, seeds, label=None):
        calls.append(seeds)
        return real(H, seeds, label)

    monkeypatch.setattr(repn, "spin_module", counting)
    simples = repn._h1_discover_simples(H)
    assert [M.dim for M in simples] == [2, 3, 1, 3, 1, 2, 1, 2, 3]
    assert len(calls) == 18


def test_simple_search_fails_when_a_simple_is_lost(monkeypatch):
    # the budget certifies the search: a simple that is never accepted, as
    # a wrong skip would leave it, leaves dim H / J unfilled
    H = Algebra(AlgebraSpec("hpq", 3, 1))
    real = repn._is_simple
    monkeypatch.setattr(repn, "_is_simple", lambda M: M.dim != 3 and real(M))
    with pytest.raises(ModuleError, match="found 15 of 42 semisimple dimensions"):
        repn._h1_discover_simples(H)


def test_spin_fails_on_a_corrupt_regular_column():
    H = Algebra(AlgebraSpec("hpq", 3, 1))  # fresh: the corruption stays local
    e = H.group_idempotents()[(0, 0)]
    assert spin_module(H, [e]).dim == 9
    # the column L_a e_j, for a basis index j in the seed's support
    col = H._regular_cols[H.letters.index("a")].sparse_rows[next(iter(e.as_row()))]
    i = next(iter(col))
    col[i] = col[i] + col[i]
    with pytest.raises(ModuleError, match="violates relations"):
        spin_module(H, [e])


def test_spin_rejects_a_seed_that_is_not_a_weight_vector():
    H = get("hpq", 3, 1)
    es = H.group_idempotents()
    with pytest.raises(ModuleError, match="not a weight vector"):
        spin_module(H, [es[(0, 0)] + es[(1, 0)]])


def test_spin_names_a_span_that_is_not_invariant(monkeypatch):
    # with Subspace.coords failing, the spin reports the generator and weight
    H = get("hpq", 3, 1)

    def refuse(self, vec):
        raise ValueError("vector not contained in subspace")

    monkeypatch.setattr(repn.Subspace, "coords", refuse)
    with pytest.raises(ModuleError, match=r"not invariant under a at weight \(0, 0\)"):
        spin_module(H, [H.group_idempotents()[(0, 0)]])


def _count_eigen_solves(monkeypatch):
    calls = []
    real = repn.weight_decomposition

    def counted(M):
        calls.append(M.dim)
        return real(M)

    monkeypatch.setattr(repn, "weight_decomposition", counted)
    return calls


def test_catalog_and_products_read_diagonal_weights(monkeypatch):
    calls = _count_eigen_solves(monkeypatch)
    H = Algebra(AlgebraSpec("hpq", 3, 1))  # fresh, so its catalog is built here
    cat = module_catalog(H)
    P1, P2 = cat.pims[Label("V", 2, 1)], cat.pims[Label("V", 2, 2)]
    decompose(tensor_module(P1, P2))
    assert calls == []
    decompose(conjugated_module(P1, 0))
    assert calls


def test_weight_forms_agree_with_the_eigen_route():
    H = get("hpq", 3, 1)
    cat = module_catalog(H)
    P, S = cat.pims[Label("V", 1, 0)], cat.simples[Label("V", 2, 1)]

    def homs(eigen):
        T = tensor_module(P, S)
        if eigen:  # forget the weights read off T, so T alone is eigen-solved
            T.weights = None
        spaces = [hom_dim(T, T), hom_dim(P, T), hom_dim(T, S)]
        return [(h.dim, h.intertwiners()) for h in spaces], weightized(T)[1]

    fast, fast_tr = homs(False)
    slow, slow_tr = homs(True)
    assert fast_tr is None and slow_tr is not None
    assert fast == slow
    assert all(dim for dim, _ in fast)


def _catalog_and_products(family, n, p):
    """Every catalog simple and cover, and the four products of a simple
    and a cover with each other."""
    cat = module_catalog(get(family, n, p))
    factors = [cat.simples[cat.labels[-1]], cat.pims[cat.labels[1]]]
    products = [tensor_module(x, y, check=False) for x in factors for y in factors]
    return [*cat.simples.values(), *cat.pims.values(), *products]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family, p", [("tensor_taft", None), ("hpq", 0), ("hpq", 1)])
def test_read_weights_lie_in_the_eigen_solved_weight_spaces(family, p, n):
    # the weights read off b and c against an independent eigen-solve
    for M in _catalog_and_products(family, n, p):
        assert M.weights is not None and len(M.weights) == M.dim
        wd = weight_decomposition(M)
        one = M.algebra.field.one
        for i, w in enumerate(M.weights):
            assert wd[w].contains({i: one}), (M.label, i, w)


def test_a_diagonal_minus_one_takes_the_eigen_route(monkeypatch):
    calls = _count_eigen_solves(monkeypatch)
    H = get("hpq", 3, 1)
    f = H.field
    acts = {
        "a": Mat.zeros(f, 2, 2),
        "d": Mat.zeros(f, 2, 2),
        "b": mat_from_rows(f, [[f.one, f.zero], [f.zero, -f.one]]),
        "c": Mat.identity(f, 2),
    }
    M = Module(H, acts, check=False)
    assert M.weights is None  # -1 is no power of q at n = 3
    with pytest.raises(ModuleError):
        weightized(M)
    assert calls == [2]
