"""Hopf structure: coproduct, counit, antipode, and their verification.

The coproduct is extended multiplicatively from the generators (as an
algebra map into H tensor H), the counit multiplicatively and the antipode
anti-multiplicatively.  Elements of H tensor H (and of the triple tensor)
are finitely supported dicts keyed by pairs (triples) of PBW monomials.
"""

from __future__ import annotations

import random

from .algebra import AlgebraSpec, AlgElt, _merge, build_algebra, defining_relations, eval_relation
from .cyclo import _sum_of_products, q_factorial
from .linalg import _add_scaled

__all__ = [
    "HopfMaps",
    "hopf_maps",
    "verify_hopf_axioms",
    "skew_pairing_tau",
    "tensor_iso_check",
]


def _pair_mul(A, B, x, y):
    """Product of two sparse elements of A tensor B (componentwise, no braiding);
    keys are (A monomial, B monomial) pairs."""
    out = {}
    for (l1, r1), c1 in x.items():
        for (l2, r2), c2 in y.items():
            c = c1 * c2
            for ml, cl in A.mono_mul(l1, l2).items():
                ccl = c * cl
                for mr, cr in B.mono_mul(r1, r2).items():
                    _merge(out, (ml, mr), ccl * cr)
    return out


class HopfMaps:
    """Coproduct, counit and antipode of one of the four algebra families."""

    def __init__(self, H):
        self.H = H
        f = H.field
        self._unit = unit = H._unit
        one = f.one
        gen = {}
        if H.num_letters == 2:
            g, x = (1, 0), (0, 1)
            gen[0] = {(g, g): one}
            gen[1] = {(x, g): one, (unit, x): one}
        else:
            a, b, c, d = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
            gen[0] = {(a, b): one, (unit, a): one}
            gen[1] = {(b, b): one}
            gen[2] = {(c, c): one}
            gen[3] = {(d, c): one, (unit, d): one}
        self._delta_gen = gen
        self._delta_memo = {unit: {(unit, unit): one}}
        self._spow_memo = {}
        self._antipode_memo = {unit: H.one}
        s_gen = {}
        n = H.n
        if H.num_letters == 2:
            gg = H.monomial((n - 1, 0))
            s_gen[0] = gg
            s_gen[1] = -(H.gen("x") * gg)
        else:
            binv = H.monomial((0, n - 1, 0, 0))
            cinv = H.monomial((0, 0, n - 1, 0))
            s_gen[0] = -(H.gen("a") * binv)
            s_gen[1] = binv
            s_gen[2] = cinv
            s_gen[3] = -(H.gen("d") * cinv)
        self._s_gen = s_gen

    # -- elementwise maps ---------------------------------------------------

    def tensor_mul(self, x, y):
        """Product in H tensor H."""
        return _pair_mul(self.H, self.H, x, y)

    def delta_mono(self, mono):
        """Delta(u) = Delta(prefix) Delta(x_t^e) for the last letter power
        x_t^e of u: the left-associated product over u's letter powers, one
        H tensor H product per new monomial."""
        cached = self._delta_memo.get(mono)
        if cached is not None:
            return cached
        t = max(i for i, e in enumerate(mono) if e)
        prefix = mono[:t] + (0,) * (len(mono) - t)
        out = self._delta_gen_pow(t, mono[t])
        if prefix != self._unit:
            out = self.tensor_mul(self.delta_mono(prefix), out)
        self._delta_memo[mono] = out
        return out

    def _delta_gen_pow(self, t, e):
        key = (t, e)
        cached = self._spow_memo.get(key)
        if cached is not None:
            return cached
        out = self._delta_gen[t]
        for _ in range(e - 1):
            out = self.tensor_mul(out, self._delta_gen[t])
        self._spow_memo[key] = out
        return out

    def antipode_mono(self, mono):
        cached = self._antipode_memo.get(mono)
        if cached is not None:
            return cached
        # S(u) = S(u / x_t) S(x_t) for the first letter x_t of u
        t = min(i for i, e in enumerate(mono) if e)
        rest = mono[:t] + (mono[t] - 1,) + mono[t + 1 :]
        out = self._s_gen[t] if rest == self._unit else self.antipode_mono(rest) * self._s_gen[t]
        self._antipode_memo[mono] = out
        return out

    def antipode(self, elt):
        S = self.antipode_mono
        terms = ((c, None, S(m).terms) for m, c in elt.terms.items())
        return AlgElt(self.H, _sum_of_products(self.H.field, terms))

    # -- per-element axiom checks --------------------------------------------

    def coassociative_on(self, mono):
        left = {}
        right = {}
        for (v, w), c in self.delta_mono(mono).items():
            for (v1, v2), c2 in self.delta_mono(v).items():
                _merge(left, (v1, v2, w), c * c2)
            for (w1, w2), c2 in self.delta_mono(w).items():
                _merge(right, (v, w1, w2), c * c2)
        return left == right

    def counit_axiom_on(self, mono):
        H = self.H
        lhs = {}
        rhs = {}
        for (v, w), c in self.delta_mono(mono).items():
            ev = H.counit_mono(v)
            if not ev.is_zero():
                _merge(lhs, w, c * ev)
            ew = H.counit_mono(w)
            if not ew.is_zero():
                _merge(rhs, v, c * ew)
        expect = {mono: H.field.one}
        return lhs == expect and rhs == expect

    def antipode_axiom_on(self, mono):
        H = self.H
        lhs = {}
        rhs = {}
        for (v, w), c in self.delta_mono(mono).items():
            sv = self.antipode_mono(v)
            for mv, cv in sv.terms.items():
                _add_scaled(lhs, c * cv, H.mono_mul(mv, w))
            sw = self.antipode_mono(w)
            for mw, cw in sw.terms.items():
                _add_scaled(rhs, c * cw, H.mono_mul(v, mw))
        eps = H.counit_mono(mono)
        expect = {} if eps.is_zero() else {self._unit: eps}
        return lhs == expect and rhs == expect

    # -- structure-respect checks ---------------------------------------------

    def respects_relations(self):
        """Delta, epsilon, S applied to every defining relation give zero."""
        H = self.H
        f = H.field
        failures = []
        rels = defining_relations(H)
        one_t2 = {(self._unit, self._unit): f.one}
        eps_gens = {t: f.one if H.cyclic[t] else f.zero for t in range(H.num_letters)}
        for name, terms in rels:
            if eval_relation(terms, self._delta_gen, one_t2, {}, self.tensor_mul, _add_scaled):
                failures.append(("delta", name))
            sval = eval_relation(
                terms, eps_gens, f.one, f.zero, lambda x, y: x * y, lambda s, c, x: s + c * x
            )
            if not sval.is_zero():
                failures.append(("counit", name))
            aval = eval_relation(
                terms,
                self._s_gen,
                H.one,
                H.zero_elt,
                lambda x, y: x * y,
                lambda s, c, x: s + x.scale(c),
                reverse=True,
            )
            if not aval.is_zero():
                failures.append(("antipode", name))
        return failures


def hopf_maps(H):
    """The Hopf structure maps attached to an algebra (cached per algebra)."""
    maps = getattr(H, "_hopf_maps", None)
    if maps is None:
        maps = HopfMaps(H)
        H._hopf_maps = maps
    return maps


class HopfReport:
    def __init__(self, family, n, p, checked, distinct, failures, relation_failures):
        self.family = family
        self.n = n
        self.p = p
        self.checked = checked
        self.distinct = distinct
        self.failures = failures
        self.relation_failures = relation_failures

    @property
    def ok(self):
        return not self.failures and not self.relation_failures

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "p": self.p,
            "elements_checked": self.checked,
            "distinct_elements_checked": self.distinct,
            "status": "pass" if self.ok else "fail",
            "failures": [
                {"axiom": ax, "element": list(m)} for ax, m in self.failures
            ],
            "relation_failures": [
                {"map": mp, "relation": rel} for mp, rel in self.relation_failures
            ],
        }


def verify_hopf_axioms(H, sample=None, seed=0):
    """Check coassociativity, counit and antipode axioms element by element.

    With no sample size the whole PBW basis is swept; a seeded sample is
    used for the larger orders.  Each distinct monomial is checked once;
    every draw of it lists its failures, in draw order.
    """
    maps = hopf_maps(H)
    if sample is None:
        elements = list(H.basis)
    else:
        rng = random.Random(seed)
        elements = [H.basis[rng.randrange(H.dim)] for _ in range(sample)]
    axioms = (
        ("coassociativity", maps.coassociative_on),
        ("counit", maps.counit_axiom_on),
        ("antipode", maps.antipode_axiom_on),
    )
    verdicts = {}  # distinct monomial -> the axioms it fails, checked once
    failures = []
    for mono in elements:
        if mono not in verdicts:
            verdicts[mono] = [ax for ax, holds in axioms if not holds(mono)]
        failures.extend((ax, mono) for ax in verdicts[mono])
    rel_failures = maps.respects_relations()
    p = H.p.serialize() if H.p is not None else None
    return HopfReport(H.spec.family, H.n, p, len(elements), len(verdicts), failures, rel_failures)


def skew_pairing_tau(field, p, left, right):
    """The invertible skew pairing on basis monomials of the two Taft factors.

    ``left`` are the exponents (i, j) of g^i x^j, ``right`` the exponents
    (k, l) of x1^k g1^l; the value is delta(j,k) p^j q^(il) (j)!_q.
    """
    i, j = left
    k, l = right
    n = field.n
    if not (0 <= i < n and 0 <= j < n and 0 <= k < n and 0 <= l < n):
        raise ValueError("pairing exponents out of range")
    if j != k:
        return field.zero
    return (p ** j) * field.q_pow(i * l) * q_factorial(field, j)


def tensor_iso_check(n):
    """Verify the generator assignment extends to a Hopf isomorphism from the
    four-generator algebra onto the pair algebra of the two Taft factors."""
    # build_algebra ignores the depth; perfbench's set-up for this target declares 200
    H = build_algebra(AlgebraSpec("tensor_taft", n), assoc_sample=200)
    T1 = build_algebra(AlgebraSpec("taft", n), assoc_sample=200)
    T2 = build_algebra(AlgebraSpec("taft_opp", n), assoc_sample=200)
    m1 = hopf_maps(T1)
    m2 = hopf_maps(T2)
    f = H.field
    unit1, unit2 = (0, 0), (0, 0)

    images = {
        0: {(unit1, (0, 1)): f.one},  # a -> 1 (x) x1
        1: {(unit1, (1, 0)): f.one},  # b -> 1 (x) g1
        2: {((1, 0), unit2): f.one},  # c -> g (x) 1
        3: {((0, 1), unit2): f.one},  # d -> x (x) 1
    }
    phi_memo = {}

    def phi(mono):
        cached = phi_memo.get(mono)
        if cached is not None:
            return cached
        out = {(unit1, unit2): f.one}
        for t in range(4):
            for _ in range(mono[t]):
                out = _pair_mul(T1, T2, out, images[t])
        phi_memo[mono] = out
        return out

    report = {"n": n, "dim": H.dim, "status": "pass", "failures": []}

    def fail(kind, detail):
        report["status"] = "fail"
        report["failures"].append({"kind": kind, "detail": detail})

    # bijectivity: each basis monomial maps to a distinct scaled pair monomial
    seen = {}
    for mono in H.basis:
        img = phi(mono)
        if len(img) != 1:
            fail("not-monomial-image", list(mono))
            continue
        (pair, coeff), = img.items()
        if coeff.is_zero() or pair in seen:
            fail("not-bijective", list(mono))
        seen[pair] = mono
    if len(seen) != T1.dim * T2.dim:
        fail("not-surjective", len(seen))

    # algebra map on every product of basis monomials
    for u in H.basis:
        for v in H.basis:
            lhs = {}
            for m, c in H.mono_mul(u, v).items():
                _add_scaled(lhs, c, phi(m))
            rhs = _pair_mul(T1, T2, phi(u), phi(v))
            if lhs != rhs:
                fail("product-mismatch", [list(u), list(v)])
                report["first_product_mismatch"] = [list(u), list(v)]
                return report

    # coalgebra map: (phi x phi) Delta_H = Delta_pair phi, plus counit
    mH = hopf_maps(H)
    for u in H.basis:
        lhs = {}
        for (v, w), c in mH.delta_mono(u).items():
            for pv, cv in phi(v).items():
                for pw, cw in phi(w).items():
                    _merge(lhs, (pv, pw), c * cv * cw)
        rhs = {}
        for (mA, mB), c in phi(u).items():
            for (a1, a2), ca in m1.delta_mono(mA).items():
                for (b1, b2), cb in m2.delta_mono(mB).items():
                    _merge(rhs, ((a1, b1), (a2, b2)), c * ca * cb)
        if lhs != rhs:
            fail("coproduct-mismatch", list(u))
            report["first_coproduct_mismatch"] = list(u)
            return report
        eps_pair = f.zero
        for (mA, mB), c in phi(u).items():
            e = T1.counit_mono(mA) * T2.counit_mono(mB)
            if not e.is_zero():
                eps_pair = eps_pair + c * e
        if eps_pair != H.counit_mono(u):
            fail("counit-mismatch", list(u))

    # antipode compatibility: phi(S(u)) = (S1 x S2)(phi(u))
    for u in H.basis:
        lhs = {}
        for m, c in mH.antipode_mono(u).terms.items():
            _add_scaled(lhs, c, phi(m))
        rhs = {}
        for (mA, mB), c in phi(u).items():
            sA = m1.antipode_mono(mA)
            sB = m2.antipode_mono(mB)
            for ma, ca in sA.terms.items():
                for mb, cb in sB.terms.items():
                    _merge(rhs, (ma, mb), c * ca * cb)
        if lhs != rhs:
            fail("antipode-mismatch", list(u))
    return report

