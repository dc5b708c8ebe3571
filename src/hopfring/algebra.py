"""Construction of the Taft-type algebras on their PBW bases.

Four families are supported:

* ``taft``        -- generators g, x with g^n = 1, x^n = 0, xg = q gx
* ``taft_opp``    -- the same presentation with q replaced by q^(-1)
* ``tensor_taft`` -- generators a, b, c, d of the tensor product of the two
                     Taft algebras (all mixed relations are q-commutations)
* ``hpq``         -- the deformation with da = q ad + p(1 - bc)

Products of PBW monomials are computed by a terminating rewriting system
that moves generators into alphabetical order and reduces n-th powers;
the one fanning rule is d past a in the deformed family.  The
generator-level rewrites, their letter powers and the resulting basis-pair
products are memoized, which is what makes the larger orders feasible;
products needed only once (the trace form's) bypass the pair memo.

Construction proves the product associative.  ``mono_mul(u, v)`` is
L_u(v), a composite of the operators L_t = ``_lmul_gen(t, .)``; the build
checks exactly that the L_t satisfy the defining relations and that
u * 1 = u.  The PBW space is then a cyclic module, with generator 1, over
the presented algebra, which the PBW words span; so the module is free of
rank one and the product is the algebra's (Bergman's diamond lemma, Adv.
Math. 29, 1978).  ``mono_mul`` applies L_u as the letter powers
L_d^(u_d), ..., L_a^(u_a), each memoized as L_t^e = L_t(L_t^(e-1)) and
built from ``_lmul_gen`` alone: the same composite of the same L_t, so
the argument covers every product.
"""

from __future__ import annotations

from .cyclo import RAT, CycloNum, cyclo_field
from .linalg import Mat, _add_scaled

__all__ = ["AlgebraSpec", "Algebra", "AlgElt", "build_algebra", "AlgebraError"]

FAMILIES = ("taft", "taft_opp", "tensor_taft", "hpq")

# letter tables: (names, cyclic flags, q-exponent of the swap scalar
# lam[t][s] defined by  letter_t letter_s = q^lam[t][s] letter_s letter_t)
_LETTERS = {
    "taft": (("g", "x"), (True, False)),
    "taft_opp": (("g", "x"), (True, False)),
    "tensor_taft": (("a", "b", "c", "d"), (False, True, True, False)),
    "hpq": (("a", "b", "c", "d"), (False, True, True, False)),
}


class AlgebraError(Exception):
    """Raised when construction self-checks fail (a broken relation, bad spec)."""


class AlgebraSpec:
    """Family, order and (for the deformed family) the parameter p."""

    __slots__ = ("family", "n", "p")

    def __init__(self, family, n, p=None):
        if family not in FAMILIES:
            raise AlgebraError("unknown family %r" % (family,))
        if n < 3:
            raise AlgebraError("order must be at least 3, got %r" % (n,))
        if family == "hpq":
            if p is None:
                raise AlgebraError("family hpq needs the parameter p")
        elif p is not None:
            raise AlgebraError("parameter p only applies to family hpq")
        self.family = family
        self.n = n
        self.p = p

    def key(self):
        p = self.p
        if isinstance(p, CycloNum):
            p = p.serialize()
        return (self.family, self.n, p)

    def __repr__(self):
        if self.family == "hpq":
            return "AlgebraSpec(hpq, n=%d, p=%s)" % (self.n, self.p)
        return "AlgebraSpec(%s, n=%d)" % (self.family, self.n)


def _merge(out, key, c):
    """Add c to out[key] in a sparse dict, dropping the key when the sum is zero."""
    acc = out.get(key)
    s = c if acc is None else acc + c
    if s._is0:
        out.pop(key, None)
    else:
        out[key] = s


def _ratio(x, y):
    """The scalar lam with x = lam * y, or None when either side is zero or
    the two are not proportional."""
    if x.is_zero() or y.is_zero():
        return None
    mono = next(iter(y.terms))
    num = x.terms.get(mono)
    if num is None:
        return None
    lam = num * y.terms[mono].inverse()
    if x == y.scale(lam):
        return lam
    return None


class AlgElt:
    """A finitely supported linear combination of PBW basis monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms  # dict: exponent tuple -> nonzero CycloNum

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, AlgElt) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            _merge(out, m, c)
        return AlgElt(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgElt(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if c.is_zero():
            return AlgElt(self.algebra, {})
        return AlgElt(self.algebra, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other):
        return self.algebra.mul(self, other)

    def as_vector(self):
        H = self.algebra
        v = [H.field.zero] * H.dim
        for m, c in self.terms.items():
            v[H.index[m]] = c
        return v

    def as_row(self):
        """The element as a sparse row: basis index -> nonzero scalar."""
        index = self.algebra.index
        return {index[m]: c for m, c in self.terms.items()}

    def serialize(self):
        if not self.terms:
            return "0"
        H = self.algebra
        parts = []
        for m in sorted(self.terms):
            word = "".join(
                "%s^%d" % (H.letters[t], e) if e > 1 else H.letters[t]
                for t, e in enumerate(m)
                if e
            )
            coeff = self.terms[m].serialize()
            if not word:
                parts.append("(%s)" % coeff)
            else:
                parts.append("(%s)*%s" % (coeff, word))
        return " + ".join(parts)

    def __repr__(self):
        return "<AlgElt %s>" % self.serialize()


class Algebra:
    """A finite-dimensional algebra on the PBW basis of one of the families."""

    def __init__(self, spec, field=None):
        self.spec = spec
        self.n = spec.n
        self.field = field if field is not None else cyclo_field(spec.n)
        self.letters, self.cyclic = _LETTERS[spec.family]
        self.num_letters = len(self.letters)
        n = self.n
        if spec.family == "taft":
            lam = {(1, 0): 1}
        elif spec.family == "taft_opp":
            lam = {(1, 0): n - 1}
        elif spec.family == "tensor_taft":
            lam = {(1, 0): 1, (2, 0): 0, (3, 0): 0, (2, 1): 0, (3, 1): 0, (3, 2): 1}
        else:
            lam = {(1, 0): 1, (2, 0): 1, (3, 0): 1, (2, 1): 0, (3, 1): 1, (3, 2): 1}
        self._lam = lam
        p = spec.p
        if p is not None and not isinstance(p, CycloNum):
            p = self.field.from_rat(RAT(p))
        self.p = p
        # deformed: hpq with p != 0.  basic: tensor_taft and hpq with p = 0,
        # whose simples S(i, j) and covers P(i, j) are written down directly
        self.deformed = spec.family == "hpq" and not p.is_zero()
        self.basic = spec.family == "tensor_taft" or (
            spec.family == "hpq" and p.is_zero()
        )
        self.basis = self._enumerate_basis()
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._unit = (0,) * self.num_letters
        self._gen_memo = {}
        self._pow_memo = {}
        self._pair_memo = {}
        self._idempotents = None
        self._radical = None
        self._radical_gens = None
        self._loewy = None
        self._regular = None
        self._regular_cols = None
        self.one = AlgElt(self, {self._unit: self.field.one})
        self.zero_elt = AlgElt(self, {})
        self._self_check()

    # -- basis -----------------------------------------------------------

    def _enumerate_basis(self):
        n, L = self.n, self.num_letters
        basis = []

        def rec(prefix):
            if len(prefix) == L:
                basis.append(tuple(prefix))
                return
            for e in range(n):
                rec(prefix + [e])

        rec([])
        return basis

    def monomial(self, expts, coeff=None):
        expts = tuple(expts)
        if expts not in self.index:
            raise AlgebraError("exponents %r outside the PBW range" % (expts,))
        return AlgElt(self, {expts: coeff if coeff is not None else self.field.one})

    def gen(self, name):
        t = self.letters.index(name)
        e = [0] * self.num_letters
        e[t] = 1
        return self.monomial(e)

    # -- rewriting product -------------------------------------------------

    def _lmul_gen(self, t, mono):
        """Left multiplication of a PBW monomial by the t-th generator."""
        key = (t, mono)
        cached = self._gen_memo.get(key)
        if cached is not None:
            return cached
        if self.deformed and t == 3 and mono[0] > 0:
            # d a = q a d + p(1 - bc), applied recursively
            m1 = (mono[0] - 1,) + mono[1:]
            out = {}
            q = self.field.q_pow(1)
            for m2, c2 in self._lmul_gen(3, m1).items():
                _add_scaled(out, q * c2, self._lmul_gen(0, m2))
            _merge(out, m1, self.p)
            for m2, c2 in self._lmul_gen(2, m1).items():
                _add_scaled(out, -(self.p * c2), self._lmul_gen(1, m2))
            self._gen_memo[key] = out
            return out
        lam = self._lam
        exp = 0
        for s in range(t):
            es = mono[s]
            if es:
                exp += es * lam[(t, s)]
        e = mono[t] + 1
        if self.cyclic[t]:
            e %= self.n
        elif e >= self.n:
            self._gen_memo[key] = {}
            return {}
        m2 = mono[:t] + (e,) + mono[t + 1 :]
        out = {m2: self.field.q_pow(exp)}
        self._gen_memo[key] = out
        return out

    def _lmul_pow(self, t, e, mono):
        """L_t^e(mono) = L_t(L_t^(e-1)(mono)) for e >= 1 (memoized, read-only)."""
        if e == 1:
            return self._lmul_gen(t, mono)
        key = (t, e, mono)
        cached = self._pow_memo.get(key)
        if cached is None:
            cached = {}
            for m, c in self._lmul_pow(t, e - 1, mono).items():
                _add_scaled(cached, c, self._lmul_gen(t, m))
            self._pow_memo[key] = cached
        return cached

    def mono_mul(self, u, v):
        """``_mono_product(u, v)``, memoized (read-only)."""
        key = (u, v)
        cached = self._pair_memo.get(key)
        if cached is None:
            cached = self._pair_memo[key] = self._mono_product(u, v)
        return cached

    def _mono_product(self, u, v):
        """Product of two PBW monomials as a dict of normal-form terms: the
        letter powers L_d^(u_d), L_c^(u_c), ... applied to v in turn.  Not
        memoized, for products needed once; read-only, since it may be a
        ``_lmul_pow`` memo entry."""
        cur = None
        for t in range(self.num_letters - 1, -1, -1):
            e = u[t]
            if not e:
                continue
            if cur is None:
                cur = self._lmul_pow(t, e, v)
            else:
                nxt = {}
                for m, c in cur.items():
                    _add_scaled(nxt, c, self._lmul_pow(t, e, m))
                cur = nxt
            if not cur:
                break
        if cur is None:
            cur = {v: self.field.one}
        return cur

    def mul(self, x, y):
        out = {}
        for mu, cu in x.terms.items():
            for mv, cv in y.terms.items():
                _add_scaled(out, cu * cv, self.mono_mul(mu, mv))
        return AlgElt(self, out)

    # -- counit-flavoured helpers -----------------------------------------

    def counit_mono(self, mono):
        """epsilon on a PBW monomial: kills nilpotent letters, 1 on grouplikes."""
        for t, e in enumerate(mono):
            if e and not self.cyclic[t]:
                return self.field.zero
        return self.field.one

    def conj_grade(self, mono):
        """q-exponents of conjugation by each cyclic generator (abcd families)."""
        if self.num_letters != 4:
            raise AlgebraError("conjugation grading applies to the abcd families")
        lam = self._lam
        n = self.n
        gb = (mono[0] * lam[(1, 0)] - mono[2] * lam[(2, 1)] - mono[3] * lam[(3, 1)]) % n
        gc = (mono[0] * lam[(2, 0)] + mono[1] * lam[(2, 1)] - mono[3] * lam[(3, 2)]) % n
        return (gb, gc)

    def weight_shift(self, name):
        """Weight shift of a module vector under a generator action."""
        lam = self._lam
        if name == "a":
            return (lam[(1, 0)] % self.n, lam[(2, 0)] % self.n)
        if name == "d":
            return (-lam[(3, 1)] % self.n, -lam[(3, 2)] % self.n)
        return (0, 0)

    # -- left multiplication matrices ---------------------------------------

    def left_mult_matrix(self, name):
        """L_t for the generator t = name, built from ``_lmul_gen``."""
        t = self.letters.index(name)
        index = self.index
        rows = [{} for _ in range(self.dim)]
        for j, mono in enumerate(self.basis):
            for m2, c in self._lmul_gen(t, mono).items():
                rows[index[m2]][j] = c
        return Mat(self.field, self.dim, self.dim, rows)

    # -- group idempotents ---------------------------------------------------

    def group_idempotents(self):
        """The n^2 orthogonal idempotents cut out by the grouplikes b, c."""
        if self.num_letters != 4:
            raise AlgebraError("group idempotents apply to the abcd families")
        if self._idempotents is not None:
            return self._idempotents
        n = self.n
        inv = RAT(1, n * n)
        out = {}
        for i in range(n):
            for j in range(n):
                terms = {}
                for k in range(n):
                    for l in range(n):
                        terms[(0, k, l, 0)] = self.field.q_pow(-(i * k + j * l)).scale(inv)
                out[(i, j)] = AlgElt(self, terms)
        self._idempotents = out
        return out

    # -- construction self-check ----------------------------------------------

    def _self_check(self):
        """Prove the product associative (see the module docstring).

        Only u * 1 = u is swept: it is L_u applied to 1, which runs the
        rewrite operators.  1 * u needs no check, since the unit's exponents
        are all zero and ``mono_mul(1, u)`` applies no operator at all.
        """
        bad = _relation_failures(self, [self.left_mult_matrix(name) for name in self.letters])
        if bad:
            raise AlgebraError(
                "the rewrite operators violate relations: %s" % ", ".join(bad)
            )
        # u*1 = u makes 1 a cyclic generator of the PBW space
        for m in self.basis:
            if self.mono_mul(m, self._unit) != {m: self.field.one}:
                raise AlgebraError("u*1 failed for %r" % (m,))

    # -- export ---------------------------------------------------------------

    def structure_constants_json(self):
        prods = []
        for u in self.basis:
            for v in self.basis:
                entry = self.mono_mul(u, v)
                if entry:
                    prods.append(
                        [
                            list(u),
                            list(v),
                            [[list(m), c.serialize()] for m, c in sorted(entry.items())],
                        ]
                    )
        return {
            "family": self.spec.family,
            "n": self.n,
            "p": self.p.serialize() if self.p is not None else None,
            "letters": list(self.letters),
            "basis": [list(m) for m in self.basis],
            "products": prods,
        }

    def __repr__(self):
        return "Algebra(%r, dim=%d)" % (self.spec, self.dim)


def defining_relations(H):
    """The family's defining relations as lists of (coefficient, word) summing to zero.

    Words are tuples of letter indices; the empty word is the unit.  The same
    data drives the matrix relation checks on modules, the well-definedness
    checks for the coproduct/counit, and the antipode anti-homomorphism check.
    """
    f = H.field
    q = f.q
    one = f.one
    n = H.n
    rels = []
    if H.num_letters == 2:
        g, x = 0, 1
        qq = q if H.spec.family == "taft" else q.inverse()
        rels.append(("xg-q*gx", [(one, (x, g)), (-qq, (g, x))]))
        rels.append(("g^n-1", [(one, (g,) * n), (-one, ())]))
        rels.append(("x^n", [(one, (x,) * n)]))
        return rels
    a, b, c, d = 0, 1, 2, 3
    if H.spec.family == "tensor_taft":
        rels += [
            ("ba-q*ab", [(one, (b, a)), (-q, (a, b))]),
            ("db-bd", [(one, (d, b)), (-one, (b, d))]),
            ("ca-ac", [(one, (c, a)), (-one, (a, c))]),
            ("dc-q*cd", [(one, (d, c)), (-q, (c, d))]),
            ("cb-bc", [(one, (c, b)), (-one, (b, c))]),
            ("da-ad", [(one, (d, a)), (-one, (a, d))]),
        ]
    else:
        p = H.p
        rels += [
            ("ba-q*ab", [(one, (b, a)), (-q, (a, b))]),
            ("db-q*bd", [(one, (d, b)), (-q, (b, d))]),
            ("ca-q*ac", [(one, (c, a)), (-q, (a, c))]),
            ("dc-q*cd", [(one, (d, c)), (-q, (c, d))]),
            ("bc-cb", [(one, (b, c)), (-one, (c, b))]),
            ("da-q*ad-p(1-bc)", [(one, (d, a)), (-q, (a, d)), (-p, ()), (p, (b, c))]),
        ]
    rels += [
        ("a^n", [(one, (a,) * n)]),
        ("b^n-1", [(one, (b,) * n), (-one, ())]),
        ("c^n-1", [(one, (c,) * n), (-one, ())]),
        ("d^n", [(one, (d,) * n)]),
    ]
    return rels


def _relation_failures(H, ops):
    """Names of defining relations violated by the generator operators
    (``Mat``s in letter order).  The operators of these algebras are
    permutation-like, so on sparse rows this is linear in the dimension."""
    f, dim = H.field, ops[0].rows
    eye = Mat.identity(f, dim)
    return [
        name
        for name, terms in defining_relations(H)
        if not eval_relation(
            terms, ops, eye, Mat.zeros(f, dim, dim), Mat.__mul__, Mat.add_scaled
        ).is_zero()
    ]


def eval_relation(terms, gens, one, zero, mul, add_scaled, reverse=False):
    """Evaluate sum of coeff*word under a generator assignment in any ring.

    ``add_scaled(total, c, x)`` returns total + c*x; it may update the total
    in place, so ``zero`` must be fresh.  Each word starts from its first
    letter (``one`` only for the empty word), and zero coefficients are
    skipped.  With ``reverse`` the words are read right to left, as an
    anti-homomorphism needs.
    """
    total = zero
    for coeff, word in terms:
        if coeff._is0:
            continue
        if reverse:
            word = word[::-1]
        acc = gens[word[0]] if word else one
        for t in word[1:]:
            acc = mul(acc, gens[t])
        total = add_scaled(total, coeff, acc)
    return total


_CACHE = {}


def build_algebra(spec, assoc_sample=500, seed=0):
    """Build (and cache) the algebra for a spec; fails loudly on bad rewrites.

    ``assoc_sample`` and ``seed`` are accepted and unused: the construction
    check is exact, so no sample depth or seed changes the result.
    """
    if not isinstance(spec, AlgebraSpec):
        raise AlgebraError("build_algebra expects an AlgebraSpec")
    key = spec.key()
    alg = _CACHE.get(key)
    if alg is None:
        alg = Algebra(spec)
        _CACHE[key] = alg
    return alg
