"""Projective class rings: closed-form fusion rules and their verification.

The closed forms give every product of basis classes directly; the matrix
oracle recomputes the same products by building the tensor module and
decomposing it into a class combination {label: multiplicity}, which it
compares with the closed form directly.  Each ring presentation is data in
``PresentationSpec``: its generators as label combinations, its relations
as named integer polynomials in them, and its normal monomials.  One
evaluator computes every such polynomial inside the fusion ring; a
presentation is verified by evaluating its relations there and checking
that the normal monomials expand unimodularly over the standard basis.
"""

from __future__ import annotations

import csv
import io
import random
from functools import reduce
from math import comb
from operator import add

from .algebra import AlgebraSpec, _ratio, build_algebra
from .cyclo import RAT, _sum_of_products, cyclo_field
from .fdalg import TableAlgebra
from .labels import Label, basis_labels, format_combination, label_dim
from .linalg import SpanBuilder, _add_scaled

__all__ = [
    "FusionError",
    "FusionMismatch",
    "closed_form_fusion",
    "computed_fusion",
    "fusion_table",
    "FusionTable",
    "verify_presentation",
    "identity_suite_H1",
    "class_algebra_radical",
    "quiver_check_H0",
    "algebra_for_family",
]


class FusionError(Exception):
    pass


class FusionMismatch(FusionError):
    """The first label pair whose closed-form and computed products differ."""

    def __init__(self, family, n, pair, closed, computed):
        a, b = pair
        super().__init__(
            "fusion mismatch at (%s, %s): closed form %s vs computed %s"
            % (a, b, format_combination(closed), format_combination(computed))
        )
        self.family, self.n, self.pair = family, n, pair
        self.closed, self.computed = closed, computed

    def report(self):
        """A failing report with the mismatching pair as its witness."""
        return {
            "family": self.family,
            "n": self.n,
            "status": "fail",
            "first_mismatch": [str(x) for x in self.pair],
            "closed_form": format_combination(self.closed),
            "computed": format_combination(self.computed),
        }


def algebra_for_family(family, n):
    if family == "tensor_taft":
        return build_algebra(AlgebraSpec("tensor_taft", n))
    if family == "hpq0":
        return build_algebra(AlgebraSpec("hpq", n, 0))
    if family == "hpq1":
        return build_algebra(AlgebraSpec("hpq", n, 1))
    raise FusionError("unknown fusion family %r" % (family,))


def _half_up(t):
    """c(t) = floor((t+1)/2), so that c(t) + c(t-1) = t."""
    return (t + 1) // 2


def _add(out, label, mult=1):
    """out[label] += mult; a key whose sum reaches 0 is dropped."""
    if mult:
        total = out.get(label, 0) + mult
        if total:
            out[label] = total
        else:
            del out[label]


def _axpy(out, c, combo):
    """out += c * combo for integer combinations; returns out."""
    for label, mult in combo.items():
        _add(out, label, c * mult)
    return out


def _vlabel(n, l, r):
    if not 1 <= l <= n:
        raise FusionError("V index %d out of range" % l)
    return Label("V", l, r % n)


def _plabel(n, l, r):
    """P(l, r), silently rewritten to V(n, r) when l = n."""
    if l == n:
        return Label("V", n, r % n)
    if not 1 <= l < n:
        raise FusionError("P index %d out of range" % l)
    return Label("Pr", l, r % n)


def closed_form_fusion(family, n, A, B, with_case=False):
    """The closed-form product of two basis classes as a label -> int dict."""
    if family in ("tensor_taft", "hpq0"):
        out, case = _closed_form_basic(family, n, A, B)
    elif family == "hpq1":
        out, case = _closed_form_deformed(n, A, B)
    else:
        raise FusionError("unknown fusion family %r" % (family,))
    if with_case:
        return out, case
    return out


def _closed_form_basic(family, n, A, B):
    if A.kind == "P" and B.kind == "S":
        A, B = B, A
    i, j, k, l = A.a, A.b, B.a, B.b
    if A.kind == "S" and B.kind == "S":
        return {Label("S", (i + k) % n, (j + l) % n): 1}, "ss"
    if A.kind == "S" and B.kind == "P":
        return {Label("P", (i + k) % n, (j + l) % n): 1}, "sp"
    if family == "tensor_taft":
        return (
            {Label("P", r, t): 1 for r in range(n) for t in range(n)},
            "pp",
        )
    return (
        {Label("P", (i + k + t) % n, (j + l + t) % n): n for t in range(n)},
        "pp",
    )


def _closed_form_deformed(n, A, B):
    if A.kind == "Pr" and B.kind == "V":
        A, B = B, A  # products commute; the case split expects V (x) P
    if A.kind == "V" and B.kind == "V":
        l, r, lp, rp = A.a, A.b, B.a, B.b
        if l > lp:
            l, lp, r, rp = lp, l, rp, r
        s = r + rp
        if l == 1:
            return {_vlabel(n, lp, s): 1}, "case01"
        if l + lp <= n + 1:
            out = {}
            for i in range(l):
                _add(out, _vlabel(n, l + lp - 1 - 2 * i, s + i))
            return out, "case03"
        t = l + lp - (n + 1)
        out = {}
        for i in range(_half_up(t), t + 1):
            _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i))
        for i in range(t + 1, l):
            _add(out, _vlabel(n, l + lp - 1 - 2 * i, s + i))
        return out, "case04"
    if A.kind == "V" and B.kind == "Pr":
        l, r, lp, rp = A.a, A.b, B.a, B.b
        s = r + rp
        if l == 1:
            return {_plabel(n, lp, s): 1}, "case02"
        if l == n:
            out = {}
            for i in range(_half_up(lp - 1), lp):
                _add(out, _plabel(n, n + lp - 1 - 2 * i, s + i), 2)
            for i in range(1, _half_up(n - lp) + 1):
                _add(out, _plabel(n, lp - 1 + 2 * i, s - i), 2)
            return out, "case09"
        if l <= lp:
            if l + lp <= n:
                out = {}
                for i in range(l):
                    _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i))
                return out, "case05"
            t = l + lp - (n + 1)
            out = {}
            for i in range(_half_up(t), t + 1):
                _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i), 2)
            for i in range(t + 1, l):
                _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i))
            return out, "case06"
        if l + lp <= n:
            out = {}
            for i in range(lp):
                _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i))
            for i in range(_half_up(l + lp - 1), l):
                _add(out, _plabel(n, n + l + lp - 1 - 2 * i, s + i), 2)
            return out, "case07"
        t = l + lp - (n + 1)
        if t < 0:
            raise FusionError("uncovered case (l=%d, l'=%d, t=%d)" % (l, lp, t))
        out = {}
        for i in range(_half_up(t), t + 1):
            _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i), 2)
        for i in range(t + 1, lp):
            _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i))
        for i in range(_half_up(l + lp - 1), l):
            _add(out, _plabel(n, n + l + lp - 1 - 2 * i, s + i), 2)
        return out, "case08"
    if A.kind == "Pr" and B.kind == "Pr":
        l, r, lp, rp = A.a, A.b, B.a, B.b
        if l > lp:
            l, lp, r, rp = lp, l, rp, r
        s = r + rp
        if l + lp <= n:
            out = {}
            for i in range(l):
                _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i), 2)
            for i in range(lp, lp + l):
                _add(out, _plabel(n, n + l + lp - 1 - 2 * i, s + i), 2)
            for i in range(_half_up(lp + l - 1), lp):
                _add(out, _plabel(n, n + l + lp - 1 - 2 * i, s + i), 4)
            for i in range(1, _half_up(n - l - lp) + 1):
                _add(out, _plabel(n, l + lp - 1 + 2 * i, s - i), 4)
            return out, "case10"
        t = l + lp - (n + 1)
        if t < 0:
            raise FusionError("uncovered case (l=%d, l'=%d, t=%d)" % (l, lp, t))
        out = {}
        for i in range(_half_up(t), t + 1):
            _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i), 4)
        for i in range(t + 1, l):
            _add(out, _plabel(n, l + lp - 1 - 2 * i, s + i), 2)
        for i in range(lp, n):
            _add(out, _plabel(n, n + l + lp - 1 - 2 * i, s + i), 2)
        for i in range(_half_up(lp + l - 1), lp):
            _add(out, _plabel(n, n + l + lp - 1 - 2 * i, s + i), 4)
        return out, "case11"
    raise FusionError("unhandled label pair %s, %s" % (A, B))


class FusionTable:
    """All pairwise products of basis classes, with provenance and checks."""

    def __init__(self, family, n, mode, labels, entries, coverage=None):
        self.family = family
        self.n = n
        self.mode = mode
        self.labels = labels
        self.entries = entries  # (labelA, labelB) -> dict label -> int
        self.coverage = coverage or {}
        self.one = Label("V", 1, 0) if family == "hpq1" else Label("S", 0, 0)

    def mul(self, x, y):
        """Bilinear extension of the table to integer combinations."""
        out = {}
        for la, ca in x.items():
            for lb, cb in y.items():
                _axpy(out, ca * cb, self.entries[(la, lb)])
        return out

    def check_symmetric(self):
        for a in self.labels:
            for b in self.labels:
                if self.entries[(a, b)] != self.entries[(b, a)]:
                    return False
        return True

    def check_unit(self):
        for a in self.labels:
            if self.entries[(self.one, a)] != {a: 1}:
                return False
            if self.entries[(a, self.one)] != {a: 1}:
                return False
        return True

    def check_dimension_grading(self):
        for (a, b), out in self.entries.items():
            lhs = label_dim(a, self.n) * label_dim(b, self.n)
            rhs = sum(m * label_dim(lab, self.n) for lab, m in out.items())
            if lhs != rhs:
                return False
        return True

    def check_associativity(self):
        """(ab)c = a(bc) on all |labels|^3 triples of basis labels."""
        labs = self.labels
        for a in labs:
            for b in labs:
                ab = self.entries[(a, b)]
                for c in labs:
                    if self.mul(ab, {c: 1}) != self.mul({a: 1}, self.entries[(b, c)]):
                        return False
        return True

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "mode": self.mode,
            "basis": [str(l) for l in self.labels],
            "entries": [
                {
                    "a": str(a),
                    "b": str(b),
                    "result": [
                        {"label": str(l), "mult": m} for l, m in sorted(out.items())
                    ],
                }
                for (a, b), out in sorted(self.entries.items())
            ],
            "case_coverage": dict(sorted(self.coverage.items())),
        }

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["a", "b", "result"])
        for (a, b), out in sorted(self.entries.items()):
            writer.writerow([str(a), str(b), format_combination(out)])
        return buf.getvalue()


def computed_fusion(cat, A, B):
    """The product of two basis classes through the matrix oracle: tensor the
    catalog modules and decompose, as a label -> int dict."""
    from .repn import decompose, tensor_module

    return decompose(tensor_module(cat.classes[A], cat.classes[B]))


def fusion_table(family, n, mode="closed_form"):
    """Full grid of products; crosscheck mode compares both routes entrywise
    and raises ``FusionMismatch`` at the first pair that differs."""
    labels = basis_labels(family, n)
    if mode not in ("closed_form", "computed", "crosscheck"):
        raise FusionError("unknown table mode %r" % (mode,))
    closed = {}
    coverage = {}
    for a in labels:
        for b in labels:
            out, case = closed_form_fusion(family, n, a, b, with_case=True)
            closed[(a, b)] = out
            _add(coverage, case)
    if mode == "closed_form":
        return FusionTable(family, n, mode, labels, closed, coverage)
    from .repn import module_catalog

    cat = module_catalog(algebra_for_family(family, n))
    computed = {}
    for key in closed:
        computed[key] = computed_fusion(cat, *key)
        # crosscheck: each product is compared as soon as it is computed
        if mode == "crosscheck" and computed[key] != closed[key]:
            raise FusionMismatch(family, n, key, closed[key], computed[key])
    if mode == "computed":
        return FusionTable(family, n, mode, labels, computed, coverage)
    return FusionTable(family, n, "crosscheck", labels, closed, coverage)


# -- presentations ----------------------------------------------------------


def _exact(num, den):
    """num / den, which every closed form below needs to be an integer."""
    quo, rem = divmod(num, den)
    if rem:
        raise FusionError("non-integral coefficient %d/%d" % (num, den))
    return quo


def _ballot(m, i):
    """(m+1-2i) C(m, i) / (m+1-i): the multiplicity of V(m+1-2i) in V(2)^m."""
    return _exact((m + 1 - 2 * i) * comb(m, i), m + 1 - i)


def _simple_poly(m):
    """V(m, 0) = sum_i (-1)^i C(m-1-i, i) x^i y^(m-1-2i), as a dict
    (i, j) -> coeff of x^i y^j."""
    return {
        (i, m - 1 - 2 * i): (-1) ** i * comb(m - 1 - i, i) for i in range((m - 1) // 2 + 1)
    }


def _cover_poly(n, m):
    """sum_i (-1)^i (n-m) C(n-m-i, i) / (n-m-i) x^(m+i) y^(n-m-2i); times
    V(n, 0) it gives P(m, 0) for 1 <= m < n."""
    k = n - m
    return {
        (m + i, k - 2 * i): (-1) ** i * _exact(k * comb(k - i, i), k - i)
        for i in range(k // 2 + 1)
    }


def _poly_mul(p1, p2):
    out = {}
    for (i1, m1), c1 in p1.items():
        for (i2, m2), c2 in p2.items():
            _add(out, (i1 + i2, m1 + m2), c1 * c2)
    return out


def _evaluator(table, gens):
    """value(poly) in the fusion ring for an integer polynomial in gens, a
    dict exponent tuple -> coefficient.  Each generator power is formed
    once; a monomial is the product of its powers, left to right."""
    one = {table.one: 1}
    powers = [[one] for _ in gens]

    def power(k, e):
        pk = powers[k]
        while len(pk) <= e:
            pk.append(table.mul(pk[-1], gens[k]))
        return pk[e]

    def value(poly):
        out = {}
        for mono, c in poly.items():
            factors = [power(k, e) for k, e in enumerate(mono) if e] or [one]
            _axpy(out, c, reduce(table.mul, factors))
        return out

    return value


class PresentationSpec:
    """A class ring's generators (label combinations), its relations (named
    integer polynomials in them), its normal monomials with a confluent
    rewrite rule, and for H_n(1,q) the factors F1, F2 of its vanishing
    relation (None for the basic families)."""

    def __init__(self, family, n):
        self.family = family
        self.n = n
        self.factors = None
        if family in ("tensor_taft", "hpq0"):
            x = Label("S", 1, 0) if family == "tensor_taft" else Label("S", 1, 1)
            self.generators = [{x: 1}, {Label("S", 0, 1): 1}, {Label("P", 0, 0): 1}]
            self.normal_monomials = [
                (i, j, e) for e in (0, 1) for i in range(n) for j in range(n)
            ]
            if family == "tensor_taft":
                # z^2 = sum_ij x^i y^j z
                z_square = {(i, j, 1): 1 for i in range(n) for j in range(n)}
            else:
                # z^2 = n sum_i x^i z
                z_square = {(i, 0, 1): n for i in range(n)}
            self.relations = [
                ("x^n - 1", {(n, 0, 0): 1, (0, 0, 0): -1}),
                ("y^n - 1", {(0, n, 0): 1, (0, 0, 0): -1}),
                ("z relation", _axpy({(0, 0, 2): 1}, -1, z_square)),
            ]
            self._rule = (2, z_square)
        elif family == "hpq1":
            self.generators = [{Label("V", 1, 1): 1}, {Label("V", 2, 0): 1}]
            self.normal_monomials = [
                (l, m) for l in range(n) for m in range(2 * n - 1)
            ]
            # F1 = sum (-1)^i n/(n-i) C(n-i, i) x^i y^(n-2i) - 2 is the cover
            # polynomial at m = 0 minus 2; F2 = V(n, 0) is the top simple class
            self.factors = (_axpy(_cover_poly(n, 0), -2, {(0, 0): 1}), _simple_poly(n))
            vanishing = _poly_mul(*self.factors)
            self.relations = [
                ("x^n - 1", {(n, 0): 1, (0, 0): -1}),
                ("vanishing relation", vanishing),
            ]
            top = 2 * n - 1
            self._rule = (top, {k: -v for k, v in vanishing.items() if k != (0, top)})
        else:
            raise FusionError("unknown family %r" % (family,))

    def reduce(self, poly):
        """Normal form in the presented ring (integer coefficients).

        A monomial whose last exponent reaches top is rewritten by the
        family's rule (z^2 for the basic families, y^(2n-1) for H_n(1,q))
        until every last exponent is below top; the other exponents are
        taken mod n.
        """
        n = self.n
        top, lower = self._rule
        out = {}
        work = dict(poly)
        while work:
            key, c = work.popitem()
            if key[-1] < top:
                _add(out, tuple(e % n for e in key[:-1]) + key[-1:], c)
                continue
            base = key[:-1] + (key[-1] - top,)
            for key2, c2 in lower.items():
                _add(work, tuple(a + b for a, b in zip(base, key2)), c * c2)
        return out


def verify_presentation(family, n, table=None, seed=0):
    """Relation and basis checks for the class ring presentation."""
    if table is None:
        table = fusion_table(family, n, "closed_form")
    pres = PresentationSpec(family, n)
    mono = pres.normal_monomials
    report = {
        "family": family,
        "n": n,
        "status": "pass",
        "relations": [],
        "normal_basis_size": len(mono),
    }

    def fail(msg, witness=None):
        report["status"] = "fail"
        report.setdefault("failures", []).append(
            {"reason": msg, "witness": witness}
        )

    value = _evaluator(table, pres.generators)
    relations = {name: value(poly) for name, poly in pres.relations}
    checks = [(name, not rel) for name, rel in relations.items()]
    if pres.factors:
        f1, f2 = (value(f) for f in pres.factors)
        checks.append(
            ("factored form agrees", table.mul(f1, f2) == relations["vanishing relation"])
        )
    for name, ok in checks:
        report["relations"].append({"relation": name, "holds": bool(ok)})
        if not ok:
            fail("relation fails", name)
    # basis check: integer change of basis must be unimodular; the
    # determinant and the sampled check below assume a square system
    labs = table.labels
    if len(set(mono)) != len(mono) or len(mono) != len(labs):
        fail("normal basis has wrong cardinality", len(mono))
        return report
    images = {m: value({m: 1}) for m in mono}
    mat = [[img.get(lab, 0) for lab in labs] for img in images.values()]
    det = _int_det(mat)
    report["change_of_basis_det"] = det
    if det not in (1, -1):
        fail("change of basis is not unimodular", det)
    # sampled homomorphism check through the rewrite engine: 200 seeded
    # pairs of normal monomials, drawn with replacement
    rng = random.Random(seed)
    count = min(200, len(mono) * len(mono))
    mismatched = []
    for _ in range(count):
        m1 = mono[rng.randrange(len(mono))]
        m2 = mono[rng.randrange(len(mono))]
        lhs = {}
        for key, c in pres.reduce({tuple(map(add, m1, m2)): 1}).items():
            _axpy(lhs, c, images[key])
        if lhs != table.mul(images[m1], images[m2]):
            mismatched.append((m1, m2))
    if mismatched:
        fail("rewrite engine disagrees with the fusion ring",
             {"mismatches": len(mismatched), "first_pair": list(mismatched[0])})
    report["iso_samples"] = count
    return report


def _int_det(mat):
    """Exact determinant of an integer matrix via fraction-free (Bareiss)
    elimination: every intermediate entry is a minor of mat, an integer."""
    k = len(mat)
    m = [list(row) for row in mat]
    sign, prev = 1, 1
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        for r in range(col + 1, k):
            f = m[r][col]
            row = m[r]
            for j in range(col + 1, k):
                num = pv * row[j] - f * m[col][j]
                if num % prev:
                    raise FusionError("integer determinant came out fractional")
                row[j] = num // prev
            row[col] = 0
        prev = pv
    return sign * (m[k - 1][k - 1] if k else 1)


# -- identity suite for the deformed family ---------------------------------


def identity_suite_H1(n, table=None):
    """Evaluates the tensor-power, translation and expansion identities."""
    if table is None:
        table = fusion_table("hpq1", n, "closed_form")
    pres = PresentationSpec("hpq1", n)
    x, y = pres.generators
    value = _evaluator(table, pres.generators)
    items = {}

    def record(name, ok, detail=None):
        items[name] = {"holds": bool(ok)}
        if detail is not None:
            items[name]["detail"] = detail

    # tensor powers of the two-dimensional simple
    for m in range(2, n):
        rhs = {_vlabel(n, m + 1 - 2 * i, i): _ballot(m, i) for i in range(m // 2 + 1)}
        record("tensor_power_m%d" % m, value({(0, m): 1}) == rhs)
    # x has order n and translates every class
    record("x_order", value({(n, 0): 1}) == {table.one: 1})
    ok_v = all(
        table.mul(value({(i, 0): 1}), {_vlabel(n, m, 0): 1}) == {_vlabel(n, m, i % n): 1}
        for m in range(1, n + 1)
        for i in range(n)
    )
    record("x_translates_simples", ok_v)
    ok_p = all(
        table.mul(value({(i, 0): 1}), {_plabel(n, m, 0): 1}) == {_plabel(n, m, i % n): 1}
        for m in range(1, n)
        for i in range(n)
    )
    record("x_translates_covers", ok_p)
    # cover recurrences
    vtop = {_vlabel(n, n, 0): 1}
    record(
        "y_times_top_simple",
        table.mul(y, vtop) == table.mul(x, {_plabel(n, n - 1, 0): 1}),
    )
    lhs = table.mul(y, {_plabel(n, 1, 0): 1})
    rhs = _axpy({_plabel(n, 2, 0): 1}, 2, table.mul(x, vtop))
    record("y_times_first_cover", lhs == rhs)
    lhs = table.mul(y, {_plabel(n, n - 1, 0): 1})
    rhs = _axpy({_vlabel(n, n, 0): 2}, 1, table.mul(x, {_plabel(n, n - 2, 0): 1}))
    record("y_times_last_cover", lhs == rhs)
    ok_mid = True
    for m in range(2, n - 1):
        lhs = table.mul(y, {_plabel(n, m, 0): 1})
        rhs = _axpy({_plabel(n, m + 1, 0): 1}, 1, table.mul(x, {_plabel(n, m - 1, 0): 1}))
        if lhs != rhs:
            ok_mid = False
    record("y_times_middle_covers", ok_mid, "vacuous" if n < 4 else None)
    # expansion of the next simple out of tensor powers
    ok_exp = True
    for m in range(2, n):
        rhs = value({(0, m): 1})
        for i in range(1, m // 2 + 1):
            shifted = table.mul(value({(i, 0): 1}), {_vlabel(n, m + 1 - 2 * i, 0): 1})
            _axpy(rhs, -_ballot(m, i), shifted)
        if rhs != {_vlabel(n, m + 1, 0): 1}:
            ok_exp = False
    record("simple_from_powers", ok_exp)
    # closed polynomial expansions of simples and covers
    simples = {m: value(_simple_poly(m)) for m in range(1, n + 1)}
    covers = {m: table.mul(value(_cover_poly(n, m)), vtop) for m in range(1, n)}
    record(
        "simple_polynomials",
        all(val == {_vlabel(n, m, 0): 1} for m, val in simples.items()),
    )
    record(
        "cover_polynomials",
        all(val == {_plabel(n, m, 0): 1} for m, val in covers.items()),
    )
    # the vanishing product
    f1, f2 = pres.factors
    record("vanishing_product", not table.mul(value(f1), value(f2)))
    # constructive generation: every basis class is a polynomial in x and y
    ok_gen = all(
        table.mul(value({(lab.b, 0): 1}), (simples if lab.kind == "V" else covers)[lab.a])
        == {lab: 1}
        for lab in table.labels
    )
    record("generated_by_x_y", ok_gen)
    status = all(item["holds"] for item in items.values())
    return {
        "family": "hpq1",
        "n": n,
        "status": "pass" if status else "fail",
        "items": items,
    }


# -- class algebra radicals ---------------------------------------------------


def class_algebra_radical(family, n, table=None):
    """Radical and split quotient of the projective class algebra."""
    if family not in ("tensor_taft", "hpq0"):
        raise FusionError("class algebra radical is computed for the basic families")
    if table is None:
        table = fusion_table(family, n, "closed_form")
    field = cyclo_field(n)
    labs = table.labels
    index = {lab: i for i, lab in enumerate(labs)}
    dim = len(labs)

    def vec(combo):
        """An integer combination of labels as a coordinate vector."""
        return {index[lab]: field.from_int(m) for lab, m in combo.items() if m}

    def product(i, j):
        return vec(table.entries[(labs[i], labs[j])])

    alg = TableAlgebra(field, dim, product, unit=vec({table.one: 1}))
    rad = alg.radical()
    pres = PresentationSpec(family, n)
    value = _evaluator(table, pres.generators)
    images = {m: vec(value({m: 1})) for m in pres.normal_monomials}
    # radical generators (1 - g) z for g = x, y (tensor-taft) or g = x (hpq p = 0)
    if family == "tensor_taft":
        g_z = [(1, 0, 1), (0, 1, 1)]
        expected_quotient = n * n + 1
    else:
        g_z = [(1, 0, 1)]
        expected_quotient = n * (n + 1)
    gen_vecs = [vec(value({(0, 0, 1): 1, m: -1})) for m in g_z]
    ideal = alg.ideal_span(gen_vecs)
    nilpotent = not any(alg.mul_vec(v, v) for v in gen_vecs)
    quotient = alg.quotient_by_ideal(ideal)
    report = {
        "family": family,
        "n": n,
        "class_algebra_dim": dim,
        "radical_dim": rad.dim,
        "radical_equals_generated_ideal": rad == ideal,
        "generators_square_to_zero": nilpotent,
        "quotient_dim": quotient.dim,
        "expected_quotient_dim": expected_quotient,
    }
    # explicit idempotent census certifying the split product of fields
    idems = _census_idempotents(family, n, field, images, ideal)
    ok_idem = all(quotient.is_idempotent(e) for e in idems)
    ok_orth = all(
        quotient.orthogonal(e, e2) for i, e in enumerate(idems) for e2 in idems[i + 1:]
    )
    total = {}
    for e in idems:
        _add_scaled(total, None, e)
    complete = total == quotient.unit
    primitive = all(
        _block_dim(quotient, e) == 1 for e in idems
    )
    report["idempotents"] = {
        "count": len(idems),
        "idempotent": ok_idem,
        "orthogonal": ok_orth,
        "complete": complete,
        "primitive": primitive,
    }
    ok = (
        report["radical_equals_generated_ideal"]
        and nilpotent
        and quotient.dim == expected_quotient
        and len(idems) == expected_quotient
        and ok_idem
        and ok_orth
        and complete
        and primitive
    )
    report["status"] = "pass" if ok else "fail"
    return report


def _census_idempotents(family, n, field, images, ideal):
    """The explicit character idempotents, projected to the quotient.

    images maps each normal monomial x^i y^j z^e to its class vector.
    """
    inv_n2 = RAT(1, n * n)
    inv_n = RAT(1, n)

    def class_vec(poly):
        # poly: dict (i, j, e) -> CycloNum coefficient of x^i y^j z^e
        return _sum_of_products(field, ((c, None, images[mono]) for mono, c in poly.items()))

    def chi(k, l):
        # the character idempotent n^-2 sum_ij q^(ki+lj) x^i y^j
        return {
            (i, j, 0): field.q_pow(k * i + l * j).scale(inv_n2)
            for i in range(n)
            for j in range(n)
        }

    if family == "tensor_taft":
        chars = [(k, l) for k in range(n) for l in range(n) if k or l]
        z_parts = {0: {(0, 0, 1): field.one.scale(inv_n2)}}
    else:
        chars = [(k, l) for k in range(1, n) for l in range(n)]
        z_parts = {
            l: {(0, j, 1): field.q_pow(l * j).scale(inv_n2 * inv_n) for j in range(n)}
            for l in range(n)
        }
    combos = [chi(k, l) for k, l in chars]
    for l, zpart in z_parts.items():
        # chi_0l splits into chi_0l - z-part and the z-part
        combos.append({**chi(0, l), **{key: -c for key, c in zpart.items()}})
        combos.append(zpart)
    return [ideal.quotient_coords(class_vec(c)) for c in combos]


def _block_dim(quotient, e):
    sb = SpanBuilder(quotient.field, quotient.dim)
    for j in range(quotient.dim):
        sb.insert(quotient.mul_vec(e, {j: quotient.field.one}))
    return sb.dim


# -- quiver of the p = 0 blocks ----------------------------------------------


def quiver_check_H0(n):
    """Arrow counts and admissible relations of one block's Gabriel quiver."""
    from .structure import (
        _vector_to_elt,
        jacobson_radical,
        monomial_ideal_span,
        radical_ideal_generators,
    )

    H = algebra_for_family("hpq0", n)
    J = jacobson_radical(H)
    # the radical is the ideal of positive a,d-degree; its square is the
    # monomial span of degree >= 2, so reduction is a coordinate projection
    J2 = monomial_ideal_span(H, lambda m: m[0] + m[3] >= 2)

    sb2 = SpanBuilder(H.field, H.dim)
    gens = radical_ideal_generators(H)
    for row in J.rows:
        x = _vector_to_elt(H, row)
        for g in gens:
            sb2.insert((g * x).as_row())
    if sb2.to_subspace() != J2:
        raise FusionError("monomial description of the radical square is wrong")
    keep = {idx for idx, m in enumerate(H.basis) if m[0] + m[3] < 2}

    def project(row):
        return {idx: c for idx, c in row.items() if idx in keep}

    es = H.group_idempotents()
    report = {"family": "hpq0", "n": n, "status": "pass"}
    arrow_reps = [m for m in H.basis if m[0] + m[3] == 1]
    blocks_ok = True
    arrows_total = None
    scalars = {}
    for i in range(n):
        verts = {j: es[((i + j) % n, j)] for j in range(n)}
        # e_v m for each vertex v and arrow representative m, formed once
        left = {v: [verts[v] * H.monomial(m) for m in arrow_reps] for v in range(n)}
        counts = {}
        for u in range(n):
            for v in range(n):
                sb = SpanBuilder(H.field, H.dim)
                for vm in left[v]:
                    sb.insert(project((vm * verts[u]).as_row()))
                if sb.dim:
                    counts[(u, v)] = sb.dim
        crown = all(
            (v - u) % n in (1, n - 1) and c == 1 for (u, v), c in counts.items()
        )
        total = sum(counts.values())
        if arrows_total is None:
            arrows_total = total
        if total != 2 * n or not crown:
            blocks_ok = False
        if i == 0:
            report["arrow_counts"] = {
                "%d->%d" % (u, v): c for (u, v), c in sorted(counts.items())
            }
        # relation checks on the concrete arrow representatives
        a, d = H.gen("a"), H.gen("d")
        for j in range(n):
            alpha_j = a * verts[j]
            beta_j = d * verts[(j + 1) % n]
            lhs = beta_j * alpha_j  # path alpha_j then beta_j
            rhs = (a * verts[(j - 1) % n]) * (d * verts[j])
            lam = _ratio(lhs, rhs)
            scalars.setdefault(i, {})[j] = lam.serialize() if lam is not None else None
            if lam is None:
                blocks_ok = False
        # vanishing paths of length n
        alpha_path = H.one
        beta_path = H.one
        for j in range(n):
            alpha_path = (a * verts[j]) * alpha_path
            beta_path = beta_path * (d * verts[(j + 1) % n])
        if not alpha_path.is_zero() or not beta_path.is_zero():
            blocks_ok = False
    lam_values = {v for per in scalars.values() for v in per.values()}
    report["commutation_scalars"] = scalars[0]
    report["scalar_is_q_uniformly"] = lam_values == {H.field.q.serialize()}
    report["arrows_per_block"] = arrows_total
    report["crown_shape"] = blocks_ok
    if not (blocks_ok and report["scalar_is_q_uniformly"]):
        report["status"] = "fail"
    return report

