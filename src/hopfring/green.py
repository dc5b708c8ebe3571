"""Projective class rings: closed-form fusion rules and their verification.

The closed forms give every product of basis classes directly; the matrix
oracle recomputes the same products by building the tensor module and
decomposing it.  Ring presentations are verified by evaluating the
relations inside the fusion ring and checking that the claimed monomial
bases expand unimodularly over the standard basis.
"""

from __future__ import annotations

import csv
import io
import random
from math import comb

from .algebra import AlgebraSpec, _merge, _ratio, build_algebra
from .cyclo import RAT, cyclo_field
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

    def __init__(self, family, n, mode, labels, entries, coverage=None, computed=None):
        self.family = family
        self.n = n
        self.mode = mode
        self.labels = labels
        self.entries = entries  # (labelA, labelB) -> dict label -> int
        self.coverage = coverage or {}
        self.computed_entries = computed
        self.one = Label("V", 1, 0) if family == "hpq1" else Label("S", 0, 0)

    def mul(self, x, y):
        """Bilinear extension of the table to integer combinations."""
        out = {}
        for la, ca in x.items():
            for lb, cb in y.items():
                _axpy(out, ca * cb, self.entries[(la, lb)])
        return out

    def power(self, x, m):
        out = {self.one: 1}
        for _ in range(m):
            out = self.mul(out, x)
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


def _catalog_module(cat, label):
    if label.kind == "S":
        return cat.simples[label]
    if label.kind == "P":
        return cat.pims[Label("S", label.a, label.b)]
    if label.kind == "V":
        return cat.simples[label]
    return cat.pims[Label("V", label.a, label.b)]


def _decomp_to_dict(dv):
    return _axpy(_axpy({}, 1, dv.simple_mults), 1, dv.proj_mults)


def computed_fusion(cat, A, B):
    """The product of two basis classes through the matrix oracle: tensor the
    catalog modules and decompose, as a label -> int dict."""
    from .repn import decompose, tensor_module

    M = tensor_module(_catalog_module(cat, A), _catalog_module(cat, B))
    return _decomp_to_dict(decompose(M, cat.algebra))


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
    return FusionTable(family, n, "crosscheck", labels, closed, coverage, computed)


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


def _deformed_relation_factors(n):
    """Integer (x,y)-polynomials F1, F2 with F1*F2 the degree-(2n-1) relation.

    F1 = sum (-1)^i n/(n-i) C(n-i, i) x^i y^(n-2i) - 2, the cover
    polynomial at m = 0 minus 2, and F2 = V(n, 0) is the top simple class.
    """
    f1 = _cover_poly(n, 0)
    _add(f1, (0, 0), -2)
    return f1, _simple_poly(n)


def _poly_mul(p1, p2):
    out = {}
    for (i1, m1), c1 in p1.items():
        for (i2, m2), c2 in p2.items():
            _add(out, (i1 + i2, m1 + m2), c1 * c2)
    return out


def _eval_xy_poly(table, poly, x, y):
    """Evaluate an integer (x, y)-polynomial inside the fusion ring."""
    out = {}
    ymax = max((m for (_, m) in poly), default=0)
    ypows = [{table.one: 1}]
    for _ in range(ymax):
        ypows.append(table.mul(ypows[-1], y))
    xmax = max((i for (i, _) in poly), default=0)
    xpows = [{table.one: 1}]
    for _ in range(xmax):
        xpows.append(table.mul(xpows[-1], x))
    for (i, m), c in poly.items():
        _axpy(out, c, table.mul(xpows[i], ypows[m]))
    return out


class PresentationSpec:
    """A quotient presentation with confluent rewrite rules and normal basis."""

    def __init__(self, family, n):
        self.family = family
        self.n = n
        if family in ("tensor_taft", "hpq0"):
            self.variables = ("x", "y", "z")
            self.normal_monomials = [
                (i, j, e) for e in (0, 1) for i in range(n) for j in range(n)
            ]
            self.expected_rank = 2 * n * n
            if family == "tensor_taft":
                self.z_square = {
                    (i, j, 1): 1 for i in range(n) for j in range(n)
                }
                self.relations = ["x^n - 1", "y^n - 1", "z^2 - sum_ij x^i y^j z"]
            else:
                self.z_square = {(i, 0, 1): n for i in range(n)}
                self.relations = ["x^n - 1", "y^n - 1", "z^2 - n sum_i x^i z"]
            self._rule = (2, self.z_square)
        elif family == "hpq1":
            self.variables = ("x", "y")
            self.normal_monomials = [
                (l, m) for l in range(n) for m in range(2 * n - 1)
            ]
            self.expected_rank = n * (2 * n - 1)
            f1, f2 = _deformed_relation_factors(n)
            self.vanishing = _poly_mul(f1, f2)
            self.factors = (f1, f2)
            top = 2 * n - 1
            self._rule = (top, {k: -v for k, v in self.vanishing.items() if k != (0, top)})
            self.relations = ["x^n - 1", "(top-class relation of degree 2n-1)"]
        else:
            raise FusionError("unknown family %r" % (family,))
        if len(self.normal_monomials) != self.expected_rank:
            raise FusionError("normal basis cardinality mismatch")

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
    report = {
        "family": family,
        "n": n,
        "status": "pass",
        "relations": [],
        "normal_basis_size": pres.expected_rank,
    }

    def fail(msg, witness=None):
        report["status"] = "fail"
        report.setdefault("failures", []).append(
            {"reason": msg, "witness": witness}
        )

    if family in ("tensor_taft", "hpq0"):
        if family == "tensor_taft":
            x = {Label("S", 1, 0): 1}
            y = {Label("S", 0, 1): 1}
        else:
            x = {Label("S", 1, 1): 1}
            y = {Label("S", 0, 1): 1}
        z = {Label("P", 0, 0): 1}
        one = {table.one: 1}
        xn = table.power(x, n)
        yn = table.power(y, n)
        rel3 = table.mul(z, z)
        for (i, j, e), c in pres.z_square.items():
            _axpy(rel3, -c, table.mul(table.mul(table.power(x, i), table.power(y, j)), z))
        checks = [("x^n - 1", xn == one), ("y^n - 1", yn == one), ("z relation", not rel3)]
        monomial_images = []
        for (i, j, e) in pres.normal_monomials:
            img = table.mul(table.power(x, i), table.power(y, j))
            if e:
                img = table.mul(img, z)
            monomial_images.append(img)
    else:
        x = {Label("V", 1, 1): 1}
        y = {Label("V", 2, 0): 1}
        one = {table.one: 1}
        xn = table.power(x, n)
        vanish = _eval_xy_poly(table, pres.vanishing, x, y)
        f1 = _eval_xy_poly(table, pres.factors[0], x, y)
        f2 = _eval_xy_poly(table, pres.factors[1], x, y)
        prod = table.mul(f1, f2)
        checks = [
            ("x^n - 1", xn == one),
            ("vanishing relation", not vanish),
            ("factored form agrees", prod == vanish),
        ]
        monomial_images = []
        for (l, m) in pres.normal_monomials:
            img = table.mul(table.power(x, l), table.power(y, m))
            monomial_images.append(img)
    for name, ok in checks:
        report["relations"].append({"relation": name, "holds": bool(ok)})
        if not ok:
            fail("relation fails", name)
    # basis check: integer change of basis must be unimodular
    labs = table.labels
    mat = [[img.get(lab, 0) for lab in labs] for img in monomial_images]
    if len(mat) != len(labs):
        fail("normal basis has wrong cardinality", len(mat))
    det = _int_det(mat)
    report["change_of_basis_det"] = det
    if det not in (1, -1):
        fail("change of basis is not unimodular", det)
    # sampled homomorphism check through the rewrite engine: 200 seeded
    # pairs of normal monomials, drawn with replacement
    rng = random.Random(seed)
    mono = pres.normal_monomials
    count = min(200, len(mono) * len(mono))
    mismatches = 0
    for _ in range(count):
        m1 = mono[rng.randrange(len(mono))]
        m2 = mono[rng.randrange(len(mono))]
        prod_keys = pres.reduce({_mono_mul_key(m1, m2): 1})
        lhs = {}
        for key, c in prod_keys.items():
            _axpy(lhs, c, monomial_images[mono.index(key)])
        rhs = table.mul(monomial_images[mono.index(m1)], monomial_images[mono.index(m2)])
        if lhs != rhs:
            mismatches += 1
    if mismatches:
        fail("rewrite engine disagrees with the fusion ring", mismatches)
    report["iso_samples"] = count
    return report


def _mono_mul_key(m1, m2):
    if len(m1) == 3:
        return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
    return (m1[0] + m2[0], m1[1] + m2[1])


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
    x = {Label("V", 1, 1): 1}
    y = {Label("V", 2, 0): 1}
    one = {table.one: 1}
    items = {}

    def record(name, ok, detail=None):
        items[name] = {"holds": bool(ok)}
        if detail is not None:
            items[name]["detail"] = detail

    # tensor powers of the two-dimensional simple
    for m in range(2, n):
        rhs = {_vlabel(n, m + 1 - 2 * i, i): _ballot(m, i) for i in range(m // 2 + 1)}
        record("tensor_power_m%d" % m, table.power(y, m) == rhs)
    # x has order n and translates every class
    ok = table.power(x, n) == one
    record("x_order", ok)
    xp = [one]
    for _ in range(n):
        xp.append(table.mul(xp[-1], x))
    ok_v = all(
        table.mul(xp[i], {_vlabel(n, m, 0): 1}) == {_vlabel(n, m, i % n): 1}
        for m in range(1, n + 1)
        for i in range(n)
    )
    record("x_translates_simples", ok_v)
    ok_p = all(
        table.mul(xp[i], {_plabel(n, m, 0): 1}) == {_plabel(n, m, i % n): 1}
        for m in range(1, n)
        for i in range(n)
    )
    record("x_translates_covers", ok_p)
    # cover recurrences
    vtop = {_vlabel(n, n, 0): 1}
    record(
        "y_times_top_simple",
        table.mul(y, vtop) == table.mul(xp[1], {_plabel(n, n - 1, 0): 1}),
    )
    lhs = table.mul(y, {_plabel(n, 1, 0): 1})
    rhs = _axpy({_plabel(n, 2, 0): 1}, 2, table.mul(xp[1], vtop))
    record("y_times_first_cover", lhs == rhs)
    lhs = table.mul(y, {_plabel(n, n - 1, 0): 1})
    rhs = _axpy({_vlabel(n, n, 0): 2}, 1, table.mul(xp[1], {_plabel(n, n - 2, 0): 1}))
    record("y_times_last_cover", lhs == rhs)
    ok_mid = True
    for m in range(2, n - 1):
        lhs = table.mul(y, {_plabel(n, m, 0): 1})
        rhs = _axpy({_plabel(n, m + 1, 0): 1}, 1, table.mul(xp[1], {_plabel(n, m - 1, 0): 1}))
        if lhs != rhs:
            ok_mid = False
    record("y_times_middle_covers", ok_mid, "vacuous" if n < 4 else None)
    # expansion of the next simple out of tensor powers
    ok_exp = True
    for m in range(2, n):
        rhs = dict(table.power(y, m))
        for i in range(1, m // 2 + 1):
            _axpy(rhs, -_ballot(m, i), table.mul(xp[i], {_vlabel(n, m + 1 - 2 * i, 0): 1}))
        if rhs != {_vlabel(n, m + 1, 0): 1}:
            ok_exp = False
    record("simple_from_powers", ok_exp)
    # closed polynomial expansions of simples and covers
    simples = {m: _eval_xy_poly(table, _simple_poly(m), x, y) for m in range(1, n + 1)}
    covers = {
        m: table.mul(_eval_xy_poly(table, _cover_poly(n, m), x, y), vtop) for m in range(1, n)
    }
    record(
        "simple_polynomials",
        all(val == {_vlabel(n, m, 0): 1} for m, val in simples.items()),
    )
    record(
        "cover_polynomials",
        all(val == {_plabel(n, m, 0): 1} for m, val in covers.items()),
    )
    # the vanishing product
    f1, f2 = _deformed_relation_factors(n)
    v1 = _eval_xy_poly(table, f1, x, y)
    v2 = _eval_xy_poly(table, f2, x, y)
    record("vanishing_product", not table.mul(v1, v2))
    # constructive generation: every basis class is a polynomial in x and y
    ok_gen = all(
        table.mul(xp[lab.b], (simples if lab.kind == "V" else covers)[lab.a]) == {lab: 1}
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
    # radical generators: (1 - x) z and (for the undeformed family) (1 - y) z
    z = Label("P", 0, 0)
    if family == "tensor_taft":
        gens_labels = [
            {z: 1, Label("P", 1, 0): -1},
            {z: 1, Label("P", 0, 1): -1},
        ]
        expected_quotient = n * n + 1
    else:
        gens_labels = [{z: 1, Label("P", 1, 1): -1}]
        expected_quotient = n * (n + 1)
    gen_vecs = [vec(g) for g in gens_labels]
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
    idems = _census_idempotents(family, n, field, labs, index, ideal, alg)
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


def _census_idempotents(family, n, field, labs, index, ideal, alg):
    """The explicit character idempotents, projected to the quotient."""
    inv_n2 = RAT(1, n * n)
    inv_n = RAT(1, n)

    def class_vec(kind_powers):
        # kind_powers: dict (i, j, e) -> CycloNum coefficient of x^i y^j z^e
        v = {}
        for (i, j, e), c in kind_powers.items():
            if family == "tensor_taft":
                lab = (
                    Label("P", i % n, j % n) if e else Label("S", i % n, j % n)
                )
            else:
                # x = S(1,1), y = S(0,1): x^i y^j = S(i, i+j)
                lab = (
                    Label("P", i % n, (i + j) % n)
                    if e
                    else Label("S", i % n, (i + j) % n)
                )
            _merge(v, index[lab], c)
        return v

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
        counts = {}
        for u in range(n):
            for v in range(n):
                sb = SpanBuilder(H.field, H.dim)
                for m in arrow_reps:
                    x = verts[v] * H.monomial(m) * verts[u]
                    sb.insert(project(x.as_row()))
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

