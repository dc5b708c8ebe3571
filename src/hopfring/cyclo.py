"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are represented by their coordinates over the power basis
1, z, ..., z^(phi(n)-1) of Q[x]/(Phi_n(x)), where Phi_n is the n-th
cyclotomic polynomial.  The coordinates are stored as a tuple of integer
numerators over one positive common denominator, with no common factor
left between them.  Phi_n is monic with integer coefficients, so reduction
modulo Phi_n stays integral and each operation needs at most one gcd.
The representation is canonical: equality is coefficient equality.  No
floating point is used anywhere.

Each field writes its product once as straight-line integer code from its
reduction table, and proves it on every basis pair z^i * z^j when built.
The roots of unity +-q^k come from one table per field, one object per
value, each carrying its index (``_root``).  The rule is by value: every
element the field hands out whose value is +-q^k is that table object.  A
product with a table root is index arithmetic (root times root) or that
code with no gcd (root times anything else).

Sums of products, the inner loop of an algebra-element product, have one
fused kernel, ``_sum_of_products``: it adds each term's numerators, from
the root table or the product code, into integer numerators over one
common denominator, and normalizes each output entry once.  The entries
it returns keep the representation and the value rule; the raw
numerators never leave it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

RAT = Fraction

R0 = RAT(0)
R1 = RAT(1)

__all__ = ["RAT", "CycloField", "CycloNum", "cyclo_field", "q_factorial"]


def euler_phi(n):
    count = 0
    for k in range(1, n + 1):
        a, b = n, k
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


def _poly_divmod(num, den):
    """Exact division of rational polynomials (lists, low degree first)."""
    num = list(num)
    dden = len(den) - 1
    lead = den[dden]
    quot = [R0] * max(len(num) - dden, 0)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i] / lead
        quot[i - dden] = c
        if c:
            for j in range(dden + 1):
                num[i - dden + j] -= c * den[j]
    while num and not num[-1]:
        num.pop()
    return quot, num


def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, computed by dividing x^n - 1 by all Phi_d, d|n, d<n."""
    if n == 1:
        return [RAT(-1), R1]
    num = [R0] * (n + 1)
    num[0], num[n] = RAT(-1), R1
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("cyclotomic division not exact")
    return num


def _reduced(field, nums, den):
    """CycloNum for nums/den (den > 0) in lowest terms; a +-q^k is its table object."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([c // g for c in nums])
            den //= g
    root = field._root_of.get(nums) if den == 1 else None
    return CycloNum(field, nums, den) if root is None else root


def _combine(x, y, op):
    """x op y for op in (add, sub): the sum or difference of two CycloNums."""
    da, db = x.den, y.den
    if da == db:
        return _reduced(x.field, tuple(map(op, x.nums, y.nums)), da)
    g = gcd(da, db)
    s, t = da // g, db // g
    nums = tuple([op(u * t, v * s) for u, v in zip(x.nums, y.nums)])
    return _reduced(x.field, nums, s * db)


def _sum_of_products(field, terms):
    """The sparse row sum of a * b * row over the terms (a, b, row), built
    fresh: a and b are CycloNums (b None stands for one), and row maps keys
    to CycloNums.

    A fused multiply-accumulate.  Each term's numerators come from the root
    table when every factor is a root, else from the product code; the
    factor a * b is formed once per term, not once per row entry.  The
    output entries are integer numerators over one common denominator,
    and each goes through ``_reduced`` once at the end: lowest terms, no
    stored zero, and the table object for every +-q^k.  No CycloNum is
    made per term."""
    kernel = field._kernel
    root_prod = field._root_prod
    acc = {}
    den = 1  # the common denominator of acc
    for a, b, row in terms:
        # the factor a * b: a root index r, or numerators fn over fd
        r = a._root
        if b is None:
            if r is None:
                fn, fd = a.nums, a.den
        elif b._root is None:
            if r is None:
                fn, fd = kernel(a.nums, b.nums), a.den * b.den
            else:
                # a root is a unit of Z[zeta], so it leaves the denominator
                fn, fd = (b.nums if r == 0 else kernel(a.nums, b.nums)), b.den
                r = None
        elif r is None:
            fn, fd = (a.nums if b._root == 0 else kernel(a.nums, b.nums)), a.den
        else:
            r = root_prod[r][b._root]._root
        for key, v in row.items():
            s = v._root
            if r is not None:
                if s is not None:
                    t, d = root_prod[r][s].nums, 1
                else:
                    t, d = (v.nums if r == 0 else kernel(field._roots[r].nums, v.nums)), v.den
            elif s is None:
                t, d = kernel(fn, v.nums), fd * v.den
            else:
                t, d = (fn if s == 0 else kernel(fn, v.nums)), fd
            if d != den:
                if den % d:
                    m = lcm(den, d) // den
                    for k, c in acc.items():
                        acc[k] = tuple([x * m for x in c])
                    den *= m
                if d != den:
                    m = den // d
                    t = tuple([x * m for x in t])
            cur = acc.get(key)
            acc[key] = t if cur is None else tuple(map(add, cur, t))
    out = {}  # a loop, not a comprehension, which costs a call per product
    for key, t in acc.items():
        if any(t):
            out[key] = _reduced(field, t, den)
    return out


def _product_kernel(red):
    """The product of coordinate tuples as generated straight-line integer
    code: the convolution a_j*b_k, with each power phi+k above the basis
    folded back through its reduction red[k] (entries +-1 as plain +/-)."""
    phi = len(red[0])

    def conv(e):
        return ["a%d*b%d" % (j, e - j) for j in range(max(0, e - phi + 1), min(e, phi - 1) + 1)]

    names = ", ".join("a%d" % i for i in range(phi))
    lines = ["def product(a, b):", "    %s, = a" % names, "    %s, = b" % names.replace("a", "b")]
    lines += ["    h%d = %s" % (k, " + ".join(conv(phi + k))) for k in range(phi - 1)]
    outs = []
    for i in range(phi):
        terms = " + ".join(conv(i))
        for k, row in enumerate(red):
            v = row[i]
            if v:
                terms += " %s %sh%d" % ("+-"[v < 0], "%d*" % abs(v) if abs(v) != 1 else "", k)
        outs.append(terms)
    lines.append("    return (%s,)" % ", ".join(outs))
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["product"]


class CycloField:
    """The field Q(zeta_n) with distinguished primitive n-th root q = zeta_n."""

    def __init__(self, n):
        if n < 3:
            raise ValueError("field order must be at least 3, got %r" % (n,))
        self.n = n
        self.phi = euler_phi(n)
        self.modulus = cyclotomic_polynomial(n)
        # reduction of x^(phi+k) modulo Phi_n, for k = 0 .. phi-2; integral
        # because Phi_n is monic with integer coefficients
        red = []
        cur = [-c.numerator for c in self.modulus[: self.phi]]  # x^phi = -(lower part)
        red.append(tuple(cur))
        for _ in range(self.phi - 2):
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                first = red[0]
                nxt = [nxt[i] + top * first[i] for i in range(self.phi)]
            cur = nxt
            red.append(tuple(cur))
        self._red = red
        self._kernel = _product_kernel(red)
        self._check_kernel()
        self._root_of = {}  # nums of each root value -> its table object
        self.zero = self.from_int(0)
        self._build_roots()
        self.one = self._roots[0]
        self.q = self._roots[1]
        # the Galois automorphisms z -> z^k, k coprime to n and k != 1, each
        # as the integer columns sigma(z^i) = q^(ik), i < phi, in the power basis
        self._conj = [
            tuple(self._roots[i * k % n].nums for i in range(self.phi))
            for k in range(2, n)
            if gcd(k, n) == 1
        ]
        self._check_roots()

    def _check_kernel(self):
        """Check the product code on every basis pair z^i * z^j against the
        remainder of x^(i+j) mod Phi_n, which does not read the reduction
        table.  The code is bilinear, so this covers every product.  Raises
        ArithmeticError on the first mismatch."""
        phi = self.phi
        z = [tuple(int(j == i) for j in range(phi)) for i in range(phi)]
        for i in range(phi):
            for j in range(phi):
                rem = tuple(_poly_divmod([R0] * (i + j) + [R1], self.modulus)[1])
                if self._kernel(z[i], z[j]) != rem + (0,) * (phi - len(rem)):
                    raise ArithmeticError("product code is wrong on z^%d * z^%d" % (i, j))

    def _build_roots(self):
        """The root table: index r < n is q^r and r >= n is -q^(r-n), with
        each root's products with every root (the product with root n = -1
        is its negation).  The powers come from the general multiply
        (nothing is interned yet); the products are index arithmetic.  One
        object per value: for even n, -q^r is the q^((r+n/2) mod n) object."""
        n = self.n
        z = CycloNum(self, (0, 1) + (0,) * (self.phi - 2), 1)
        pows = [self.from_int(1)]
        for _ in range(n - 1):
            pows.append(pows[-1] * z)
        values = [x.nums for x in pows] + [(-x).nums for x in pows]
        for r in reversed(range(2 * n)):  # so each value's _root is its first index
            self._root_of.setdefault(values[r], CycloNum(self, values[r], 1))._root = r
        self._roots = roots = [self._root_of[v] for v in values]
        self._root_prod = [
            [roots[(r // n ^ s // n) * n + (r + s) % n] for s in range(2 * n)]
            for r in range(2 * n)
        ]

    def _check_roots(self):
        """Check the intern map (one entry per distinct root value, keyed by
        its object's nums) and each product of two table roots against the
        product code.  Raises ArithmeticError on the first mismatch."""
        objs = {id(x): x for x in self._roots}.values()  # each object once
        interned = self._root_of
        if len(interned) != len(objs) or any(interned.get(x.nums) is not x for x in objs):
            raise ArithmeticError("root intern map is wrong")
        plain = [CycloNum(self, x.nums, 1) for x in self._roots]
        for r, x in enumerate(plain):
            for s, y in enumerate(plain):
                if self._root_prod[r][s] != x * y:
                    raise ArithmeticError("root table product %d * %d is wrong" % (r, s))

    def __repr__(self):
        return "CycloField(%d)" % self.n

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.n == self.n

    def __hash__(self):
        return hash(("CycloField", self.n))

    def from_int(self, k):
        return _reduced(self, (k,) + (0,) * (self.phi - 1), 1)

    def from_rat(self, r):
        r = RAT(r)
        return _reduced(self, (r.numerator,) + (0,) * (self.phi - 1), r.denominator)

    def q_pow(self, k):
        """q**k with k reduced modulo n (q has order n), from the root table."""
        return self._roots[k % self.n]


class CycloNum:
    """An element of Q(zeta_n); immutable, hashable, canonical.

    ``nums`` holds integer numerators over the positive denominator ``den``,
    with gcd(nums, den) = 1; zero is all-zero numerators over 1.  Build
    elements through CycloField, which keeps that form and hands out each
    value +-q^k as its one root-table object; ``_root`` is its index, else None.
    """

    __slots__ = ("field", "nums", "den", "_is0", "_root", "_hash")

    def __init__(self, field, nums, den):
        self.field = field
        self.nums = nums
        self.den = den
        self._is0 = not any(nums)
        self._root = None

    @property
    def coeffs(self):
        """The coordinates as a tuple of Fractions (a read-only view)."""
        d = self.den
        return tuple(Fraction(c, d) for c in self.nums)

    def is_zero(self):
        return self._is0

    def is_one(self):
        return self.den == 1 and self.nums == self.field.one.nums

    def as_int(self):
        """The value as an int when it is a rational integer, else None."""
        if self.den == 1 and not any(self.nums[1:]):
            return self.nums[0]
        return None

    def __bool__(self):
        return not self._is0

    def __eq__(self, other):
        if isinstance(other, CycloNum):
            return (
                self.nums == other.nums
                and self.den == other.den
                and self.field.n == other.field.n
            )
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        # equal to the hash of the tuple of Fraction coordinates (a Fraction
        # with denominator 1 hashes as its integer), computed on first use
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(self.nums) if self.den == 1 else hash(self.coeffs)
            return h

    def __add__(self, other):
        if other._is0:
            return self
        if self._is0:
            return other
        return _combine(self, other, add)

    def __sub__(self, other):
        if other._is0:
            return self
        return _combine(self, other, sub)

    def __neg__(self):
        if self._is0:
            return self
        if self._root is not None:
            return self.field._root_prod[self._root][self.field.n]
        # the roots +-q^k form a group, so the negation (or inverse) of a
        # non-root and a root times a non-root are never roots: no lookup
        return CycloNum(self.field, tuple([-c for c in self.nums]), self.den)

    def __mul__(self, other):
        if self._is0:
            return self
        if isinstance(other, int):
            if other == 0:
                return self.field.zero
            return _reduced(self.field, tuple([c * other for c in self.nums]), self.den)
        if other._is0:
            return other
        field = self.field
        r = self._root
        if r is None:
            if other._root is None:
                return _reduced(field, field._kernel(self.nums, other.nums), self.den * other.den)
            # a root is a unit of Z[zeta]: its integer matrix on the power
            # basis has an integer inverse, so gcd(nums) and den both stay
            return CycloNum(field, field._kernel(self.nums, other.nums), self.den)
        s = other._root
        if s is None:
            return CycloNum(field, field._kernel(self.nums, other.nums), other.den)
        return field._root_prod[r][s]

    __rmul__ = __mul__

    def scale(self, rational):
        if not rational or self._is0:
            return self.field.zero
        return _reduced(
            self.field,
            tuple([c * rational.numerator for c in self.nums]),
            self.den * rational.denominator,
        )

    def inverse(self):
        """Exact inverse: x^-1 = den * prod(sigma(nums)) / N over the Galois
        automorphisms sigma != 1, where N = nums * prod(sigma(nums)) is the
        norm of nums.  Q(zeta_n) has no real embedding for n >= 3, so N is a
        product of squared absolute values: a positive integer.  Integers
        only."""
        if self._is0:
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.field.n)
        field = self.field
        a = self.nums
        phi = len(a)
        y = None
        for cols in field._conj:
            s = [0] * phi
            for c, col in zip(a, cols):
                if c:
                    for j, v in enumerate(col):
                        if v:
                            s[j] += c * v
            t = CycloNum(field, tuple(s), 1)
            y = t if y is None else y * t
        norm = (CycloNum(field, a, 1) * y).as_int()
        if norm is None or norm <= 0:
            raise ArithmeticError("norm of %s is not a positive integer" % self)
        return _reduced(field, tuple([self.den * c for c in y.nums]), norm)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def serialize(self):
        """Canonical text form "c0 + c1*z + ...", zero terms omitted."""
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                zk = "z" if k == 1 else "z^%d" % k
                if c == 1:
                    terms.append(zk)
                elif c == -1:
                    terms.append("-" + zk)
                else:
                    terms.append("%s*%s" % (c, zk))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    __str__ = serialize

    def __repr__(self):
        return "<%s in Q(zeta_%d)>" % (self.serialize(), self.field.n)


def cyclo_field(n):
    """Field context for Q(zeta_n); rejects n < 3."""
    return CycloField(n)


def q_factorial(field, j):
    """(j)!_q = prod_{k=1..j} (1 + q + ... + q^(k-1)); (0)!_q = 1."""
    if not 0 <= j < field.n:
        raise ValueError("q-factorial index %r outside [0, %d)" % (j, field.n))
    out = field.one
    for k in range(1, j + 1):
        s = field.zero
        for m in range(k):
            s = s + field.q_pow(m)
        out = out * s
    return out
