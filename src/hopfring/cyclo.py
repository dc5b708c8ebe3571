"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are represented by their coordinates over the power basis
1, z, ..., z^(phi(n)-1) of Q[x]/(Phi_n(x)), where Phi_n is the n-th
cyclotomic polynomial.  The coordinates are stored as a tuple of integer
numerators over one positive common denominator, with no common factor
left between them.  Phi_n is monic with integer coefficients, so reduction
modulo Phi_n stays integral and each operation needs at most one gcd.
The representation is canonical: equality is coefficient equality.  No
floating point is used anywhere.

The 2n roots of unity +-q^k come from one table per field, and each table
element carries its index (``_root``).  A product with a table root is
index arithmetic (root times root) or one integer column map with no gcd
(root times anything else).  Only the field's own constructors hand out
table elements; a value that merely equals a root takes the general path.
"""

from __future__ import annotations

import re
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


def _from_fractions(field, coeffs):
    """CycloNum with the given rational coordinates (Fractions or ints)."""
    den = lcm(*[c.denominator for c in coeffs])
    return CycloNum(field, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)


def _reduced(field, nums, den):
    """CycloNum for nums/den (den > 0), with the common factor divided out."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([c // g for c in nums])
            den //= g
    return CycloNum(field, nums, den)


def _combine(x, y, op):
    """x op y for op in (add, sub): the sum or difference of two CycloNums."""
    da, db = x.den, y.den
    if da == db:
        return _reduced(x.field, tuple(map(op, x.nums, y.nums)), da)
    g = gcd(da, db)
    s, t = da // g, db // g
    nums = tuple([op(u * t, v * s) for u, v in zip(x.nums, y.nums)])
    return _reduced(x.field, nums, s * db)


def _times_root(x, cols):
    """x times the table root with sparse integer columns cols.  A root is a
    unit of Z[zeta] whose map on the power basis is an integer matrix with
    integer inverse, so it keeps gcd(nums): den and canonical form stay."""
    out = [0] * len(cols)
    for c, col in zip(x.nums, cols):
        if c:
            for j, v in col:
                out[j] += c * v
    return CycloNum(x.field, tuple(out), x.den)


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

    def _build_roots(self):
        """The root table: index r < n is q^r and r >= n is -q^(r-n), with
        each root's sparse integer columns root * z^i and its products with
        every root (the product with root n = -1 is its negation).  The
        powers come from the general multiply (nothing is flagged yet); the
        rest is index arithmetic."""
        n, phi = self.n, self.phi
        z = CycloNum(self, (0, 1) + (0,) * (phi - 2), 1)
        pows = [self.from_int(1)]
        for _ in range(n - 1):
            pows.append(pows[-1] * z)
        signed = [x.nums for x in pows] + [(-x).nums for x in pows]
        roots = []
        for r, nums in enumerate(signed):
            x = CycloNum(self, nums, 1)
            x._root = r
            roots.append(x)
        self._roots = roots
        self._root_cols = [
            [
                tuple((j, v) for j, v in enumerate(signed[r // n * n + (r + i) % n]) if v)
                for i in range(phi)
            ]
            for r in range(2 * n)
        ]
        self._root_prod = [
            [roots[(r // n ^ s // n) * n + (r + s) % n] for s in range(2 * n)]
            for r in range(2 * n)
        ]

    def _check_roots(self):
        """Check the root table against the general multiply: each column
        root * z^i and each product of two roots.  Raises ArithmeticError on
        the first mismatch."""
        phi = self.phi
        plain = [CycloNum(self, x.nums, 1) for x in self._roots]
        z = [CycloNum(self, tuple(int(j == i) for j in range(phi)), 1) for i in range(phi)]
        for r, x in enumerate(plain):
            for i, zi in enumerate(z):
                col = [0] * phi
                for j, v in self._root_cols[r][i]:
                    col[j] += v
                if tuple(col) != (x * zi).nums:
                    raise ArithmeticError("root table column %d of root %d is wrong" % (i, r))
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
        return CycloNum(self, (k,) + (0,) * (self.phi - 1), 1)

    def from_rat(self, r):
        r = RAT(r)
        return CycloNum(self, (r.numerator,) + (0,) * (self.phi - 1), r.denominator)

    def element(self, coeffs):
        coeffs = [RAT(c) for c in coeffs]
        if len(coeffs) > self.phi:
            raise ValueError("too many coefficients")
        coeffs += [R0] * (self.phi - len(coeffs))
        return _from_fractions(self, coeffs)

    def q_pow(self, k):
        """q**k with k reduced modulo n (q has order n), from the root table."""
        return self._roots[k % self.n]

    def random(self, rng, max_num=9, max_den=4):
        return _from_fractions(
            self,
            [
                RAT(rng.randint(-max_num, max_num), rng.randint(1, max_den))
                for _ in range(self.phi)
            ],
        )

    def parse(self, text):
        """Inverse of CycloNum.serialize (accepts any sum of rational z-power terms)."""
        coeffs = [R0] * self.phi
        s = text.strip()
        if not s:
            raise ValueError("empty cyclotomic literal")
        s = s.replace("-", "+-").replace("e+-", "e-")
        for term in s.split("+"):
            term = term.strip()
            if not term:
                continue
            m = re.fullmatch(r"(-?)\s*(\d+(?:/\d+)?)?\s*\*?\s*(z(?:\^(\d+))?)?", term)
            if not m or (m.group(2) is None and m.group(3) is None):
                raise ValueError("bad cyclotomic term %r in %r" % (term, text))
            sign = -1 if m.group(1) else 1
            coef = RAT(m.group(2)) if m.group(2) else R1
            if m.group(3) is None:
                k = 0
            elif m.group(4) is None:
                k = 1
            else:
                k = int(m.group(4))
            if k >= self.phi:
                raise ValueError("exponent %d out of range in %r" % (k, text))
            coeffs[k] += sign * coef
        return _from_fractions(self, coeffs)


class CycloNum:
    """An element of Q(zeta_n); immutable, hashable, canonical.

    ``nums`` holds integer numerators over the positive denominator ``den``,
    with gcd(nums, den) = 1; zero is all-zero numerators over 1.  Build
    elements through CycloField, which keeps that form.  ``_root`` is the
    index in the field's root table for table elements, else None.
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
        r = self._root
        if r is not None:
            s = other._root
            if s is not None:
                return self.field._root_prod[r][s]
            return _times_root(other, self.field._root_cols[r])
        if other._root is not None:
            return _times_root(self, self.field._root_cols[other._root])
        a, b = self.nums, other.nums
        phi = len(a)
        prod = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        prod[j] += ai * bj
        out = prod[:phi]
        red = self.field._red
        for k in range(phi, 2 * phi - 1):
            pk = prod[k]
            if pk:
                for i, ri in enumerate(red[k - phi]):
                    if ri:
                        out[i] += pk * ri
        return _reduced(self.field, tuple(out), self.den * other.den)

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
