"""Labels for basis classes of the projective class rings.

The undeformed families use S(i,j) and P(i,j) with both indices mod n.
The deformed family uses V(l,r) for the simples, 1 <= l <= n, and P(l,r)
for the projective covers with l < n; the class of P(n,r) is identified
with V(n,r) and is always written in its V form.
"""

from __future__ import annotations

import re

__all__ = ["Label", "parse_label", "basis_labels", "label_dim", "format_combination"]

_KIND_ORDER = {"S": 0, "V": 0, "P": 1, "Pr": 1}


class Label:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a, b):
        if kind not in _KIND_ORDER:
            raise ValueError("unknown label kind %r" % (kind,))
        self.kind = kind
        self.a = a
        self.b = b

    def key(self):
        return (_KIND_ORDER[self.kind], self.a, self.b)

    def __eq__(self, other):
        return (
            isinstance(other, Label)
            and self.kind == other.kind
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.kind, self.a, self.b))

    def __lt__(self, other):
        return self.key() < other.key()

    def __str__(self):
        kind = "P" if self.kind == "Pr" else self.kind
        return "%s(%d,%d)" % (kind, self.a, self.b)

    def __repr__(self):
        return "Label(%r, %d, %d)" % (self.kind, self.a, self.b)


def parse_label(text, family, n):
    m = re.fullmatch(r"\s*(S|P|V)\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*", text)
    if not m:
        raise ValueError("cannot parse module label %r" % (text,))
    kind, a, b = m.group(1), int(m.group(2)), int(m.group(3))
    if family in ("tensor_taft", "hpq0"):
        if kind == "V":
            raise ValueError("label kind V belongs to the deformed family")
        return Label(kind, a % n, b % n)
    if family == "hpq1":
        if kind == "S":
            raise ValueError("label kind S belongs to the undeformed families")
        r = b % n
        if kind == "V":
            if not 1 <= a <= n:
                raise ValueError("V index l out of range in %r" % (text,))
            return Label("V", a, r)
        if a == n:
            return Label("V", n, r)
        if not 1 <= a < n:
            raise ValueError("P index l out of range in %r" % (text,))
        return Label("Pr", a, r)
    raise ValueError("unknown family %r" % (family,))


def basis_labels(family, n):
    """The standard basis of the projective class ring, in canonical order."""
    if family in ("tensor_taft", "hpq0"):
        out = [Label("S", i, j) for i in range(n) for j in range(n)]
        out += [Label("P", i, j) for i in range(n) for j in range(n)]
        return out
    if family == "hpq1":
        out = [Label("V", l, r) for l in range(1, n + 1) for r in range(n)]
        out += [Label("Pr", l, r) for l in range(1, n) for r in range(n)]
        return out
    raise ValueError("unknown family %r" % (family,))


def format_combination(d):
    """An integer combination of classes (label -> multiplicity) as text."""
    if not d:
        return "0"
    return " + ".join(
        ("%d*%s" % (m, l)) if m != 1 else str(l) for l, m in sorted(d.items())
    )


def label_dim(label, n):
    if label.kind == "S":
        return 1
    if label.kind == "P":
        return n * n
    if label.kind == "V":
        return label.a
    return 2 * n
