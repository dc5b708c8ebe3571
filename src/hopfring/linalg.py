"""Exact linear algebra over Q(zeta_n).

Matrices are row lists of CycloNum with zero-skipping inner loops.  There
are two eliminations: the batch ``rref_rows``, whose pivots are chosen by a
coefficient-size heuristic and normalized early to keep fraction growth in
check (the elimination hot spot tracked by the benchmark harness), and the
incremental ``SpanBuilder`` on sparse rows.  Subspaces are kept in reduced
row echelon form, so they are canonical and comparable by equality.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "Mat",
    "Subspace",
    "SpanBuilder",
    "kernel_basis",
    "rank",
    "image",
    "solve",
    "invert",
    "kronecker",
    "restrict_operator",
    "quotient_operator",
    "bilinear_radical",
]


def _size(x):
    """Rough bit size of a cyclotomic scalar, used for pivot selection: the
    bit lengths of numerator and denominator of each nonzero coordinate in
    lowest terms, summed."""
    d = x.den
    if d == 1:
        return sum([c.bit_length() + 1 for c in x.nums if c])
    total = 0
    for c in x.nums:
        if c:
            g = gcd(c, d)
            total += (c // g).bit_length() + (d // g).bit_length()
    return total


def _clear_column(rows, prow, col, ncols):
    """Subtract multiples of the normalized pivot row prow (pivot at col) from
    every row in rows, so that each has a zero in column col."""
    for row in rows:
        f = row[col]
        if not f._is0:
            for j in range(col, ncols):
                pj = prow[j]
                if not pj._is0:
                    row[j] = row[j] - f * pj


def _residual(rows, pivots, ncols, vec, coords=None):
    """What is left of vec after reducing it by the reduced echelon rows with
    the given pivots; when coords is a list, each row's multiplier is
    appended to it."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        f = v[p]
        if coords is not None:
            coords.append(f)
        if not f._is0:
            for j in range(p, ncols):
                rj = row[j]
                if not rj._is0:
                    v[j] = v[j] - f * rj
    return v


def rref_rows(vectors, field, ncols):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    work = [list(v) for v in vectors if any(not c._is0 for c in v)]
    done = []
    pivots = []
    for col in range(ncols):
        best = -1
        best_size = None
        for i, row in enumerate(work):
            e = row[col]
            if not e._is0:
                s = _size(e)
                if best_size is None or s < best_size:
                    best, best_size = i, s
                    if s <= 2:
                        break
        if best < 0:
            continue
        prow = work.pop(best)
        pv = prow[col]
        if not pv.is_one():
            inv = pv.inverse()
            prow = [c if c._is0 else c * inv for c in prow]
        _clear_column(work + done, prow, col, ncols)
        done.append(prow)
        pivots.append(col)
        # rows that became zero stay in work: no column picks them as a
        # pivot, and _clear_column skips them
        if not work:
            break
    order = sorted(range(len(done)), key=lambda i: pivots[i])
    return [done[i] for i in order], [pivots[i] for i in order]


class Mat:
    """Dense matrix over a cyclotomic field, stored as a list of rows."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix shape mismatch")

    @staticmethod
    def zeros(field, rows, cols):
        z = field.zero
        return Mat(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, m):
        z, o = field.zero, field.one
        return Mat(field, m, m, [[o if i == j else z for j in range(m)] for i in range(m)])

    @staticmethod
    def from_rows(field, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return Mat(field, rows, cols, [list(r) for r in data])

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(self.data[i][j] == other.data[i][j] for i in range(self.rows) for j in range(self.cols))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_zero(self):
        return all(c._is0 for r in self.data for c in r)

    def __add__(self, other):
        return Mat(
            self.field,
            self.rows,
            self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other):
        return Mat(
            self.field,
            self.rows,
            self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __neg__(self):
        return Mat(self.field, self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, c):
        return Mat(self.field, self.rows, self.cols, [[a * c for a in r] for r in self.data])

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for product")
        z = self.field.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if aik._is0:
                    continue
                brow = odata[k]
                for j, bkj in enumerate(brow):
                    if not bkj._is0:
                        orow[j] = orow[j] + aik * bkj
        return Mat(self.field, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (vector given as a list)."""
        z = self.field.zero
        out = [z] * self.rows
        for i, arow in enumerate(self.data):
            acc = z
            for k, aik in enumerate(arow):
                if not aik._is0:
                    vk = vec[k]
                    if not vk._is0:
                        acc = acc + aik * vk
            out[i] = acc
        return out

    def power(self, k):
        out = Mat.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def transpose(self):
        return Mat(
            self.field,
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def trace(self):
        t = self.field.zero
        for i in range(min(self.rows, self.cols)):
            t = t + self.data[i][i]
        return t

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[c.serialize() for c in r] for r in self.data],
        }

    def __repr__(self):
        return "Mat(%dx%d over Q(zeta_%d))" % (self.rows, self.cols, self.field.n)


class Subspace:
    """A subspace of field^ambient with canonical reduced echelon basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @staticmethod
    def from_vectors(field, ambient, vectors):
        rows, pivots = rref_rows(vectors, field, ambient)
        return Subspace(field, ambient, rows, pivots)

    @staticmethod
    def zero(field, ambient):
        return Subspace(field, ambient, [], [])

    @staticmethod
    def full(field, ambient):
        eye = Mat.identity(field, ambient)
        return Subspace(field, ambient, eye.data, list(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def reduce(self, vec):
        """Residual of vec modulo the subspace (zero iff contained)."""
        return _residual(self.rows, self.pivots, self.ambient, vec)

    def contains(self, vec):
        return all(c._is0 for c in self.reduce(vec))

    def coords(self, vec):
        """Coordinates of vec in the echelon basis; raises if not a member."""
        out = []
        v = _residual(self.rows, self.pivots, self.ambient, vec, out)
        if any(not c._is0 for c in v):
            raise ValueError("vector not contained in subspace")
        return out

    def complement_indices(self):
        piv = set(self.pivots)
        return [j for j in range(self.ambient) if j not in piv]

    def to_json(self):
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "basis": [[c.serialize() for c in r] for r in self.rows],
        }

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def _add_scaled(out, c, terms):
    """Add c * terms into the sparse dict out and return out (the values of
    terms nonzero; a zero c leaves out unchanged)."""
    for key, v in terms.items():
        prod = c * v
        acc = out.get(key)
        s = prod if acc is None else acc + prod
        if s._is0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


class SpanBuilder:
    """Incrementally grown span, kept as sparse echelon rows.

    Each row maps column -> nonzero scalar, is keyed by its leading (least)
    column and has leading coefficient one.  The rows are echelon, not
    reduced; ``to_subspace`` reduces them to the canonical basis.
    """

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self._rows = {}

    @property
    def dim(self):
        return len(self._rows)

    def insert(self, vec):
        """Add a sparse row (column -> scalar) or a dense list to the span,
        leaving it unchanged; True when the span grew."""
        if isinstance(vec, dict):
            row = dict(vec)
        else:
            row = {j: c for j, c in enumerate(vec) if not c._is0}
        rows = self._rows
        while row:
            lead = min(row)
            prev = rows.get(lead)
            if prev is None:
                c = row[lead]
                if not c.is_one():
                    inv = c.inverse()
                    row = {j: v * inv for j, v in row.items()}
                rows[lead] = row
                return True
            _add_scaled(row, -row[lead], prev)
        return False

    def to_subspace(self):
        """The span as a canonical reduced echelon Subspace."""
        pivots = sorted(self._rows)
        reduced = {}
        # back substitution, last pivot first: a reduced row is zero at
        # every other pivot, so each pivot entry is cleared once
        for p in reversed(pivots):
            row = dict(self._rows[p])
            for j in [j for j in row if j in reduced]:
                _add_scaled(row, -row[j], reduced[j])
            reduced[p] = row
        z = self.field.zero
        dense = []
        for p in pivots:
            vec = [z] * self.ambient
            for j, c in reduced[p].items():
                vec[j] = c
            dense.append(vec)
        return Subspace(self.field, self.ambient, dense, pivots)


def kernel_basis(m):
    """Canonical echelon basis of the right kernel {v : Mv = 0}."""
    rows, pivots = rref_rows(m.data, m.field, m.cols)
    pivset = set(pivots)
    z, o = m.field.zero, m.field.one
    vecs = []
    for f in range(m.cols):
        if f in pivset:
            continue
        v = [z] * m.cols
        v[f] = o
        for row, p in zip(rows, pivots):
            if not row[f]._is0:
                v[p] = -row[f]
        vecs.append(v)
    # one vector per free column is a basis, but not the canonical echelon
    # one: a pivot column left of f can carry its leading entry
    return Subspace.from_vectors(m.field, m.cols, vecs)


def rank(m):
    _, pivots = rref_rows(m.data, m.field, m.cols)
    return len(pivots)


def image(m):
    """Column space of M as a subspace of field^rows."""
    return Subspace.from_vectors(m.field, m.rows, m.transpose().data)


def solve(m, b):
    """One solution of Mx = b, or None when the system is inconsistent."""
    aug = [list(row) + [bv] for row, bv in zip(m.data, b)]
    rows, pivots = rref_rows(aug, m.field, m.cols + 1)
    x = [m.field.zero] * m.cols
    for row, p in zip(rows, pivots):
        if p == m.cols:
            return None
        x[p] = row[m.cols]
    return x


def kronecker(a, b):
    """Tensor product matrix, left factor major: (i_a*rb + i_b, j_a*cb + j_b)."""
    field = a.field
    z = field.zero
    rb, cb = b.rows, b.cols
    out = [[z] * (a.cols * cb) for _ in range(a.rows * rb)]
    for ia, arow in enumerate(a.data):
        for ja, av in enumerate(arow):
            if av._is0:
                continue
            for ib, brow in enumerate(b.data):
                orow = out[ia * rb + ib]
                base = ja * cb
                for jb, bv in enumerate(brow):
                    if not bv._is0:
                        orow[base + jb] = av * bv
    return Mat(field, a.rows * rb, a.cols * cb, out)


def restrict_operator(t, w):
    """Matrix of t on the basis of the invariant subspace w (raises otherwise)."""
    cols = []
    for row in w.rows:
        img = t.apply(list(row))
        cols.append(w.coords(img))
    d = w.dim
    return Mat(t.field, d, d, [[cols[j][i] for j in range(d)] for i in range(d)])


def quotient_operator(t, w):
    """Induced operator on field^ambient / w, on the complement coordinates."""
    restrict_operator(t, w)  # raises unless w is invariant, so the quotient action is well defined
    comp = w.complement_indices()
    z = t.field.zero
    cols = []
    for j in comp:
        e = [z] * w.ambient
        e[j] = t.field.one
        resid = w.reduce(t.apply(e))
        cols.append([resid[i] for i in comp])
    d = len(comp)
    return Mat(t.field, d, d, [[cols[j][i] for j in range(d)] for i in range(d)])


def invert(m):
    """Inverse of a square matrix via RREF of the augmented system."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    d = m.rows
    aug = [
        list(row) + list(eye_row)
        for row, eye_row in zip(m.data, Mat.identity(m.field, d).data)
    ]
    rows, pivots = rref_rows(aug, m.field, 2 * d)
    if pivots[:d] != list(range(d)):
        raise ValueError("matrix not invertible")
    return Mat(m.field, d, d, [row[d:] for row in rows])


def bilinear_radical(gram):
    """Radical of a symmetric bilinear form given by its Gram matrix."""
    if gram.rows != gram.cols:
        raise ValueError("Gram matrix must be square")
    for i in range(gram.rows):
        for j in range(i):
            if gram.data[i][j] != gram.data[j][i]:
                raise ValueError("Gram matrix must be symmetric")
    return kernel_basis(gram)
