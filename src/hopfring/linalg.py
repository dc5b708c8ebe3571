"""Exact linear algebra over Q(zeta_n).

A matrix is a list of sparse rows (column -> nonzero CycloNum), the one
form of module actions, regular representations, intertwiners and
equation systems.  There are two eliminations: the batch ``rref_rows``,
which works on a dense copy of its rows and whose pivots are chosen by a
coefficient-size heuristic and normalized early to keep fraction growth in
check (the elimination hot spot tracked by the benchmark harness), and the
incremental ``SpanBuilder`` on sparse rows.  Subspaces are kept as dense
rows in reduced row echelon form, so they are canonical and comparable by
equality; ``Mat.apply`` takes and returns dense vectors.
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


def _sparse(vec):
    """A dense vector as a sparse row; a sparse row is copied."""
    if isinstance(vec, dict):
        return dict(vec)
    return {j: c for j, c in enumerate(vec) if not c._is0}


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
    """Reduced row echelon form of sparse rows or dense lists; returns the
    dense rows and their pivot columns."""
    z = field.zero
    work = []
    for v in vectors:
        if isinstance(v, dict):
            if v:
                row = [z] * ncols
                for j, c in v.items():
                    row[j] = c
                work.append(row)
        elif any(not c._is0 for c in v):
            work.append(list(v))
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
    """Matrix over a cyclotomic field, stored as sparse rows.

    ``sparse_rows[i]`` maps column -> nonzero scalar; no row stores a zero,
    which equality and hashing rely on.
    """

    __slots__ = ("field", "rows", "cols", "sparse_rows")

    def __init__(self, field, rows, cols, sparse_rows):
        if len(sparse_rows) != rows:
            raise ValueError("matrix shape mismatch")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.sparse_rows = sparse_rows

    @staticmethod
    def zeros(field, rows, cols):
        return Mat(field, rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(field, m):
        one = field.one
        return Mat(field, m, m, [{i: one} for i in range(m)])

    @staticmethod
    def from_rows(field, data):
        """The matrix with the given dense rows."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(r) != cols for r in data):
            raise ValueError("matrix shape mismatch")
        return Mat(field, rows, cols, [_sparse(r) for r in data])

    def __getitem__(self, ij):
        i, j = ij
        return self.sparse_rows[i].get(j, self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def is_zero(self):
        return not any(self.sparse_rows)

    def add_scaled(self, c, other):
        """Add c * other into this matrix in place and return it; only a
        matrix the caller has just made may be updated this way."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("incompatible shapes for sum")
        for acc, row in zip(self.sparse_rows, other.sparse_rows):
            _add_scaled(acc, c, row)
        return self

    def _copy(self):
        return Mat(self.field, self.rows, self.cols, [dict(r) for r in self.sparse_rows])

    def __add__(self, other):
        return self._copy().add_scaled(self.field.one, other)

    def __sub__(self, other):
        return self._copy().add_scaled(-self.field.one, other)

    def scale(self, c):
        if c._is0:
            return Mat.zeros(self.field, self.rows, self.cols)
        return Mat(
            self.field,
            self.rows,
            self.cols,
            [{j: v * c for j, v in r.items()} for r in self.sparse_rows],
        )

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for product")
        brows = other.sparse_rows
        out = []
        for arow in self.sparse_rows:
            acc = {}
            for k, av in arow.items():
                _add_scaled(acc, av, brows[k])
            out.append(acc)
        return Mat(self.field, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix times column vector (both dense lists)."""
        z = self.field.zero
        out = []
        for row in self.sparse_rows:
            acc = z
            for k, v in row.items():
                x = vec[k]
                if not x._is0:
                    acc = acc + v * x
            out.append(acc)
        return out

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, v in row.items():
                out[j][i] = v
        return Mat(self.field, self.cols, self.rows, out)

    def trace(self):
        t = self.field.zero
        for i, row in enumerate(self.sparse_rows):
            v = row.get(i)
            if v is not None:
                t = t + v
        return t

    def to_json(self):
        z = self.field.zero.serialize()
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [r[j].serialize() if j in r else z for j in range(self.cols)]
                for r in self.sparse_rows
            ],
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
        z, one = field.zero, field.one
        eye = [[one if i == j else z for j in range(ambient)] for i in range(ambient)]
        return Subspace(field, ambient, eye, list(range(ambient)))

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
        row = _sparse(vec)
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
    rows, pivots = rref_rows(m.sparse_rows, m.field, m.cols)
    pivset = set(pivots)
    one = m.field.one
    vecs = []
    for f in range(m.cols):
        if f in pivset:
            continue
        v = {f: one}
        for row, p in zip(rows, pivots):
            if not row[f]._is0:
                v[p] = -row[f]
        vecs.append(v)
    # one vector per free column is a basis, but not the canonical echelon
    # one: a pivot column left of f can carry its leading entry
    return Subspace.from_vectors(m.field, m.cols, vecs)


def rank(m):
    _, pivots = rref_rows(m.sparse_rows, m.field, m.cols)
    return len(pivots)


def image(m):
    """Column space of M as a subspace of field^rows."""
    return Subspace.from_vectors(m.field, m.rows, m.transpose().sparse_rows)


def solve(m, b):
    """One solution of Mx = b, or None when the system is inconsistent."""
    aug = []
    for row, bv in zip(m.sparse_rows, b):
        row = dict(row)
        if not bv._is0:
            row[m.cols] = bv
        aug.append(row)
    rows, pivots = rref_rows(aug, m.field, m.cols + 1)
    x = [m.field.zero] * m.cols
    for row, p in zip(rows, pivots):
        if p == m.cols:
            return None
        x[p] = row[m.cols]
    return x


def kronecker(a, b):
    """Tensor product matrix, left factor major: (i_a*rb + i_b, j_a*cb + j_b).

    Either factor may be an int d, standing for the d x d identity: the
    other factor's entries are then copied, not multiplied by one.
    """
    if isinstance(a, int):
        cb = b.cols
        out = [
            {i * cb + j: v for j, v in brow.items()} for i in range(a) for brow in b.sparse_rows
        ]
        return Mat(b.field, a * b.rows, a * cb, out)
    if isinstance(b, int):
        out = [{j * b + i: v for j, v in arow.items()} for arow in a.sparse_rows for i in range(b)]
        return Mat(a.field, a.rows * b, a.cols * b, out)
    cb = b.cols
    out = []
    for arow in a.sparse_rows:
        for brow in b.sparse_rows:
            orow = {}
            for ja, av in arow.items():
                base = ja * cb
                for jb, bv in brow.items():
                    orow[base + jb] = av * bv
            out.append(orow)
    return Mat(a.field, a.rows * b.rows, a.cols * cb, out)


def restrict_operator(t, w):
    """Matrix of t on the basis of the invariant subspace w (raises otherwise)."""
    cols = [w.coords(t.apply(list(row))) for row in w.rows]
    return Mat.from_rows(t.field, cols).transpose()


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
    return Mat.from_rows(t.field, cols).transpose()


def invert(m):
    """Inverse of a square matrix via RREF of the augmented system."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    d = m.rows
    one = m.field.one
    aug = [{**row, d + i: one} for i, row in enumerate(m.sparse_rows)]
    rows, pivots = rref_rows(aug, m.field, 2 * d)
    if pivots[:d] != list(range(d)):
        raise ValueError("matrix not invertible")
    return Mat.from_rows(m.field, [row[d:] for row in rows])
