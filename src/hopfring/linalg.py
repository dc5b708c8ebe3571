"""Exact linear algebra over Q(zeta_n).

Every vector is a sparse row (index -> nonzero CycloNum), and a matrix
is a list of them: module actions, regular representations, intertwiners,
equation systems and the reduced echelon basis of a ``Subspace``, which is
canonical and so comparable by equality.  Coordinates, residuals and
solutions are sparse rows too.  There is one elimination, the incremental
``SpanBuilder``; ``rref_rows`` is its batch form, and kernels, solutions
and inverses are read off the sparse rows it returns.  Dense lists appear
only in the JSON that ``_serialized`` writes.
"""

from __future__ import annotations

__all__ = [
    "Mat",
    "Subspace",
    "SpanBuilder",
    "kernel_basis",
    "image",
    "solve",
    "invert",
    "kronecker",
    "restrict_operator",
    "quotient_operator",
]


def rref_rows(vectors, field, ncols):
    """Reduced row echelon form of the span of sparse rows: the canonical
    sparse rows and their pivot columns, in pivot order."""
    span = Subspace.from_vectors(field, ncols, vectors)
    return span.rows, span.pivots


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
        """Add c * other into this matrix in place and return it (other's
        entries unmultiplied when c is one); only a matrix the caller has
        just made may be updated this way."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("incompatible shapes for sum")
        if c.is_one():
            c = None
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
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": _serialized(self.field, self.sparse_rows, self.cols),
        }

    def __repr__(self):
        return "Mat(%dx%d over Q(zeta_%d))" % (self.rows, self.cols, self.field.n)


class Subspace:
    """A subspace of field^ambient with canonical reduced echelon basis.

    ``rows`` are sparse rows (column -> nonzero scalar), each with a one at
    its pivot column and a zero at every other pivot column.
    """

    __slots__ = ("field", "ambient", "rows", "pivots", "_row_at", "_complement", "_complement_at")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self._row_at = {p: i for i, p in enumerate(self.pivots)}
        self._complement = None
        self._complement_at = None

    @staticmethod
    def from_vectors(field, ambient, vectors):
        """The span of sparse rows."""
        sb = SpanBuilder(field, ambient)
        for v in vectors:
            sb.insert(v)
        return sb.to_subspace()

    @staticmethod
    def zero(field, ambient):
        return Subspace(field, ambient, [], [])

    @staticmethod
    def full(field, ambient):
        one = field.one
        return Subspace(field, ambient, [{i: one} for i in range(ambient)], range(ambient))

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
        return hash((self.ambient, tuple(frozenset(r.items()) for r in self.rows)))

    def _split(self, vec):
        """(coordinates by row index, residual) of a sparse row, both sparse
        rows: a reduced echelon row is zero at the other pivots, so vec's
        coordinate on each row is its entry at that row's pivot, and only the
        rows at vec's own pivot columns are subtracted, in pivot order."""
        v = dict(vec)
        row_at = self._row_at
        coords = {row_at[j]: c for j, c in v.items() if j in row_at}
        for i in sorted(coords):
            _add_scaled(v, -coords[i], self.rows[i])
        return coords, v

    def reduce(self, vec):
        """Residual of vec modulo the subspace, as a sparse row (empty iff
        contained)."""
        return self._split(vec)[1]

    def contains(self, vec):
        return not self.reduce(vec)

    def coords(self, vec):
        """Coordinates of vec in the echelon basis, as a sparse row keyed by
        row index; raises if not a member."""
        coords, resid = self._split(vec)
        if resid:
            raise ValueError("vector not contained in subspace")
        return coords

    def complement_indices(self):
        """The non-pivot columns in increasing order, as a tuple built once
        with the map from each of them to its position."""
        if self._complement is None:
            self._complement = tuple(j for j in range(self.ambient) if j not in self._row_at)
            self._complement_at = {j: k for k, j in enumerate(self._complement)}
        return self._complement

    def quotient_coords(self, vec):
        """Coordinates of vec modulo the subspace, as a sparse row keyed by
        position in the complement indices."""
        self.complement_indices()
        at = self._complement_at
        return {at[j]: c for j, c in self.reduce(vec).items()}

    def as_mat(self):
        """The echelon basis as the rows of a matrix (sharing the rows)."""
        return Mat(self.field, self.dim, self.ambient, list(self.rows))

    def to_json(self):
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "basis": _serialized(self.field, self.rows, self.ambient),
        }

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def _serialized(field, rows, ncols):
    """Sparse rows as dense lists of serialized scalars."""
    z = field.zero.serialize()
    return [[r[j].serialize() if j in r else z for j in range(ncols)] for r in rows]


def _add_scaled(out, c, terms):
    """Add c * terms into the sparse dict out and return out (the values of
    terms nonzero; a zero c leaves out unchanged, a c of None stands for one
    and adds terms unmultiplied)."""
    for key, v in terms.items():
        prod = v if c is None else c * v
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
        """Add a sparse row (column -> nonzero scalar) to the span, leaving
        the row unchanged; True when the span grew."""
        row = dict(vec)
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
        return Subspace(self.field, self.ambient, [reduced[p] for p in pivots], pivots)


def kernel_basis(m):
    """Canonical echelon basis of the right kernel {v : Mv = 0}."""
    rows, pivots = rref_rows(m.sparse_rows, m.field, m.cols)
    pivset = set(pivots)
    one = m.field.one
    vecs = {f: {f: one} for f in range(m.cols) if f not in pivset}
    # a reduced row is zero at the other pivots, so each of its other
    # entries sits in a free column
    for row, p in zip(rows, pivots):
        for f, c in row.items():
            if f != p:
                vecs[f][p] = -c
    # one vector per free column is a basis, but not the canonical echelon
    # one: a pivot column left of f can carry its leading entry
    return Subspace.from_vectors(m.field, m.cols, vecs.values())


def image(m):
    """Column space of M as a subspace of field^rows."""
    return Subspace.from_vectors(m.field, m.rows, m.transpose().sparse_rows)


def solve(m, b):
    """One solution of Mx = b for a sparse row b, as a sparse row with the
    free variables at zero, or None when the system is inconsistent."""
    aug = [dict(row) for row in m.sparse_rows]
    for i, bv in b.items():
        aug[i][m.cols] = bv
    rows, pivots = rref_rows(aug, m.field, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    return {p: row[m.cols] for row, p in zip(rows, pivots) if m.cols in row}


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
    cols = [w.coords(img) for img in (w.as_mat() * t.transpose()).sparse_rows]
    return Mat(t.field, w.dim, w.dim, cols).transpose()


def quotient_operator(t, w):
    """Induced operator on field^ambient / w, on the complement coordinates."""
    restrict_operator(t, w)  # raises unless w is invariant, so the quotient action is well defined
    tt = t.transpose().sparse_rows
    cols = [w.quotient_coords(tt[j]) for j in w.complement_indices()]
    return Mat(t.field, len(cols), len(cols), cols).transpose()


def invert(m):
    """Inverse of a square matrix via RREF of the augmented system."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    d = m.rows
    one = m.field.one
    aug = [{**row, d + i: one} for i, row in enumerate(m.sparse_rows)]
    rows, pivots = rref_rows(aug, m.field, 2 * d)
    if pivots[:d] != tuple(range(d)):
        raise ValueError("matrix not invertible")
    return Mat(m.field, d, d, [{j - d: c for j, c in row.items() if j >= d} for row in rows])
