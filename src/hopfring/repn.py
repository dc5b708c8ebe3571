"""Modules as exact matrix representations, and their decompositions.

A module carries one sparse-row ``Mat`` per generator, from the build
through the tensor products to the relation check, which runs on
construction.  The grouplikes b, c act semisimply with root-of-unity
eigenvalues, so every module has a weight decomposition, which collapses
the Hom-space and multiplicity computations to small block systems.  Every
module reads its weights off b and c, where both act diagonally by powers
of q: the catalogs, their layers, pieces and tensor products all do.  Only
a module whose b or c is not diagonal takes the eigen route.  The H_n(1,q)
catalog is found by spinning weight vectors with the regular module's
sparse columns and splitting each H e(i,j).

Decomposition into simples and projectives is by Hom counting: with
t = top multiplicities, c = composition multiplicities and C the Cartan
matrix, the multiplicities a (simples) and b (projectives) solve
t = a + b and c = a + C^T b; integrality and nonnegativity of the
solution is the membership tripwire for the projective class subcategory.
``decompose`` returns the class combination {label: multiplicity} that the
closed forms use; the catalog's ``classes`` maps each class label to the
module it names.
"""

from __future__ import annotations

from .algebra import _merge, _ratio, _relation_failures
from .hopf import hopf_maps
from .labels import Label
from .linalg import (
    Mat,
    SpanBuilder,
    Subspace,
    image as column_space,
    invert,
    kernel_basis,
    kronecker,
    quotient_operator,
    restrict_operator,
    rref_rows,
    solve,
)
from .structure import jacobson_radical, radical_ideal_generators

__all__ = [
    "Module",
    "ModuleError",
    "regular_representation",
    "simple_S",
    "projective_P",
    "tensor_module",
    "hom_dim",
    "weight_decomposition",
    "radical_filtration",
    "module_catalog",
    "decompose",
    "pim_arrow_scalars",
]


class ModuleError(Exception):
    pass


def check_module_relations(H, acts):
    """Names of defining relations violated by the action matrices
    (``acts`` in letter order)."""
    return _relation_failures(H, acts)


class Module:
    """An exact matrix representation of one of the abcd algebras.

    ``weights`` holds each basis vector's (i, j) when b and c act on it by
    q^i and q^j, read off their diagonals; it is None when either is not
    diagonal by powers of q.
    """

    def __init__(self, H, acts, label=None, check=True):
        self.algebra = H
        self.acts = acts  # dict generator name -> Mat
        self.dim = acts["a"].rows if acts else 0
        self.label = label
        self.weights = _diagonal_weights(self)
        self._weightized = None
        self._mono_act = {}
        self._radical_mats = None
        self._gen_pows = None
        if check and self.dim:
            mats = [acts[name] for name in H.letters]
            bad = check_module_relations(H, mats)
            if bad:
                raise ModuleError(
                    "module %r violates relations: %s" % (label, ", ".join(bad))
                )

    def act_elt(self, elt):
        """Matrix of an algebra element (cached per PBW monomial)."""
        out = Mat.zeros(self.algebra.field, self.dim, self.dim)
        for mono, c in elt.terms.items():
            out.add_scaled(c, self._mono_matrix(mono))
        return out

    def _mono_matrix(self, mono):
        cached = self._mono_act.get(mono)
        if cached is not None:
            return cached
        H = self.algebra
        if self._gen_pows is None:
            pows = []
            for name in H.letters:
                lst = [Mat.identity(H.field, self.dim)]
                for _ in range(H.n - 1):
                    lst.append(self.acts[name] * lst[-1])
                pows.append(lst)
            self._gen_pows = pows
        out = None
        for t in range(len(H.letters)):
            e = mono[t]
            if e:
                p = self._gen_pows[t][e]
                out = p if out is None else out * p
        if out is None:
            out = Mat.identity(H.field, self.dim)
        self._mono_act[mono] = out
        return out

    def to_json(self):
        return {
            "label": str(self.label) if self.label is not None else None,
            "dim": self.dim,
            "weights": list(self.weights) if self.weights is not None else None,
            "actions": {name: m.to_json() for name, m in self.acts.items()},
        }

    def __repr__(self):
        return "Module(%s, dim=%d)" % (self.label, self.dim)


def regular_representation(H):
    """Left multiplication on the PBW basis.

    Building H proved that these operators satisfy the defining relations,
    with the checker ``Module`` would run, so it is not run again.
    """
    if H._regular is None:
        acts = {name: H.left_mult_matrix(name) for name in H.letters}
        H._regular = Module(H, acts, label="regular", check=False)
    return H._regular


def simple_S(i, j, H):
    """The one-dimensional module with b, c eigenvalues q^i, q^j and a = d = 0."""
    if H.deformed:
        raise ModuleError("simple_S applies to the undeformed families")
    f = H.field
    n = H.n
    acts = {
        "a": Mat.zeros(f, 1, 1),
        "d": Mat.zeros(f, 1, 1),
        "b": Mat(f, 1, 1, [{0: f.q_pow(i)}]),
        "c": Mat(f, 1, 1, [{0: f.q_pow(j)}]),
    }
    return Module(H, acts, label=Label("S", i % n, j % n))


def module_from_vectors(H, vectors, label=None):
    """Submodule of the regular module on the given independent AlgElt basis.

    Action matrices are taken in that basis, so when each vector is a
    weight vector the result reads its weights off b and c.
    """
    span = SpanBuilder(H.field, H.dim)
    for v in vectors:
        if not span.insert(v.as_row()):
            raise ModuleError("generating vectors are dependent")
    sub = span.to_subspace()
    d = sub.dim
    # coordinates of g*v_k in the chosen basis, through the echelon coordinates
    cob = Mat(H.field, d, d, [sub.coords(v.as_row()) for v in vectors]).transpose()
    cobinv = invert(cob)
    acts = {}
    for name in H.letters:
        g = H.gen(name)
        cols = [sub.coords((g * v).as_row()) for v in vectors]
        acts[name] = cobinv * Mat(H.field, d, d, cols).transpose()
    return Module(H, acts, label=label)


def projective_P(i, j, H):
    """The projective indecomposable H e(i,j) on the basis a^k d^l e(i,j)."""
    if H.deformed:
        raise ModuleError("projective_P applies to the undeformed families")
    n = H.n
    es = H.group_idempotents()
    e = es[(i % n, j % n)]
    vectors = []
    for k in range(n):
        for l in range(n):
            vectors.append(H.monomial((k, 0, 0, l)) * e)
    mod = module_from_vectors(H, vectors, label=Label("P", i % n, j % n))
    if mod.dim != n * n:
        raise ModuleError("projective module has wrong dimension")
    return mod


def pim_arrow_scalars(i, j, H):
    """The scalars decorating the PIM diagram arrows on the a^k d^l e basis.

    Returns two (k, l) -> scalar maps: one for the solid arrows (action of a),
    one for the dashed arrows (action of d).
    """
    n = H.n
    es = H.group_idempotents()
    e = es[(i % n, j % n)]
    basis = {}
    for k in range(n):
        for l in range(n):
            basis[(k, l)] = H.monomial((k, 0, 0, l)) * e
    solid = {}
    dashed = {}
    a, d = H.gen("a"), H.gen("d")
    for (k, l), v in basis.items():
        img = a * v
        if k + 1 < n:
            target = basis[(k + 1, l)]
            solid[(k, l)] = _ratio(img, target)
        img = d * v
        if l + 1 < n:
            target = basis[(k, l + 1)]
            dashed[(k, l)] = _ratio(img, target)
    return solid, dashed


def tensor_module(M, N, check=True):
    """Tensor product along the coproduct; relations are re-verified.

    Generator t acts as the sum of c * kron(l, r) over the terms of
    ``HopfMaps._delta_gen[t]``, whose legs are the unit (passed to
    ``kronecker`` as the module's dimension) or one generator.  The
    grouplikes act by kron(b, b) and kron(c, c), so the product of two
    weight modules reads its weights off them like any module."""
    H = M.algebra
    if N.algebra is not H:
        raise ModuleError("tensor factors live over different algebras")
    maps = hopf_maps(H)

    def leg(mod, mono):
        return mod.dim if mono == maps._unit else mod.acts[H.letters[mono.index(1)]]

    dim = M.dim * N.dim
    acts = {}
    for t, name in enumerate(H.letters):
        act = Mat.zeros(H.field, dim, dim)
        for (l, r), c in maps._delta_gen[t].items():
            act.add_scaled(c, kronecker(leg(M, l), leg(N, r)))
        acts[name] = act
    label = None
    if M.label is not None and N.label is not None:
        label = "%s(x)%s" % (M.label, N.label)
    return Module(H, acts, label=label, check=check)


def weight_decomposition(M):
    """Joint eigenspaces of b and c; their dimensions must fill the module."""
    H = M.algebra
    f = H.field
    n = H.n
    out = {}
    total = 0
    B, C = M.acts["b"], M.acts["c"]
    eye = Mat.identity(f, M.dim)
    for i in range(n):
        kb = kernel_basis(B - eye.scale(f.q_pow(i)))
        if kb.dim == 0:
            continue
        cr = restrict_operator(C, kb)
        for j in range(n):
            kc = kernel_basis(cr - Mat.identity(f, kb.dim).scale(f.q_pow(j)))
            if kc.dim == 0:
                continue
            # kc is in the coordinates of kb's echelon basis
            sub = Subspace.from_vectors(f, M.dim, (kc.as_mat() * kb.as_mat()).sparse_rows)
            out[(i, j)] = sub
            total += sub.dim
    if total != M.dim:
        raise ModuleError(
            "weight spaces span %d of %d dimensions; b or c is not semisimple"
            % (total, M.dim)
        )
    return out


def _diagonal_weights(M):
    """Weights read off b and c if both are diagonal in table roots q^k, k < n."""
    n = M.algebra.n
    diag = []
    for name in ("b", "c"):
        roots = [row[i]._root if len(row) == 1 and i in row else None
                 for i, row in enumerate(M.acts[name].sparse_rows)]
        if not all(r is not None and r < n for r in roots):
            return None
        diag.append(roots)
    return list(zip(*diag))


def weightized(M):
    """A weight-basis form of M and the change of basis (P, Pinv) to it.

    A module with weights is its own form, and P is None.  Otherwise P
    holds the weight spaces' echelon bases in weight order, and the form
    reads its weights off its now diagonal b and c; on a diagonal module
    this would sort the basis stably by weight, so ``hom_dim`` sets up the
    same equations either way.
    """
    if M.weights is not None:
        return M, None
    if M._weightized is None:
        H = M.algebra
        wd = weight_decomposition(M)
        cols = [row for w in sorted(wd) for row in wd[w].rows]
        p = Mat(H.field, len(cols), M.dim, cols).transpose()
        pinv = invert(p)
        acts = {name: pinv * M.acts[name] * p for name in M.acts}
        M._weightized = (Module(H, acts, label=M.label, check=False), (p, pinv))
    return M._weightized


class HomSpace:
    def __init__(self, dim, builder):
        self.dim = dim
        self._builder = builder

    def intertwiners(self):
        return self._builder()


def hom_dim(M, N):
    """Dimension (with a basis on demand) of the intertwiner space M -> N."""
    H = M.algebra
    f = H.field
    Mw, trM = weightized(M)
    Nw, trN = weightized(N)
    if M.dim == 0 or N.dim == 0:
        return HomSpace(0, lambda: [])
    idxM = {}
    for t, w in enumerate(Mw.weights):
        idxM.setdefault(w, []).append(t)
    idxN = {}
    for t, w in enumerate(Nw.weights):
        idxN.setdefault(w, []).append(t)
    blocks = []  # (weight, rowsN, colsM, offset)
    offset = 0
    for w in sorted(idxM):
        if w in idxN:
            rows, cols = idxN[w], idxM[w]
            blocks.append((w, rows, cols, offset))
            offset += len(rows) * len(cols)
    unknowns = offset
    if unknowns == 0:
        return HomSpace(0, lambda: [])
    block_of = {b[0]: b for b in blocks}
    eqs = []
    n = H.n
    for name in ("a", "d"):
        sh = H.weight_shift(name)
        AM = Mw.acts[name].sparse_rows
        AN = Nw.acts[name].sparse_rows
        for w in sorted(idxM):
            colsM = idxM[w]
            wt = ((w[0] + sh[0]) % n, (w[1] + sh[1]) % n)
            tgtN = idxN.get(wt, [])
            if not tgtN:
                continue
            src_block = block_of.get(w)
            tgt_block = block_of.get(wt)
            # equations indexed by (p in tgtN, q in colsM):
            #   sum_r f_wt[p, r] AM[r, q] - sum_s AN[p, s] f_w[s, q] = 0
            for pi, p in enumerate(tgtN):
                for qi, q in enumerate(colsM):
                    row = {}
                    if tgt_block is not None:
                        _, _, tcols, toff = tgt_block
                        for ri, r in enumerate(tcols):
                            cme = AM[r].get(q)
                            if cme is not None:
                                row[toff + pi * len(tcols) + ri] = cme
                    if src_block is not None:
                        _, rowsN, scols, soff = src_block
                        for si, s in enumerate(rowsN):
                            cne = AN[p].get(s)
                            if cne is not None:
                                _merge(row, soff + si * len(scols) + qi, -cne)
                    if row:
                        eqs.append(row)
    if eqs:
        mat = Mat(f, len(eqs), unknowns, eqs)
        ker = kernel_basis(mat)
    else:
        ker = Subspace.full(f, unknowns)

    def builder():
        mats = []
        for kv in ker.rows:
            rows = [{} for _ in range(Nw.dim)]
            for _, rowsN, colsM, off in blocks:
                for pi, p in enumerate(rowsN):
                    for qi, q in enumerate(colsM):
                        c = kv.get(off + pi * len(colsM) + qi)
                        if c is not None:
                            rows[p][q] = c
            out = Mat(f, Nw.dim, Mw.dim, rows)
            if trN is not None:
                out = trN[0] * out  # P_N f
            if trM is not None:
                out = out * trM[1]  # f P_M^(-1)
            mats.append(out)
        return mats

    return HomSpace(ker.dim, builder)


def _weight_dims(M):
    Mw, _ = weightized(M)
    out = {}
    for w in Mw.weights:
        out[w] = out.get(w, 0) + 1
    return out


def submodule_restriction(M, sub):
    """M restricted to an invariant subspace, as a module on its echelon basis."""
    acts = {name: restrict_operator(M.acts[name], sub) for name in M.acts}
    return Module(M.algebra, acts, check=False)


def radical_submodule(M, sub=None):
    """J * X inside M for a submodule X (a Subspace, default the whole module).

    J = G·H for the right-ideal generators G, so J·X = G·(H·X) = G·X: the
    action of G, kept on M, spans it.  This needs H·X = X.
    """
    H = M.algebra
    mats = M._radical_mats
    if mats is None:
        mats = M._radical_mats = [M.act_elt(g) for g in radical_ideal_generators(H)]
    # the rows of g^T, and of X g^T, are the images under g of the unit
    # vectors, and of the echelon basis of X
    images = [mat.transpose() if sub is None else sub.as_mat() * mat.transpose() for mat in mats]
    return Subspace.from_vectors(H.field, M.dim, [r for t in images for r in t.sparse_rows])


def radical_filtration(M, labels_and_simples):
    """Semisimple layers of M with multiplicities against the given simples.

    ``labels_and_simples`` is a list of (label, simple module) pairs; the
    returned value is a list of {label: multiplicity} dicts, one per layer.
    """
    H = M.algebra
    layers = []
    current = Subspace.full(H.field, M.dim) if M.dim else Subspace.zero(H.field, 0)
    while current.dim:
        nxt = radical_submodule(M, current)
        restricted = submodule_restriction(M, current)
        layer = {}
        for label, s in labels_and_simples:
            mult = hom_dim(restricted, s).dim
            if mult:
                layer[label] = mult
        expected = sum(
            layer.get(label, 0) * s.dim for label, s in labels_and_simples
        )
        if expected != current.dim - nxt.dim:
            raise ModuleError(
                "layer of dim %d decomposed into %d; missing simples"
                % (current.dim - nxt.dim, expected)
            )
        layers.append(layer)
        current = nxt
        if len(layers) > M.dim + 1:
            raise ModuleError("radical filtration does not terminate")
    return layers


def spin_module(H, seeds, label=None):
    """Cyclic closure of weight vectors of the regular module, as a Module.

    Spinning applies the regular module's sparse columns weight space by
    weight space, so only the seeds' weights are computed.  The basis is
    each weight space's canonical echelon rows, in weight order, and each
    action column is read off the target weight space's rows; the Module
    check then proves the relations, and the module reads its weights off
    its diagonal b and c.
    """
    f = H.field
    if H._regular_cols is None:  # row j of each is the column L_g e_j
        H._regular_cols = [m.transpose() for m in regular_representation(H).acts.values()]
    cols = H._regular_cols
    shifts = [H.weight_shift(name) for name in H.letters]
    n = H.n
    builders = {}
    frontier = []
    for v in seeds:
        w, row = _left_weight(H, v), v.as_row()
        if builders.setdefault(w, SpanBuilder(f, H.dim)).insert(row):
            frontier.append((w, row))
    while frontier:
        rows = Mat(f, len(frontier), H.dim, [row for _, row in frontier])
        nxt = []
        for op, sh in zip(cols, shifts):
            for (w, _), img in zip(frontier, (rows * op).sparse_rows):
                w2 = ((w[0] + sh[0]) % n, (w[1] + sh[1]) % n)
                if img and builders.setdefault(w2, SpanBuilder(f, H.dim)).insert(img):
                    nxt.append((w2, img))
        frontier = nxt
    subs = {w: builders[w].to_subspace() for w in sorted(builders)}
    weights = [w for w, sub in subs.items() for _ in sub.rows]
    offset, k = {}, 0
    for w, sub in subs.items():
        offset[w], k = k, k + sub.dim
    basis = Mat(f, len(weights), H.dim, [row for sub in subs.values() for row in sub.rows])
    acts = {}
    for name, op, sh in zip(H.letters, cols, shifts):
        columns = []
        for w, img in zip(weights, (basis * op).sparse_rows):
            col = {}
            if img:
                w2 = ((w[0] + sh[0]) % n, (w[1] + sh[1]) % n)
                try:
                    coords = subs[w2].coords(img)
                except ValueError:
                    raise ModuleError("the span is not invariant under %s at weight %r" % (name, w))
                col = {offset[w2] + i: c for i, c in coords.items()}
            columns.append(col)
        acts[name] = Mat(f, k, k, columns).transpose()
    return Module(H, acts, label=label)


def _left_weight(H, v):
    """Weight of a left-multiplication eigenvector of the regular module."""
    out = []
    for name in ("b", "c"):
        ratio = _ratio(H.gen(name) * v, v)
        if ratio is None:
            raise ModuleError("vector is not a weight vector")
        if ratio._root is None or ratio._root >= H.n:  # q^k is the table root k
            raise ModuleError("eigenvalue is not a power of q")
        out.append(ratio._root)
    return tuple(out)


def _is_simple(M):
    """Semisimple (J kills it) and indecomposable (End is one-dimensional)."""
    if M.dim == 0:
        return False
    if radical_submodule(M).dim:
        return False
    return hom_dim(M, M).dim == 1


class ModuleCatalog:
    """All simples and projective indecomposables of one algebra, labeled."""

    def __init__(self, H, labels, simples, pims, cartan, layers=None):
        self.algebra = H
        self.labels = labels  # simple labels in canonical order
        self.simples = simples  # label -> Module
        self.pims = pims  # simple label -> its projective cover Module
        self.cartan = cartan  # (top label T, simple label S) -> [P(T):S]
        # simple label -> the radical layers of its cover, where the catalog
        # computed them (the deformed family's Cartan matrix); else None
        self.layers = layers
        # class label -> module; simples last, so a self-projective V(n, r)
        # names its simple
        self.classes = {M.label: M for M in [*pims.values(), *simples.values()]}
        self._cartan_factor = None

    def cartan_matrix(self):
        labs = self.labels
        return [[self.cartan.get((t, s), 0) for s in labs] for t in labs]

    def self_projective(self, lab):
        """True when the simple is its own projective cover (classes coincide)."""
        return self.pims[lab].dim == self.simples[lab].dim

    def _solve_mults(self, cvec, tvec):
        """Solve c = a + C^T b and t = a + b for nonnegative integers.

        Copies of self-projective simples are counted once, on the simple
        side, so the b-unknowns range over the covers with l strictly below
        the top dimension; on that column set C^T - I has trivial kernel
        (verified when the catalog is built).  The system is eliminated once:
        the reduced form of [C^T - I | I] holds a left inverse of C^T - I
        above the rows that every solvable right-hand side must annihilate.
        """
        labs = self.labels
        k = len(labs)
        if self._cartan_factor is None:
            f = self.algebra.field
            cm = self.cartan_matrix()
            free = [j for j, lab in enumerate(labs) if not self.self_projective(lab)]
            nf = len(free)
            aug = []
            for i in range(k):
                row = {nf + i: f.one}
                for c, j in enumerate(free):
                    x = cm[j][i] - (i == j)
                    if x:
                        row[c] = f.from_int(x)
                aug.append(row)
            rows, pivots = rref_rows(aug, f, nf + k)
            if pivots[:nf] != tuple(range(nf)):
                raise ModuleError("Cartan system is degenerate on the cover columns")
            factor = [{j - nf: c for j, c in row.items() if j >= nf} for row in rows]
            self._cartan_factor = (free, factor)
        free, factor = self._cartan_factor
        rhs = [cvec[i] - tvec[i] for i in range(k)]
        zero = self.algebra.field.zero
        vals = [sum((c * rhs[j] for j, c in row.items() if rhs[j]), zero) for row in factor]
        if any(not v.is_zero() for v in vals[len(free):]):
            return None
        out_b = [0] * k
        for pos, v in zip(free, vals):
            x = v.as_int()
            if x is None or x < 0:
                return None
            out_b[pos] = x
        out_a = [tvec[i] - out_b[i] for i in range(k)]
        if any(x < 0 for x in out_a):
            return None
        return out_a, out_b

    def composition_vector(self, M, via_hom=False):
        """[M : S] for every simple S, in label order."""
        labs = self.labels
        if self.algebra.basic and not via_hom:
            wd = _weight_dims(M)
            return [wd.get((lab.a, lab.b), 0) for lab in labs]
        return [hom_dim(self.pims[lab], M).dim for lab in labs]


def _basic_catalog(H):
    n = H.n
    labels = [Label("S", i, j) for i in range(n) for j in range(n)]
    simples = {lab: simple_S(lab.a, lab.b, H) for lab in labels}
    pims = {lab: projective_P(lab.a, lab.b, H) for lab in labels}
    cartan = {}
    for t in labels:
        wd = _weight_dims(pims[t])
        for s in labels:
            m = wd.get((s.a, s.b), 0)
            if m:
                cartan[(t, s)] = m
    return ModuleCatalog(H, labels, simples, pims, cartan)


def _h1_discover_simples(H):
    """Spin weight vectors killed by a until the semisimple budget is filled.

    A seed whose weight is that of an a-killed basis vector of a simple
    already found is skipped.  The budget certifies the search: the found
    simples' squared dimensions must add up to dim H / J, so a skip that
    lost a simple raises.
    """
    n = H.n
    J = jacobson_radical(H)
    budget = 0
    target = H.dim - J.dim
    es = H.group_idempotents()
    simples = []
    covered = set()
    a_pow = H.monomial(((n - 1), 0, 0, 0))
    sa = H.weight_shift("a")
    seeds = [
        (s, t, k) for s in range(n) for t in range(n) for k in range(n)
    ]
    for s, t, k in seeds:
        if budget >= target:
            break
        # e(s, t) has weight (s, t), a moves it by sa and d^k acts on the right
        if ((s + (n - 1) * sa[0]) % n, (t + (n - 1) * sa[1]) % n) in covered:
            continue
        v = (a_pow * es[(s, t)]) * H.monomial((0, 0, 0, k))
        if v.is_zero():
            continue
        if not (H.gen("a") * v).is_zero():
            raise ModuleError("seed vector not killed by a")
        M = spin_module(H, [v])
        if not _is_simple(M):
            continue
        if any(M.dim == S.dim and hom_dim(M, S).dim for S in simples):
            continue
        simples.append(M)
        budget += M.dim * M.dim
        moved = set().union(*M.acts["a"].sparse_rows)  # columns a keeps nonzero
        covered.update(w for i, w in enumerate(M.weights) if i not in moved)
    if budget != target:
        raise ModuleError(
            "simple search found %d of %d semisimple dimensions" % (budget, target)
        )
    return simples


def _h1_discover_pims(H, simples):
    """Split each H e(i,j) into indecomposable summands with simple tops.

    The splitting is a deterministic Fitting decomposition: a primitive
    idempotent of the endomorphism ring modulo its radical is constructed
    from Hom spaces against the simple at the top, lifted to an honest
    idempotent endomorphism by the cubic correction iteration, and the
    module splits along its image.  A direct randomized search for cyclic
    generators fails here because generic top preimages are contaminated
    by the radicals of the complementary summands.
    """
    n = H.n
    es = H.group_idempotents()
    covers = {}  # simple index -> cover Module
    for (i, j), e in sorted(es.items()):
        E = spin_module(H, [e])
        if E.dim != n * n:
            raise ModuleError("H e(i,j) has wrong dimension %d" % E.dim)
        pieces = _split_summands(E, simples)
        total = 0
        for piece in pieces:
            tops = [(k, hom_dim(piece, S).dim) for k, S in enumerate(simples)]
            tops = [(k, m) for k, m in tops if m]
            if len(tops) != 1 or tops[0][1] != 1:
                raise ModuleError("summand of H e(%d,%d) has non-simple top" % (i, j))
            idx = tops[0][0]
            total += piece.dim
            if idx not in covers:
                covers[idx] = piece
            elif covers[idx].dim != piece.dim:
                raise ModuleError("inconsistent projective cover dimensions")
        if total != E.dim:
            raise ModuleError("summands of H e(%d,%d) do not fill it" % (i, j))
    if len(covers) != len(simples):
        raise ModuleError("projective covers missing for some simples")
    return covers


def _split_summands(E, simples):
    """Recursive direct-sum decomposition into pieces with simple tops."""
    H = E.algebra
    f = H.field
    tops = [(k, hom_dim(E, S).dim) for k, S in enumerate(simples)]
    tops = [(k, m) for k, m in tops if m]
    total_mult = sum(m for _, m in tops)
    if total_mult <= 1:
        return [E]
    V = simples[tops[0][0]]
    je = radical_submodule(E)
    top_acts = {name: quotient_operator(E.acts[name], je) for name in E.acts}
    top_mod = Module(H, top_acts, check=False)
    comp = je.complement_indices()
    k = len(comp)
    at = {c: i for i, c in enumerate(comp)}
    # h: E -> V descending to the top, paired against f: V -> top
    g_E = hom_dim(E, V).intertwiners()
    g_top = [
        Mat(f, V.dim, k, [{at[c]: v for c, v in row.items() if c in at} for row in g.sparse_rows])
        for g in g_E
    ]
    f_top = hom_dim(V, top_mod).intertwiners()
    m = len(f_top)
    if len(g_top) != m or m == 0:
        raise ModuleError("top Hom spaces are unbalanced")
    pairing = []
    for g in g_top:
        row = {}
        for col, ft in enumerate(f_top):
            comp_mat = g * ft
            lam = comp_mat[0, 0]
            if comp_mat != Mat.identity(f, V.dim).scale(lam):
                raise ModuleError("composite endomorphism of a simple is not scalar")
            if not lam._is0:
                row[col] = lam
        pairing.append(row)
    pm_inv = invert(Mat(f, m, m, pairing))
    # h_1 := sum_j inv[0][j] g_top[j] satisfies h_1 f_k = delta(1, k)
    h1 = None
    for jdx, c in pm_inv.sparse_rows[0].items():
        term = g_top[jdx].scale(c)
        h1 = term if h1 is None else h1 + term
    e_top = f_top[0] * h1  # primitive idempotent of End(top)
    # solve for an endomorphism of E whose top action is e_top
    end_basis = hom_dim(E, E).intertwiners()
    # unknown: the coefficient of each eta; equation (r, c) at r * k + c
    cols = []
    for eta in end_basis:
        etat = eta.transpose().sparse_rows
        qcols = [je.quotient_coords(etat[c]) for c in comp]
        cols.append({r * k + cc: v for cc, qc in enumerate(qcols) for r, v in qc.items()})
    target = {r * k + c: v for r, row in enumerate(e_top.sparse_rows) for c, v in row.items()}
    x = solve(Mat(f, len(end_basis), k * k, cols).transpose(), target)
    if x is None:
        raise ModuleError("top projection does not lift to an endomorphism")
    eta = None
    for idx, coeff in x.items():
        term = end_basis[idx].scale(coeff)
        eta = term if eta is None else eta + term
    eye = Mat.identity(f, E.dim)
    for _ in range(16):
        if eta * eta == eta:
            break
        eta = (eta * eta) * (eye.scale(f.from_int(3)) - eta.scale(f.from_int(2)))
    else:
        raise ModuleError("idempotent lifting did not converge")
    piece = submodule_restriction(E, column_space(eta))
    rest = submodule_restriction(E, column_space(eye - eta))
    if piece.dim + rest.dim != E.dim or piece.dim == 0 or rest.dim == 0:
        raise ModuleError("idempotent splitting is degenerate")
    return _split_summands(piece, simples) + _split_summands(rest, simples)


def _iso_class(M, candidates):
    for idx, S in enumerate(candidates):
        if S.dim == M.dim and hom_dim(M, S).dim:
            return idx
    raise ModuleError("module matches no discovered simple")


def _h1_calibrate_labels(H, simples):
    """Assign V(l, r) labels per the fusion calibration convention.

    V(1,0) is the trivial module; V(1,1) is the unique one-dimensional
    summand of T (x) T for a two-dimensional simple T, which is then
    labeled V(2,0); higher labels propagate through tensoring with V(2,0)
    and V(1,1).  The residual freedom is a fusion-ring automorphism.
    """
    n = H.n
    by_dim = {}
    for idx, S in enumerate(simples):
        by_dim.setdefault(S.dim, []).append(idx)
    if any(len(by_dim.get(l, [])) != n for l in range(1, n + 1)):
        raise ModuleError(
            "simple dimensions %r do not form n copies of 1..n"
            % {d: len(v) for d, v in sorted(by_dim.items())}
        )
    label_of = {}
    trivial = None
    for idx in by_dim[1]:
        if _weight_dims(simples[idx]) == {(0, 0): 1}:
            trivial = idx
    if trivial is None:
        raise ModuleError("trivial module not found among one-dimensional simples")
    label_of[Label("V", 1, 0)] = trivial
    # deterministic choice of the two-dimensional calibration module
    two = sorted(by_dim[2], key=lambda idx: sorted(_weight_dims(simples[idx])))
    T = two[0]
    label_of[Label("V", 2, 0)] = T
    TT = tensor_module(simples[T], simples[T], check=False)
    ones = [idx for idx in by_dim[1] if hom_dim(TT, simples[idx]).dim]
    if len(ones) != 1:
        raise ModuleError("calibration square has %d one-dimensional summands" % len(ones))
    label_of[Label("V", 1, 1)] = ones[0]
    x_mod = simples[ones[0]]
    cur = x_mod
    for r in range(2, n):
        cur = tensor_module(x_mod, cur, check=False)
        label_of[Label("V", 1, r)] = _iso_class(cur, simples)
    for l in range(2, n):
        W = tensor_module(simples[T], simples[label_of[Label("V", l, 0)]], check=False)
        cands = [idx for idx in by_dim[l + 1] if hom_dim(W, simples[idx]).dim]
        if len(cands) != 1:
            raise ModuleError("label propagation ambiguous at l=%d" % (l + 1,))
        label_of[Label("V", l + 1, 0)] = cands[0]
    for l in range(2, n + 1):
        for r in range(1, n):
            W = tensor_module(x_mod, simples[label_of[Label("V", l, r - 1)]], check=False)
            label_of[Label("V", l, r)] = _iso_class(W, simples)
    if len(set(label_of.values())) != len(simples):
        raise ModuleError("label calibration is not a bijection")
    return label_of


def _h1_catalog(H):
    n = H.n
    simples = _h1_discover_simples(H)
    label_of = _h1_calibrate_labels(H, simples)
    covers = _h1_discover_pims(H, simples)
    labels = [Label("V", l, r) for l in range(1, n + 1) for r in range(n)]
    simple_map = {}
    pim_map = {}
    for lab in labels:
        idx = label_of[lab]
        S = simples[idx]
        S.label = lab
        simple_map[lab] = S
        P = covers[idx]
        if lab.a == n:
            if P.dim != n:
                raise ModuleError("V(n,r) is not its own projective cover")
        P.label = Label("Pr", lab.a, lab.b) if lab.a < n else lab
        pim_map[lab] = P
    pairs = [(lab, simple_map[lab]) for lab in labels]
    layers = {lab: radical_filtration(pim_map[lab], pairs) for lab in labels}
    cartan = {}
    for lab in labels:
        for layer in layers[lab]:
            for s, m in layer.items():
                cartan[(lab, s)] = cartan.get((lab, s), 0) + m
    return ModuleCatalog(H, labels, simple_map, pim_map, cartan, layers)


def module_catalog(H, seed=0):
    """Simples, projective covers and the Cartan matrix of H (cached).

    Every catalog is built deterministically; ``seed`` is accepted from
    callers that thread one through and changes nothing.
    """
    cached = getattr(H, "_catalog", None)
    if cached is not None:
        return cached
    if H.basic:
        cat = _basic_catalog(H)
    elif H.deformed:
        cat = _h1_catalog(H)
    else:
        raise ModuleError("module catalogs exist for the abcd families only")
    H._catalog = cat
    return cat


def decompose(M):
    """M as a combination of classes, class label -> multiplicity.

    Membership in the projective class subcategory is verified, not
    assumed: the Hom-counting system must have a nonnegative integral
    solution, the dimensions must add up, and the claimed sum must
    reproduce the measured top and composition vectors.
    """
    cat = module_catalog(M.algebra)
    if M.dim == 0:
        return {}
    labs = cat.labels
    tvec = [hom_dim(M, cat.simples[lab]).dim for lab in labs]
    cvec = cat.composition_vector(M)
    sol = cat._solve_mults(cvec, tvec)
    if sol is None:
        raise ModuleError(
            "module %r lies outside the projective class subcategory" % (M.label,)
        )
    avec, bvec = sol
    # final oracle: the claimed direct sum reproduces t and c exactly
    k = len(labs)
    cm = cat.cartan_matrix()
    for i in range(k):
        t_claim = avec[i] + bvec[i]
        c_claim = avec[i] + sum(bvec[j] * cm[j][i] for j in range(k))
        if t_claim != tvec[i] or c_claim != cvec[i]:
            raise ModuleError("decomposition oracle mismatch at %s" % labs[i])
    out = {}
    dim_total = 0
    for summands, mults in ((cat.simples, avec), (cat.pims, bvec)):
        for lab, m in zip(labs, mults):
            if m:
                summand = summands[lab]
                out[summand.label] = out.get(summand.label, 0) + m
                dim_total += m * summand.dim
    if dim_total != M.dim:
        raise ModuleError(
            "decomposition dims %d do not match module dim %d" % (dim_total, M.dim)
        )
    return out
