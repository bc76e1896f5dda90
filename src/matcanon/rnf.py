"""Rational normal form with an explicit similarity transform.

If some unit vector is a cyclic vector of A, T is the Krylov basis
[e_k, A*e_k, ..., A^(n-1)*e_k] of the first such e_k in index order, and
the one invariant factor is read off the kernel of [T | A^n*e_k].  The
scan for e_k stops early once A is proven derogatory.  Otherwise the
invariant-factor chain (P_1, ..., P_r), with P_{i+1} dividing P_i, is
computed by diagonalizing X*I - A over k[X] with exact row and column
operations (divide-with-remainder pivoting, smallest-degree pivot first).
Tracking the inverse of the accumulated row operations yields generators
of the cyclic summands of k^n viewed as a k[X]-module via A, and their
iterates under A assemble an invertible T with T^-1 * A * T = R.  Every
step is a rational operation in the entries of A, and the operation count
is polynomial in n.  The pair (R, T) is certified by A * T == T * R with
det T != 0, so no inverse is ever formed.

Over Q, the scan for a cyclic unit vector runs modulo one prime, and the
diagonalization and generators run modulo word-size primes instead of on
Fractions, driven by ``matrix._modular_lift``: the primes whose runs
decide alike are combined and lifted, and the first lift that passes the
certificate over Q is returned.  ``invariant_factors`` is the chain of
``rnf_transform`` on every field, so every chain is certified.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .errors import (
    BasisFailure,
    ChainViolation,
    DegreeZero,
    NonSquare,
    NotMonic,
)
from .fields import GF, Field
from .matrix import Matrix, _krylov_chains, _mod_rows, _modular_lift, _prime, block_diagonal, similarity_defect
from .poly import Polynomial


class Partition:
    """Weakly decreasing positive integers; here, invariant-factor degrees."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be >= 1, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


class RationalNormalForm:
    """The invariant-factor chain of a similarity class.

    Factors are monic of degree >= 1 and each one divides its predecessor;
    the first factor is the minimal polynomial of the class.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Polynomial]):
        factors = tuple(factors)
        if not factors:
            raise DegreeZero("at least one invariant factor is required")
        field = factors[0].field
        for f in factors:
            if f.field != field:
                raise ChainViolation("invariant factors must share one field")
            if f.degree < 1:
                raise DegreeZero(f"invariant factors must have degree >= 1, got {f!r}")
            if not f.is_monic():
                raise NotMonic(f"invariant factors must be monic, got {f!r}")
        for a, b in zip(factors, factors[1:]):
            if not (a % b).is_zero():
                raise ChainViolation(f"{b} does not divide {a}")
        self.factors = factors

    @property
    def field(self) -> Field:
        return self.factors[0].field

    @property
    def n(self) -> int:
        return sum(f.degree for f in self.factors)

    @property
    def minimal_polynomial(self) -> Polynomial:
        return self.factors[0]

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __getitem__(self, i):
        return self.factors[i]

    def __eq__(self, other):
        if isinstance(other, RationalNormalForm):
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        inner = ", ".join(str(f) for f in self.factors)
        return f"RationalNormalForm({inner})"


def companion(p: Polynomial) -> Matrix:
    """Companion matrix B(P): ones on the subdiagonal, last column the
    negated coefficients of monic P, so B(X^2 - d*X - e) = [[0, e], [1, d]].
    """
    if p.degree < 1:
        raise DegreeZero(f"companion matrix needs degree >= 1, got {p!r}")
    if not p.is_monic():
        raise NotMonic(f"companion matrix needs a monic polynomial, got {p!r}")
    field = p.field
    d = p.degree
    zero, one, neg = field.zero, field.one, field.neg
    rows = [[zero] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i + 1][i] = one
    for i in range(d):
        rows[i][d - 1] = neg(p.coeffs[i])
    return Matrix._raw(field, rows)


def assemble_rnf_matrix(rnf: RationalNormalForm) -> Matrix:
    """Block-diagonal matrix of the companions of the invariant factors."""
    return block_diagonal([companion(f) for f in rnf.factors])


def partition_of(rnf: RationalNormalForm) -> Partition:
    """Degrees of the invariant factors (weakly decreasing by the chain)."""
    return Partition([f.degree for f in rnf.factors])


# ---------------------------------------------------------------------------
# Diagonalization of X*I - A over k[X].
#
# Polynomial entries are raw coefficient lists (ascending, no trailing
# zeros, zero = []).  Row operations are mirrored on the columns of the
# inverse of their accumulated product, which is what the generator
# extraction needs.
# ---------------------------------------------------------------------------


def _char_matrix(a: Matrix) -> list[list[list]]:
    field = a.field
    neg, is_zero, zero, one = field.neg, field.is_zero, field.zero, field.one
    m = a.nrows
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            e = a._rows[i][j]
            if i == j:
                row.append([neg(e), one])
            elif is_zero(e):
                row.append([])
            else:
                row.append([neg(e)])
        out.append(row)
    return out


def _diagonalize(field: Field, d: list[list[list]]):
    """Reduce a square polynomial matrix to diagonal form d_1 | d_2 | ...

    Returns (diagonal coefficient lists, winv, trace): winv is the inverse
    of the accumulated row-operation product, and the trace lists every
    decision the reduction took (each pivot (len, i, j), each dirty flag,
    each offender).  The diagonal entries are monic; the input must be
    nonsingular over k(X), which holds for every characteristic matrix.
    """
    ops = field.poly_ops()
    padd, psub, pmul, pdivmod, pscale = ops.add, ops.sub, ops.mul, ops.divmod, ops.scale
    one, neg_one = field.one, field.neg(field.one)
    m = len(d)
    winv = [[[one] if i == j else [] for j in range(m)] for i in range(m)]
    trace = []

    def row_addmul(i, j, q):
        # row_i -= q * row_j; mirrored as col_j += q * col_i on winv.
        rowi, rowj = d[i], d[j]
        for k in range(m):
            if rowj[k]:
                rowi[k] = psub(rowi[k], pmul(q, rowj[k]))
        for k in range(m):
            if winv[k][i]:
                winv[k][j] = padd(winv[k][j], pmul(q, winv[k][i]))

    def col_addmul(j, i, q):
        # col_j -= q * col_i; right-side operation, nothing to mirror.
        for k in range(m):
            if d[k][i]:
                d[k][j] = psub(d[k][j], pmul(q, d[k][i]))

    for t in range(m):
        while True:
            best = None
            for i in range(t, m):
                row = d[i]
                for j in range(t, m):
                    e = row[j]
                    if e and (best is None or len(e) < best[0]):
                        best = (len(e), i, j)
                        if len(e) == 1:
                            break
                if best is not None and best[0] == 1:
                    break
            if best is None:
                raise BasisFailure("singular polynomial matrix in normal-form reduction")
            trace.append(best)
            _, bi, bj = best
            if bi != t:
                d[t], d[bi] = d[bi], d[t]
                for k in range(m):
                    winv[k][t], winv[k][bi] = winv[k][bi], winv[k][t]
            if bj != t:
                for k in range(m):
                    d[k][t], d[k][bj] = d[k][bj], d[k][t]
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                e = d[i][t]
                if e:
                    q, r = pdivmod(e, pivot)
                    row_addmul(i, t, q)
                    if r:
                        dirty = True
            for j in range(t + 1, m):
                e = d[t][j]
                if e:
                    q, r = pdivmod(e, pivot)
                    col_addmul(j, t, q)
                    if r:
                        dirty = True
            trace.append(dirty)
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                row = d[i]
                for j in range(t + 1, m):
                    if row[j] and pdivmod(row[j], pivot)[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            trace.append(offender)
            if offender is None:
                break
            row_addmul(t, offender, [neg_one])
        lead = d[t][t][-1]
        if lead != one:
            d[t][t] = pscale(d[t][t], field.inv(lead))
            for k in range(m):
                if winv[k][t]:
                    winv[k][t] = pscale(winv[k][t], lead)
    return [d[t][t] for t in range(m)], winv, trace


def invariant_factors(a: Matrix) -> RationalNormalForm:
    """The unique chain (P_1, ..., P_r), P_{i+1} | P_i, of the class of a:
    the certified chain of :func:`rnf_transform`."""
    if not a.is_square:
        raise NonSquare("invariant factors need a square matrix")
    return rnf_transform(a)[2]


def _generators(a: Matrix, diag: list[list], winv) -> tuple[list[list], list[int]] | None:
    """The generator of each cyclic summand, largest annihilator first, and
    the index of its first nonzero entry; None if a generator is zero.

    The generator of the summand with annihilator diag[t] is the sum of
    winv[j][t](A) * e_j, taken in one Horner pass over the coefficient
    index k (v = A*v, then v[j] += coefficient k of winv[j][t]).  Any
    nonzero multiple generates the same summand; first nonzero entry 1
    fixes T and keeps its entries small over Q.
    """
    field = a.field
    n = a.nrows
    add, mul, is_zero, zero = field.add, field.mul, field.is_zero, field.zero
    generators, firsts = [], []
    for t in range(n - 1, -1, -1):
        if len(diag[t]) == 1:
            continue
        ws = [winv[j][t] for j in range(n)]
        top = max(map(len, ws)) - 1
        v = [zero] * n
        for k in range(top, -1, -1):
            if k < top:
                v = a.mul_vector_raw(v)
            v = [add(x, w[k]) if k < len(w) else x for x, w in zip(v, ws)]
        first = next((k for k, x in enumerate(v) if not is_zero(x)), None)
        if first is None:
            return None
        inv_first = field.inv(v[first])
        generators.append([mul(x, inv_first) for x in v])
        firsts.append(first)
    return generators, firsts


def _assemble(
    a: Matrix, diag: list[list], generators: list[list]
) -> tuple[Matrix, Matrix, RationalNormalForm]:
    """(R, T, chain): the chain is read off the diagonal d_1 | d_2 | ...,
    largest factor first, and the columns of T are each generator followed
    by its iterates under A, one block per invariant factor."""
    field = a.field
    n = a.nrows
    factors = [Polynomial._raw(field, c) for c in reversed(diag) if len(c) > 1]
    degrees = sum(f.degree for f in factors)
    if degrees != n:
        raise BasisFailure(f"invariant factors have total degree {degrees}, expected {n}")
    chain = RationalNormalForm(factors)
    columns = []
    for v, factor in zip(generators, chain):
        columns.append(v)
        for _ in range(factor.degree - 1):
            v = a.mul_vector_raw(v)
            columns.append(v)
    t_mat = Matrix._raw(field, [[col[i] for col in columns] for i in range(n)])
    return assemble_rnf_matrix(chain), t_mat, chain


def _lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """A least common multiple of f and g, up to a unit."""
    h, r = f, g
    while not r.is_zero():
        h, r = r, h % r
    return f * g // h


def _relation(field: Field, columns: list[list]) -> Polynomial:
    """X^d + c_(d-1)*X^(d-1) + ... + c_0 from the kernel vector
    (c_0, ..., c_(d-1), 1) of [v, A*v, ..., A^d*v] whose first d columns
    are independent: the minimal polynomial of v."""
    kernel = Matrix._raw(field, list(zip(*columns))).rank_and_kernel()[1]
    return Polynomial._raw(field, kernel[-1].column_raw(0))


def _cyclic_unit(field: Field, a) -> tuple[int, list[list]] | None:
    """(k, [e_k, A*e_k, ..., A^n*e_k]) for the first unit vector e_k, in
    index order, that is a cyclic vector of a (raw rows), else None.

    The scan builds the unit-vector Krylov basis of :func:`_krylov` one
    unit vector at a time, and keeps mu, the lcm of the minimal
    polynomials of the chain starts so far; e1's chain is its own.  While
    the span V of the chains is proper, a unit vector in V lies in a
    proper invariant subspace and is not cyclic, and any other is the
    next chain start.  If mu(A) kills that start (evaluated on its chain,
    extended as far as deg mu needs), A is derogatory: for a cyclic A,
    ker mu(A) has dimension deg mu, so it is V, and the start lies outside
    V.  Otherwise the start's own Krylov chain shows whether it is cyclic,
    and its minimal polynomial joins mu.  Once V is k^n, mu(A) kills every
    start, so mu is the minimal polynomial: deg mu < n proves a
    derogatory, and deg mu = n leaves the remaining unit vectors to try.
    """
    n = len(a)
    chain = _krylov_chains(field, a)
    mu = Polynomial._raw(field, [field.one])
    spanned = 0
    for k in range(n):
        if spanned < n:
            vectors, end = chain(k)
            if not vectors:
                continue
            spanned += len(vectors)
            iterates = vectors + [end]
            while len(iterates) <= mu.degree:
                iterates.append([field.dot(row, iterates[-1]) for row in a])
            if not any(field.dot(xs, mu.coeffs) for xs in zip(*iterates)):
                return None
        elif mu.degree < n:
            return None
        if k:
            vectors, end = _krylov_chains(field, a)(k)
        columns = vectors + [end]
        if len(vectors) == n:
            return k, columns
        mu = _lcm(mu, _relation(field, columns))
    return None


def _krylov_transform(a: Matrix) -> tuple[Matrix, Matrix, RationalNormalForm] | None:
    """(R, T, chain) with T = [e_k, A*e_k, ..., A^(n-1)*e_k] for the first
    unit vector e_k that is a cyclic vector of a (:func:`_cyclic_unit`),
    else None.

    The one invariant factor is the relation of [T | A^n*e_k]
    (:func:`_relation`).  Over Q the scan runs on A modulo
    p = ``_prime(0)``: if e_k spans modulo p, T mod p is invertible and so
    is T.  A p that divides a denominator gives None before any Fraction is
    formed; otherwise the iterates of e_k are taken over Q and the kernel
    is the certified one of ``rank_and_kernel``.
    """
    field, n = a.field, a.nrows
    probe, rows = field, a._rows
    if not field.characteristic:
        p = _prime(0)
        if any(x.denominator % p == 0 for row in rows for x in row):
            return None
        probe, rows = GF(p), _mod_rows(rows, p)
    found = _cyclic_unit(probe, rows)
    if found is None:
        return None
    k, columns = found
    if probe is not field:
        columns = [[field.one if i == k else field.zero for i in range(n)]]
        for _ in range(n):
            columns.append(a.mul_vector_raw(columns[-1]))
    chain = RationalNormalForm([_relation(field, columns)])
    return assemble_rnf_matrix(chain), Matrix._raw(field, list(zip(*columns[:n]))), chain


def rnf_transform(a: Matrix) -> tuple[Matrix, Matrix, RationalNormalForm]:
    """(R, T, chain): the normal form R of a, an invertible T with
    T^-1 * A * T = R, and the invariant factors of a.

    If a unit vector is a cyclic vector of a, T is the Krylov basis of the
    first one in index order, over Q the first one modulo ``_prime(0)``
    (:func:`_krylov_transform`); otherwise one diagonalization yields all
    three, over Q modulo primes (see :func:`_rational_rnf_transform`).  The
    result is certified by :func:`similarity_defect` and BasisFailure is
    raised if it fails.
    """
    if not a.is_square:
        raise NonSquare("normal-form transform needs a square matrix")
    field = a.field
    result = _krylov_transform(a)
    if result is None:
        if not field.characteristic:
            return _rational_rnf_transform(a)
        diag, winv, _ = _diagonalize(field, _char_matrix(a))
        generators = _generators(a, diag, winv)
        if generators is None:
            raise BasisFailure("zero generator of a cyclic summand")
        result = _assemble(a, diag, generators[0])
    r_mat, t_mat, chain = result
    defect = similarity_defect(a, r_mat, t_mat)
    if defect is not None:
        raise BasisFailure(f"normal-form transform failed its certificate: {defect}")
    return r_mat, t_mat, chain


def _rational_rnf_transform(a: Matrix) -> tuple[Matrix, Matrix, RationalNormalForm]:
    """(R, T, chain) of a matrix over Q, computed modulo primes.

    For each prime p that divides no denominator of A, the diagonalization
    and the generators run over GF(p) on A mod p; the key of the run for
    ``matrix._modular_lift`` is the length of each diagonal entry, the
    trace of ``_diagonalize`` and the first nonzero index of each
    generator.  If the key is the one of the same run over Q, then p
    divides no pivot lead and no generator entry that the run divides by,
    so every value of the run mod p is the image of its value over Q.  The
    diagonal and the generators are lifted; the other columns of T, the
    iterates of the generators, are then computed over Q, and the lift is
    kept only if every entry of T lies within the reconstruction bound:
    then it is exactly what lifting all of T would give, and a generator
    lifted from too few primes, whose iterates fall far outside the bound,
    is refused.  The first (R, T, chain) kept that passes
    :func:`similarity_defect` over Q is returned; the certificate proves T
    and the chain, which is unique.  The primes of the true key lift to
    the run over Q once their product passes twice the square of its
    largest numerator or denominator, and only finitely many primes change
    the key, so the lift needs no limit on the primes.  A lift certified
    from too few primes or from another key would be another valid T; on
    the test and benchmark corpus T is always the one of the run over Q.
    """
    n = a.nrows
    den = lcm(*(x.denominator for row in a._rows for x in row))

    def image(p):
        if den % p == 0:
            return None
        field = GF(p)
        a_p = Matrix._raw(field, _mod_rows(a._rows, p))
        diag, winv, trace = _diagonalize(field, _char_matrix(a_p))
        generators = _generators(a_p, diag, winv)
        if generators is None:
            return None  # p divides a whole generator over Q: another key
        vectors, firsts = generators
        key = (tuple(map(len, diag)), tuple(trace), tuple(firsts))
        return key, [c for f in diag for c in f] + [x for v in vectors for x in v]

    def accept(key, values, bound):
        lengths, _, firsts = key
        it = iter(values)
        q_diag = [[next(it) for _ in range(k)] for k in lengths]
        q_vectors = [[next(it) for _ in range(n)] for _ in firsts]
        try:
            r_mat, t_mat, chain = _assemble(a, q_diag, q_vectors)
        except ChainViolation:
            return None
        if any(abs(x.numerator) > bound or x.denominator > bound for row in t_mat._rows for x in row):
            return None
        if similarity_defect(a, r_mat, t_mat) is not None:
            return None
        return r_mat, t_mat, chain

    return _modular_lift(image, accept)
