"""Rational normal form with an explicit similarity transform.

T has one Krylov block g, A*g, ..., A^(deg P - 1)*g per invariant factor
P, largest first, with generators from unit vectors (the cyclic
decomposition of Hoffman & Kunze, *Linear Algebra*, 7.2, and the lcm
merge of Augot & Camion, LAA 1997).  With W the span of the blocks so
far, x is the first unit vector, in index order, whose conductor into W
(the monic f of least degree with f(A)*x in W) has the degree of P, or
else the lcm merge of the unit vectors outside W.  Then P(A)*x = sum of
h_i(A)*g_i over the generators so far, P divides each h_i, and the
generator is x - sum of (h_i/P)(A)*g_i.  So T is the Krylov basis of the
first unit vector that is a cyclic vector, if there is one.

The chain (P_1, ..., P_r), P_{i+1} | P_i, is the conductors f of the
generators g, f(A)*g = 0: the columns of T are independent, so once the
conductors divide one another R is the normal form, whose chain is
unique.  The rule reads only the degrees of the chain: a scan of the
unit vectors gives those of a cyclic matrix and proves a matrix
derogatory, and the diagonal of X*I - A reduced over k[X]
(divide-with-remainder pivoting, smallest-degree pivot first), or a run
modulo another prime, those of a derogatory one.  Every step is a
rational operation in the entries of A, polynomial in n, and the chains
run on ``matrix._Span``, the Krylov engine shared with ``pairs``.
(R, T) is certified by A * T == T * R with det T != 0; no inverse is
formed.  Over Q all of it runs modulo word-size primes, lifted by
``matrix._modular_lift``.  ``invariant_factors`` is the chain of
``rnf_transform`` on every field, so every chain is certified.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from operator import mul as _mul

from .errors import (
    BadPartition,
    BasisFailure,
    ChainViolation,
    DegreeZero,
    NonSquare,
    NotMonic,
)
from .fields import GF, QQ, Field, _integral
from .matrix import Matrix, _Span, _chain, _coordinates, _mod_rows, _modular_lift, _unit
from .matrix import _over_one_denominator, block_diagonal, similarity_defect
from .poly import Polynomial


class Partition(tuple):
    """Weakly decreasing positive integers; here, invariant-factor degrees."""

    __slots__ = ()

    def __new__(cls, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise BadPartition("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise BadPartition(f"partition parts must be >= 1, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise BadPartition(f"partition parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition{tuple(self)}"


class RationalNormalForm(tuple):
    """The invariant-factor chain (P_1, ..., P_r) of a similarity class.

    Factors are monic of degree >= 1 and each one divides its predecessor;
    the first factor is the minimal polynomial of the class.
    """

    __slots__ = ()

    def __new__(cls, factors: Sequence[Polynomial]):
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
        return super().__new__(cls, factors)

    @property
    def factors(self) -> tuple[Polynomial, ...]:
        return tuple(self)

    @property
    def field(self) -> Field:
        return self[0].field

    @property
    def n(self) -> int:
        return sum(f.degree for f in self)

    @property
    def minimal_polynomial(self) -> Polynomial:
        return self[0]

    def __repr__(self):
        inner = ", ".join(map(str, self))
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
    return block_diagonal([companion(f) for f in rnf])


def partition_of(rnf: RationalNormalForm) -> Partition:
    """Degrees of the invariant factors (weakly decreasing by the chain)."""
    return Partition([f.degree for f in rnf])


# ---------------------------------------------------------------------------
# The chain of a derogatory matrix: diagonalization of X*I - A over k[X].
#
# Polynomial entries are raw coefficient lists (ascending, no trailing
# zeros, zero = []).
# ---------------------------------------------------------------------------


def _char_matrix(field: Field, a) -> list[list[list]]:
    """X*I - A for a (raw rows), with polynomial entries."""
    neg, is_zero, one = field.neg, field.is_zero, field.one
    return [[[neg(e), one] if i == j else [] if is_zero(e) else [neg(e)] for j, e in enumerate(row)]
            for i, row in enumerate(a)]


def _diagonalize(field: Field, d: list[list[list]]):
    """Reduce a square polynomial matrix to diagonal form d_1 | d_2 | ...

    Returns the diagonal coefficient lists, whose degrees are those of the
    chain (they are not scaled to be monic); the input must be nonsingular
    over k(X), which holds for every characteristic matrix.  It runs only on derogatory matrices, for the degrees of their
    chain, and mirrors no row operation: the generators of T and the chain
    come from unit-vector conductors (:func:`_generators`).
    """
    ops = field.poly_ops()
    psub, pmul, pdivmod = ops.sub, ops.mul, ops.divmod
    neg_one = field.neg(field.one)
    m = len(d)

    def row_addmul(i, j, q):
        # row_i -= q * row_j
        rowi, rowj = d[i], d[j]
        for k in range(m):
            if rowj[k]:
                rowi[k] = psub(rowi[k], pmul(q, rowj[k]))

    def col_addmul(j, i, q):
        # col_j -= q * col_i
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
            _, bi, bj = best
            if bi != t:
                d[t], d[bi] = d[bi], d[t]
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
            if offender is None:
                break
            row_addmul(t, offender, [neg_one])
    return [d[t][t] for t in range(m)]


def invariant_factors(a: Matrix) -> RationalNormalForm:
    """The unique chain (P_1, ..., P_r), P_{i+1} | P_i, of the class of a:
    the certified chain of :func:`rnf_transform`."""
    if not a.is_square:
        raise NonSquare("invariant factors need a square matrix")
    return rnf_transform(a)[2]


# ---------------------------------------------------------------------------
# Conductors and the generators of T, on the Krylov engine of ``matrix``.
# ---------------------------------------------------------------------------


def _conductor(field: Field, coords: list) -> Polynomial:
    """The conductor X^d - sum of c_k*X^k of x from the coordinates c of
    A^d*x in x's own chain."""
    return Polynomial._raw(field, [field.neg(c) for c in coords] + [field.one])


def _gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic greatest common divisor of f and g, not both zero."""
    while not g.is_zero():
        f, g = g, f % g
    return f // Polynomial.constant(f.field, f.coeffs[-1])


def _lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """The least common multiple of monic f and g."""
    return f * g // _gcd(f, g)


def _apply(field: Field, op, q: Polynomial, v: list) -> list:
    """q(A)*v by Horner's rule, op the map v -> A*v."""
    add, mul = field.add, field.mul
    out = [field.zero] * len(v)
    for c in reversed(q.coeffs):
        out = [add(y, mul(c, x)) for y, x in zip(op(out), v)]
    return out


def _merge(field: Field, a, op, m: int, tried: list, degree: int) -> tuple[list, tuple] | None:
    """(x, merged): the lcm merge, in index order, of the unit vectors of
    ``tried`` until x has a conductor of the given degree; None if it
    never does.  ``tried`` holds (j, steps, made) for each e_j outside W,
    the span of m vectors: the steps that :func:`_chain` returned for e_j
    and the own steps of its chain's rows, from which its conductor f_j
    into W is read only when the merge reaches it.

    If x has conductor f = f1*f2 and y conductor g = g1*g2, f1 and g1
    coprime with f1*g1 = lcm(f, g), then f2(A)*x + g2(A)*y has conductor
    lcm(f, g); f1 is the part of f at the irreducible factors where f has
    the higher multiplicity.  ``merged`` records (j, deg f_j) for the first
    e_j and (j, deg g, deg f1, deg lcm(f, g)) for each e_j merged after it,
    which makes it a key over Q: modulo p a conductor divides the image of
    the one over Q, and the gcd and f1 are multiples of theirs, so equal
    degrees make them the images.  An e_j passed over (g | f) over Q is
    passed over modulo p, and one merged over Q but passed over modulo p
    leaves the key."""
    if not tried:
        return None
    conductors = ((j, _conductor(field, _coordinates(field, made, steps, m)))
                  for j, steps, made in tried)
    j, f = next(conductors)
    x, merged = _unit(field, a, j)[0], [(j, f.degree)]
    for j, g in conductors:
        if f.degree == degree:
            break
        lcm_fg = _lcm(f, g)
        if lcm_fg.degree == f.degree:
            continue
        u, rest_f = f // _gcd(f, g), f
        while (e := _gcd(rest_f, u)).degree:
            rest_f = rest_f // e
        f1 = f // rest_f
        y = _apply(field, op, g * f1 // lcm_fg, _unit(field, a, j)[0])
        x = [field.add(s, t) for s, t in zip(_apply(field, op, rest_f, x), y)]
        f = lcm_fg
        merged.append((j, g.degree, f1.degree, f.degree))
    return (x, tuple(merged)) if f.degree == degree else None


def _generators(field: Field, a, op, degrees: Sequence[int]) -> tuple[list[Polynomial], list[list], tuple] | None:
    """(conductors, columns, choices): the columns of T for a chain of the
    given degrees of a (raw rows, op the map v -> A*v), by the rule of the
    module docstring, the conductor f of each generator g, f(A)*g = 0, and
    the unit vectors chosen or merged.  Unit vectors in W stay in it and
    are not tried again.  None if a step fails or a conductor does not
    divide the one before it, which happens only for degrees, a partition
    of n, that are not the chain's or modulo a prime that the run over Q
    does not map to."""
    n = len(a)
    zero, dot, sub = field.zero, field.dot, field.sub
    ops = field.poly_ops()
    span = _Span(field)
    conductors, columns, blocks, choices = [], [], [], []
    inside = [False] * n
    for degree in degrees:
        m = len(span)
        tried = []
        for j in range(n):
            if inside[j]:
                continue
            iterates = _unit(field, a, j)
            steps = _chain(span, op, iterates)
            if steps is None:
                inside[j] = True
            elif len(span) - m == degree:
                choice = j
                inside[j] = True
                break
            else:
                # Only its chain length is used, unless the unit vectors merge.
                tried.append((j, steps, span.made[m:]))
                span.truncate(m)
        else:
            merge = _merge(field, a, op, m, tried, degree)
            if merge is None:
                return None
            iterates, choice = [merge[0]], merge[1]
            steps = _chain(span, op, iterates)
        # A second pass checks the generator: its relation is f(A)*g = 0.
        while True:
            if steps is None or len(span) - m != degree:
                return None
            w = _coordinates(field, span.made, steps)
            f = _conductor(field, w[m:])
            correction = [zero] * m
            for start, length in blocks:
                h = w[start:start + length]
                if any(h):
                    while not h[-1]:
                        h.pop()
                    q, r = ops.divmod(h, f.coeffs)
                    if r:
                        return None
                    correction[start:start + len(q)] = q
            if not any(correction):
                break
            g = [sub(x, dot(correction, row)) for x, row in zip(iterates[0], zip(*columns))]
            span.truncate(m)
            iterates = [g]
            steps = _chain(span, op, iterates)
        if conductors and not (conductors[-1] % f).is_zero():
            return None
        conductors.append(f)
        columns += iterates[:degree]
        blocks.append((m, degree))
        choices.append(choice)
    return conductors, columns, tuple(choices)


def _cyclic_unit(field: Field, a, op) -> tuple[Polynomial, tuple[int, list[list]] | None] | None:
    """(mu, first) for a cyclic a (raw rows, op the map v -> A*v), mu its
    minimal polynomial and first (k, [e_k, A*e_k, ..., A^(n-1)*e_k]) for
    the first unit vector e_k that is a cyclic vector, or None if no unit
    vector is; None if a is derogatory.

    The scan builds the unit-vector Krylov basis one chain at a time and
    keeps mu, the lcm of the minimal polynomials of the chain starts so
    far, which is the minimal polynomial of A on the span V of the chains.
    deg mu < dim V proves A on V, and so A, derogatory.  While V is proper,
    a unit vector in V is not cyclic, and any other is the next chain
    start; its own chain, on the iterates already taken, gives its minimal
    polynomial.  So once V is k^n, deg mu = n and A is cyclic; the unit
    vectors left are tried for a cyclic one.
    """
    n = len(a)
    span = _Span(field)
    mu = Polynomial._raw(field, [field.one])
    for k in range(n):
        iterates = _unit(field, a, k)
        if k and len(span) < n and _chain(span, op, iterates) is None:
            continue
        # e1's chain is the first chain of V; a later start takes its own.
        own = _Span(field) if k else span
        f = _conductor(field, _coordinates(field, own.made, _chain(own, op, iterates)))
        if f.degree == n:
            return f, (k, iterates[:n])
        mu = _lcm(mu, f)
        if mu.degree < len(span):
            return None
    return mu, None


def _normal_form(field: Field, a, degrees: Sequence[int] | None = None) -> tuple[list[Polynomial], list, tuple] | None:
    """(chain, columns of T, key) of a (raw rows) over a finite field, or
    None if a generator step fails.  T is the Krylov basis of the scan's
    cyclic unit vector, if it found one, else the rule's
    (:func:`_generators`), whose conductors are the chain (module
    docstring).  The rule reads only the degrees of the chain: the scan's
    for a cyclic matrix, else the given ``degrees`` if the rule succeeds
    with them, else the diagonal of :func:`_diagonalize`.  The key is the
    degrees of the chain and the unit vectors chosen or merged."""
    op = field.operator(a)
    mu, first = _cyclic_unit(field, a, op) or (None, None)
    if first is not None:
        return [mu], first[1], ((mu.degree,), (first[0],))
    if mu is not None:
        degrees = (mu.degree,)
    built = degrees and _generators(field, a, op, degrees)
    if mu is None and not built:
        degrees = [len(c) - 1 for c in reversed(_diagonalize(field, _char_matrix(field, a))) if len(c) > 1]
        built = _generators(field, a, op, degrees)
    if not built:
        return None
    factors, columns, choices = built
    return factors, columns, (tuple(degrees), choices)


def _assemble(a: Matrix, factors: list[Polynomial], columns: list[list]) -> tuple[Matrix, Matrix, RationalNormalForm]:
    """(R, T, chain) from the invariant factors, largest first, and the
    columns of T."""
    chain = RationalNormalForm(factors)
    return assemble_rnf_matrix(chain), Matrix._raw(a.field, list(zip(*columns))), chain


def rnf_transform(a: Matrix) -> tuple[Matrix, Matrix, RationalNormalForm]:
    """(R, T, chain): the normal form R of a, an invertible T with
    T^-1 * A * T = R, and the invariant factors of a.

    T has one Krylov block g, A*g, ..., A^(deg P - 1)*g per invariant
    factor P, largest first.  Its generator g is the first unit vector
    whose conductor into the span W of the blocks before it has the degree
    of P, or else the lcm merge of the unit vectors outside W, less the
    vector of W that makes P(A)*g = 0 (:func:`_generators`).  The chain is
    the conductors of the generators, of the degrees of the scan
    (:func:`_cyclic_unit`) for a cyclic matrix and of the diagonal of
    :func:`_diagonalize` for a derogatory one.  Over Q all of it runs
    modulo primes (:func:`_rational_rnf_transform`).  The result is
    certified by :func:`similarity_defect`; BasisFailure is raised if it
    fails.
    """
    if not a.is_square:
        raise NonSquare("normal-form transform needs a square matrix")
    field = a.field
    if not field.characteristic:
        return _rational_rnf_transform(a)
    found = _normal_form(field, a._rows)
    if found is None:
        raise BasisFailure("no generator of a cyclic summand by the rule")
    r_mat, t_mat, chain = _assemble(a, found[0], found[1])
    defect = similarity_defect(a, r_mat, t_mat)
    if defect is not None:
        raise BasisFailure(f"normal-form transform failed its certificate: {defect}")
    return r_mat, t_mat, chain


def _rational_krylov(ints: list[list[int]], den: int, g: list[Fraction], length: int,
                     bound: int) -> list[list[Fraction]] | None:
    """[g, A*g, ..., A^(length-1)*g] for A = ints/den over Q, ints the
    integer rows of den*A, or None at the first column with a numerator or
    denominator above bound: with g = u/e over the common denominator e of
    g, A^k*g = (ints^k*u)/(den^k*e) is computed in integers, and each
    entry becomes a Fraction once."""
    ((e, u),) = _integral([g])
    columns = [g]
    for _ in range(length - 1):
        u = [sum(map(_mul, row, u)) for row in ints]
        e *= den
        columns.append([Fraction(x, e) for x in u])
        if any(abs(x.numerator) > bound or x.denominator > bound for x in columns[-1]):
            return None
    return columns


def _rational_rnf_transform(a: Matrix) -> tuple[Matrix, Matrix, RationalNormalForm]:
    """(R, T, chain) of a matrix over Q, computed modulo primes.

    For each prime p that divides no denominator of A, :func:`_normal_form`
    on A mod p gives the chain, the generators and the key for
    ``matrix._modular_lift``, on the primes of width n, whose scans, spans
    and operators pack.  Each prime is given the degrees of the chain of
    the prime before it, so a derogatory A is diagonalized once a lift,
    and again only at a prime where the rule fails with them; a run that
    succeeds with them is the one its own diagonal would give, since the
    rule reads nothing of the chain but its degrees.  A prime with the key
    of the run over Q gives that run's images: with the same degrees, each
    determinantal divisor of X*I - A mod p is the image of the one over Q,
    which divides it, so the chain is.  Modulo p the conductor of a unit
    vector into the image of W divides the image of its conductor over Q,
    so the unit vector chosen has the conductor over Q, and a merge
    records its own degrees (:func:`_merge`); so the generators are the
    images too.  The
    chain and the generators are lifted, the rest of T is computed over
    Q in integers (:func:`_rational_krylov`), and a lift is kept only if
    every entry of T lies within the reconstruction bound, which makes it
    the lift of all of T, checked as each column is formed, and it passes
    :func:`similarity_defect`, which proves T and the chain.

    The product of the primes tried is limited to 2*n^2*b + 64*(n + 2)
    bits, b the bits of n*M*D, D the common denominator of A and M the
    largest entry of D*A: the Krylov iterates of A have entries below
    (n*M*D)^n, and 64 bits a row leave room for primes that decide
    otherwise.  It is a guard, not a proved bound (every lift of the test
    corpus needs less than half of its bits): past it BasisFailure is
    raised, so a bug ends in a refusal instead of a loop.
    """
    n = a.nrows
    den, ints = _over_one_denominator(a._rows)
    degrees = None

    def image(p):
        nonlocal degrees
        if den % p == 0:
            return None
        found = _normal_form(GF(p), _mod_rows(den, ints, p), degrees)
        if found is None:
            return None
        factors, columns, key = found
        degrees = key[0]
        starts = accumulate((f.degree for f in factors[:-1]), initial=0)
        return key, [c for f in factors for c in f.coeffs[:-1]] + [x for s in starts for x in columns[s]]

    def accept(key, values, bound):
        degrees = key[0]
        it = iter(values)
        factors = [Polynomial._raw(QQ, [next(it) for _ in range(d)] + [QQ.one]) for d in degrees]
        columns = []
        for d in degrees:
            block = _rational_krylov(ints, den, [next(it) for _ in range(n)], d, bound)
            if block is None:
                return None
            columns += block
        try:
            r_mat, t_mat, chain = _assemble(a, factors, columns)
        except ChainViolation:
            return None
        if similarity_defect(a, r_mat, t_mat) is not None:
            return None
        return r_mat, t_mat, chain

    def guard():
        top = max(1, *(abs(x) for row in ints for x in row))
        return 2 * n * n * (n * top * den).bit_length() + 64 * (n + 2)

    return _modular_lift(image, accept, guard, n)
