"""Exact arithmetic and answer checks that do not use matcanon.

Field elements are Python ints reduced modulo p for GF(p) and Fractions
for Q; every function takes the characteristic ``p`` (0 for Q) first.
Polynomials are ascending coefficient lists without trailing zeros, and
matrices are lists of rows.  The checks take a job's parsed JSON report
and return a list of problems, empty when the answer is right.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# A rational matrix whose reduction modulo this prime is invertible is
# invertible over Q; otherwise the exact determinant decides.
_CHECK_PRIME = (1 << 61) - 1


def canon(p, x):
    if p:
        return int(x) % p
    return Fraction(x)


def parse(p, text: str):
    if p:
        return int(text) % p
    return Fraction(text)


def inv(p, x):
    if p:
        if x % p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, p - 2, p)
    return 1 / x


# -- polynomials -------------------------------------------------------


def _strip(c, p):
    while c and (c[-1] % p == 0 if p else not c[-1]):
        c.pop()
    return c


def poly_mul(p, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _strip([canon(p, c) for c in out], p)


def poly_divmod(p, f, g):
    r = [canon(p, c) for c in f]
    ilead = inv(p, g[-1])
    dg = len(g) - 1
    q = [canon(p, 0)] * max(len(r) - dg, 0)
    for k in range(len(r) - 1, dg - 1, -1):
        c = canon(p, r[k] * ilead)
        q[k - dg] = c
        if c:
            for j, b in enumerate(g):
                r[k - dg + j] = canon(p, r[k - dg + j] - c * b)
    return _strip(q, p), _strip(r[:dg], p)


def product(p, polys):
    acc = [canon(p, 1)]
    for f in polys:
        acc = poly_mul(p, acc, f)
    return acc


# -- matrices ------------------------------------------------------------


def identity(p, n):
    one, zero = canon(p, 1), canon(p, 0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(p, a, b):
    cols = list(zip(*b))
    return [[canon(p, sum(x * y for x, y in zip(row, col))) for col in cols] for row in a]


def block_diag(p, blocks):
    n = sum(len(b) for b in blocks)
    out = [[canon(p, 0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def companion(p, f):
    """Ones on the subdiagonal, last column the negated low coefficients."""
    d = len(f) - 1
    c = [[canon(p, 0)] * d for _ in range(d)]
    for i in range(d - 1):
        c[i + 1][i] = canon(p, 1)
    for i in range(d):
        c[i][d - 1] = canon(p, -f[i])
    return c


def det(p, a):
    """Determinant by elimination over the field."""
    m = [list(row) for row in a]
    n = len(m)
    d = canon(p, 1)
    for c in range(n):
        r = next((i for i in range(c, n) if m[i][c]), None)
        if r is None:
            return canon(p, 0)
        if r != c:
            m[c], m[r] = m[r], m[c]
            d = canon(p, -d)
        piv = m[c][c]
        d = canon(p, d * piv)
        ip = inv(p, piv)
        for i in range(c + 1, n):
            if m[i][c]:
                f = canon(p, m[i][c] * ip)
                m[i] = [canon(p, x - f * y) for x, y in zip(m[i], m[c])]
    return d


def inverse(p, a):
    n = len(a)
    one, zero = canon(p, 1), canon(p, 0)
    m = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        r = next(i for i in range(c, n) if m[i][c])
        m[c], m[r] = m[r], m[c]
        ip = inv(p, m[c][c])
        m[c] = [canon(p, x * ip) for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [canon(p, x - f * y) for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def is_invertible(p, a) -> bool:
    if p:
        return det(p, a) != 0
    q = _CHECK_PRIME
    try:
        reduced = [[x.numerator * pow(x.denominator, -1, q) % q for x in row] for row in a]
    except ValueError:
        reduced = None
    if reduced is not None and det(q, reduced):
        return True
    return det(0, a) != 0


def charpoly(p, a):
    """det(X*I - A) via reduction to upper Hessenberg form."""
    n = len(a)
    h = [[canon(p, x) for x in row] for row in a]
    for c in range(n - 2):
        r = next((i for i in range(c + 1, n) if h[i][c]), None)
        if r is None:
            continue
        if r != c + 1:
            h[c + 1], h[r] = h[r], h[c + 1]
            for row in h:
                row[c + 1], row[r] = row[r], row[c + 1]
        ip = inv(p, h[c + 1][c])
        for i in range(c + 2, n):
            if h[i][c]:
                f = canon(p, h[i][c] * ip)
                h[i] = [canon(p, x - f * y) for x, y in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] = canon(p, row[c + 1] + f * row[i])
    # chars[k] = charpoly of the leading k x k block.
    chars = [[canon(p, 1)]]
    for k in range(1, n + 1):
        acc = poly_mul(p, [canon(p, -h[k - 1][k - 1]), canon(p, 1)], chars[k - 1])
        t = canon(p, 1)
        for i in range(k - 1, 0, -1):
            t = canon(p, t * h[i][i - 1])
            coef = canon(p, t * h[i - 1][k - 1])
            if coef:
                term = [canon(p, -coef * c) for c in chars[i - 1]]
                acc = _strip([canon(p, x + y) for x, y in _zip_pad(p, acc, term)], p)
        chars.append(acc)
    return chars[n]


def _zip_pad(p, f, g):
    zero = canon(p, 0)
    n = max(len(f), len(g))
    return zip(list(f) + [zero] * (n - len(f)), list(g) + [zero] * (n - len(g)))


def poly_at_matrix_is_zero(p, f, a) -> bool:
    """f(A) == 0, by Horner on A applied to each standard basis vector."""
    n = len(a)
    zero = canon(p, 0)
    for j in range(n):
        v = [zero] * n
        for c in reversed(f):
            v = [canon(p, sum(x * y for x, y in zip(row, v))) for row in a]
            v[j] = canon(p, v[j] + c)
        if any(v):
            return False
    return True


# -- answer checks -------------------------------------------------------


def _matrix(p, rows):
    return [[parse(p, x) for x in row] for row in rows]


def _chain(p, lists):
    return [[parse(p, x) for x in f] for f in lists]


def check_chain(p, a, chain, expected) -> list[str]:
    """The reported invariant-factor chain of A against an oracle."""
    problems = []
    if any(not f or f[-1] != 1 or len(f) < 2 for f in chain):
        problems.append("chain has a non-monic or constant factor")
        return problems
    if expected is not None:
        if chain != expected:
            problems.append("chain differs from the chain the class was built from")
        return problems
    for f, g in zip(chain, chain[1:]):
        if poly_divmod(p, f, g)[1]:
            problems.append("chain is not a divisibility chain")
    if product(p, chain) != charpoly(p, a):
        problems.append("product of the chain is not det(X*I - A)")
    if not poly_at_matrix_is_zero(p, chain[0], a):
        problems.append("P_1(A) != 0")
    return problems


def check_transform(p, a, r, t) -> list[str]:
    if not is_invertible(p, t):
        return ["transform is singular"]
    if mat_mul(p, a, t) != mat_mul(p, t, r):
        return ["A*T != T*R"]
    return []


def rnf_matrix(p, chain):
    return block_diag(p, [companion(p, f) for f in chain])


def affine_qs(p, chain):
    """Quotients of consecutive distinct factors, closed off with the last."""
    qs = [poly_divmod(p, f, g)[0] for f, g in zip(chain, chain[1:]) if len(f) != len(g)]
    qs.append(chain[-1])
    return qs


def affine_matrix(p, chain):
    """The affine-family point: block i is C(Q_k, ..., Q_s) where k counts
    the descents of the degree sequence before factor i."""
    qs = affine_qs(p, chain)
    blocks = []
    k = 0
    for i, f in enumerate(chain):
        if i and len(chain[i - 1]) != len(f):
            k += 1
        comp = block_diag(p, [companion(p, q) for q in qs[k:]])
        off = 0
        for q in qs[k:-1]:
            off += len(q) - 1
            comp[off][off - 1] = canon(p, 1)
        blocks.append(comp)
    return block_diag(p, blocks)


def check_rnf(p, a, expected, out, verify: bool) -> list[str]:
    chain = _chain(p, out["invariant_factors"])
    problems = check_chain(p, a, chain, expected)
    if out["partition"] != [len(f) - 1 for f in chain]:
        problems.append("partition does not match the chain degrees")
    r = _matrix(p, out["rnf_matrix"])
    if r != rnf_matrix(p, chain):
        problems.append("R is not the block companion of the chain")
    problems += check_transform(p, a, r, _matrix(p, out["transform"]))
    if verify and out.get("verified") is not True:
        problems.append("rnf --verify did not report verified")
    return problems


def check_normal_form(p, a, expected, out, family: str) -> list[str]:
    if family == "rational":
        chain = _chain(p, out["invariant_factors"])
        problems = check_chain(p, a, chain, expected)
        if _matrix(p, out["matrix"]) != rnf_matrix(p, chain):
            problems.append("matrix is not the block companion of the chain")
        if out["partition"] != [len(f) - 1 for f in chain]:
            problems.append("partition does not match the chain degrees")
        return problems
    return check_affine(p, a, expected, out)


def check_affine(p, a, expected, out) -> list[str]:
    # The affine point is similar to A, so its chain is A's chain; the
    # quotients and the realized matrix then follow from that chain.
    qs = _chain(p, out["qs"])
    m = _matrix(p, out["matrix"])
    chain = expected
    if chain is None:
        parts = out["partition"]
        chain = _chain_from_qs(p, parts, qs)
        problems = check_chain(p, a, chain, None)
    else:
        problems = []
    if out["partition"] != [len(f) - 1 for f in chain]:
        problems.append("partition does not match the chain degrees")
    if qs != affine_qs(p, chain):
        problems.append("family coordinates differ from the chain quotients")
    if m != affine_matrix(p, chain):
        problems.append("family matrix differs from its definition")
    return problems


def _chain_from_qs(p, parts, qs):
    chain = []
    k = 0
    for i, d in enumerate(parts):
        if i and parts[i - 1] != d:
            k += 1
        chain.append(product(p, qs[k:]))
    return chain


def triple(p, a, b):
    """(det A, tr AB, det B) of a 2x2 pair."""
    ab = mat_mul(p, a, b)
    return [
        canon(p, a[0][0] * a[1][1] - a[0][1] * a[1][0]),
        canon(p, ab[0][0] + ab[1][1]),
        canon(p, b[0][0] * b[1][1] - b[0][1] * b[1][0]),
    ]


def sqrt_roots(p, x):
    """Square roots of x, canonical first: smallest residue, or positive."""
    if p:
        roots = sorted({r for r in range(p) if r * r % p == x % p})
        return roots
    if x < 0:
        return []
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return []
    r = Fraction(rn, rd)
    return [r, -r] if r else [r]


def fiber(p, x1, x2, x3):
    """Sorted Q-form points over (x1, x2, x3) as (a11, b11, b21)."""
    pts = [
        (a11, b11, canon(p, x2 - 2 * a11 * b11))
        for a11 in sqrt_roots(p, canon(p, -x1))
        for b11 in sqrt_roots(p, canon(p, -x3))
    ]
    return sorted(pts, key=lambda q: (q[0], q[1]))


def _strs(values):
    return [str(v) for v in values]


def check_invariants(p, a, b, out) -> list[str]:
    y = triple(p, a, b)
    g = canon(p, y[0] * y[2] * (y[1] * y[1] - 4 * y[0] * y[2]))
    problems = []
    if out["triple"] != _strs(y):
        problems.append("invariant triple is wrong")
    if out["g_value"] != str(g) or out["in_y"] != bool(g):
        problems.append("g value is wrong")
    return problems


def check_fiber(p, x, out) -> list[str]:
    want = fiber(p, *x)
    got = [(parse(p, q["a11"]), parse(p, q["b11"]), parse(p, q["b21"])) for q in out["fiber"]]
    if got != want or out["count"] != len(want):
        return ["fibre points are wrong"]
    return []


def check_reduce(p, a, b, out) -> list[str]:
    y = triple(p, a, b)
    q = out["q_form"]
    a11, b11, b21 = parse(p, q["a11"]), parse(p, q["b11"]), parse(p, q["b21"])
    problems = []
    if out["triple"] != _strs(y):
        problems.append("invariant triple is wrong")
    if (a11, b11) != (sqrt_roots(p, canon(p, -y[0]))[0], sqrt_roots(p, canon(p, -y[2]))[0]):
        problems.append("reduction left the canonical square-root sheet")
    g = _matrix(p, out["transform"])
    if not is_invertible(p, g):
        problems.append("reduction transform is singular")
        return problems
    zero, one = canon(p, 0), canon(p, 1)
    qa = [[a11, one], [zero, canon(p, -a11)]]
    qb = [[b11, zero], [b21, canon(p, -b11)]]
    if mat_mul(p, a, g) != mat_mul(p, g, qa) or mat_mul(p, b, g) != mat_mul(p, g, qb):
        problems.append("g^-1 * pair * g is not the reported Q-form")
    return problems


def check_hom(out, expected: int) -> list[str]:
    if out["hom_dimension"] != expected:
        return [f"hom dimension {out['hom_dimension']} != {expected}"]
    return []


def check_split(p, m1, m2, tail_triple, out) -> list[str]:
    problems = []
    if out.get("t_invariants") != _strs(tail_triple):
        problems.append("tail invariants differ from the split-off pair's")
    h = _matrix(p, out["transform"])
    if not is_invertible(p, h):
        return problems + ["split transform is singular"]
    n = len(m1)
    t1, t2 = _matrix(p, out["t1"]), _matrix(p, out["t2"])
    s1, s2 = simple_pair(p, n - 2)
    for mi, si, ti in ((m1, s1, t1), (m2, s2, t2)):
        if mat_mul(p, mi, h) != mat_mul(p, h, block_diag(p, [si, ti])):
            problems.append("h does not split the pair into S (+) tail")
            break
    return problems


def simple_pair(p, m):
    """diag(1, ..., m) and the cyclic permutation e_i -> e_{i+1}."""
    zero, one = canon(p, 0), canon(p, 1)
    s1 = [[canon(p, i + 1) if i == j else zero for j in range(m)] for i in range(m)]
    s2 = [[zero] * m for _ in range(m)]
    for i in range(m):
        s2[(i + 1) % m][i] = one
    return s1, s2
