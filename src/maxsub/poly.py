"""Polynomials over Q and F_p, as dense lists of ascending coefficients.

The arithmetic runs on native ints or Fractions and reduces mod p once per
result.  Roots over F_p come from gcd(f, x^p - x), split by
Cantor-Zassenhaus; over Q from the integer roots of a monic transform,
found modulo a small prime and Hensel-lifted.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    InvalidInputError,
    NotFiniteFieldError,
    VerificationFailedError,
)
from .linalg import QQ, Field, _is_prime, _modp, combine, vec_sub


def trim(p: list) -> list:
    """Drop trailing zero coefficients, in place."""
    while p and p[-1] == 0:
        p.pop()
    return p


def quo_rem(num: list, den: list, field: Field) -> tuple[list, list]:
    """(quotient, remainder); the remainder is reduced once, at the end."""
    p = field.p
    num = list(num)
    q = [field.zero()] * max(0, len(num) - len(den) + 1)
    inv = field.inv(den[-1])
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv
        if p is not None:
            c %= p
        q[i] = c
        if c != 0:
            for k, d in enumerate(den):
                num[i + k] -= c * d
    return trim(q), trim(_modp(num, p))


def mul(a: list, b: list, field: Field) -> list:
    """a·b, as the combination Σ aᵢ·xⁱb of the shifted copies of b."""
    if not a or not b:
        return []
    pad = [0] * (len(a) - 1)
    return combine(a, [pad[:i] + list(b) + pad[i:] for i in range(len(a))],
                   field)


def sub(a: list, b: list, field: Field) -> list:
    """a - b, trimmed."""
    pad = [field.zero()] * max(len(a), len(b))
    return trim(vec_sub(list(a) + pad[len(a):], list(b) + pad[len(b):], field))


def ext_gcd(a: list, b: list, field: Field) -> tuple[list, list, list]:
    """(g, s, t) with s*a + t*b = g, g monic when nonzero."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = quo_rem(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, field), field)
        t0, t1 = t1, sub(t0, mul(q, t1, field), field)
    if r0:
        lead = [field.inv(r0[-1])]
        r0, s0, t0 = (combine(lead, [v], field) for v in (r0, s0, t0))
    return r0, s0, t0


def pow_mod(base: list, e: int, mod: list, f: Field) -> list:
    """base^e modulo mod, by repeated squaring."""
    out = [f.one()]
    base = quo_rem(base, mod, f)[1]
    while e:
        if e & 1:
            out = quo_rem(mul(out, base, f), mod, f)[1]
        base = quo_rem(mul(base, base, f), mod, f)[1]
        e >>= 1
    return out


def evaluate(poly: Sequence, x, field: Field):
    """poly(x) by Horner's rule, reduced mod p once at the end."""
    acc = field.zero()
    for c in reversed(list(poly)):
        acc = acc * x + c
    return acc if field.p is None else acc % field.p


# ---------------------------------------------------------------------------
# roots in the base field

def roots(poly: Sequence, field: Field) -> list:
    """All roots in the base field, found exactly, each as often as its
    multiplicity; over F_p in ascending order, over Q 0 first and then by
    (|numerator|, denominator), + before -."""
    f = field
    poly = trim(list(poly))
    if len(poly) <= 1:
        return []
    if not f.is_finite:
        return _rational_roots(poly)
    roots = []
    work = poly
    for c in sorted(distinct_roots_mod_p(poly, f)):
        while len(work) > 1 and evaluate(work, c, f) == 0:
            roots.append(c)
            work, rem = quo_rem(work, [-c % f.p, 1], f)
            assert not rem
    return roots


def distinct_roots_mod_p(poly: list, f: Field) -> list[int]:
    """The distinct roots of poly in F_p: the linear part gcd(poly, x^p - x),
    split by equal-degree factorization (Cantor-Zassenhaus)."""
    if f.p == 2:
        return [c for c in (0, 1) if evaluate(poly, c, f) == 0]
    x = [0, 1]
    xp = pow_mod(x, f.p, poly, f)
    g, _, _ = ext_gcd(poly, sub(xp, x, f), f)
    return _split_linear(g, f)


def _split_linear(g: list, f: Field) -> list[int]:
    """Roots of a monic, squarefree product of distinct linear factors over
    F_p (p odd), split by gcd((x + a)^((p-1)/2) - 1, g) for a = 0, 1, ..."""
    if len(g) <= 2:
        return [-g[0] % f.p] if len(g) == 2 else []
    for a in range(f.p):
        half = pow_mod([a, 1], (f.p - 1) // 2, g, f)
        h, _, _ = ext_gcd(g, sub(half, [1], f), f)
        if 1 < len(h) < len(g):
            return (_split_linear(h, f)
                    + _split_linear(quo_rem(g, h, f)[0], f))
    raise VerificationFailedError("equal-degree splitting found no split")


def _rational_roots(poly: list) -> list:
    """Rational roots with multiplicity, 0 first and then by (|numerator|,
    denominator), + before -.  The distinct nonzero roots are those of the
    squarefree part s of the integer-cleared polynomial, found as y/c for
    the integer roots y of the monic h(y) = c^(d-1)·s(y/c), where c is the
    leading coefficient and d the degree of s.  Each root a/b is then
    divided out as the integer factor b·x - a as often as it divides."""
    denlcm = math.lcm(1, *(c.denominator for c in poly))
    work = [int(c * denlcm) for c in poly]
    zeros = next(i for i, c in enumerate(work) if c != 0)
    roots = [Fraction(0)] * zeros
    work = work[zeros:]
    if len(work) == 1:
        return roots
    if len(work) == 2:
        return roots + [Fraction(-work[0], work[1])]
    g = [Fraction(c) for c in work]
    sq, _, _ = ext_gcd(g, [i * c for i, c in enumerate(g)][1:], QQ)
    s = quo_rem(g, sq, QQ)[0]
    den = math.lcm(1, *(c.denominator for c in s))
    s = [int(c * den) for c in s]
    content = math.gcd(*s)
    s = [c // content for c in s]
    d, lead = len(s) - 1, s[-1]
    h = [c * lead ** (d - 1 - i) for i, c in enumerate(s[:-1])] + [1]
    found = sorted((Fraction(y, lead) for y in _integer_roots(h)),
                   key=lambda c: (abs(c.numerator), c.denominator, c < 0))
    for c in found:
        a, b = c.numerator, c.denominator
        while len(work) > 1 and _int_homogeneous_eval(work, a, b) == 0:
            roots.append(c)
            work = _int_div_linear(work, a, b)
    return roots


def _integer_roots(h: list[int]) -> list[int]:
    """The integer roots of a monic squarefree h in Z[x] with h(0) != 0.

    They are found modulo the least odd prime p that keeps h squarefree,
    by `distinct_roots_mod_p`, and Hensel-lifted by Newton steps modulo
    p^(2^k) > 2·|h(0)|; every integer root divides h(0), so it is the
    symmetric residue of its lift, checked exactly."""
    dh = [i * c for i, c in enumerate(h)][1:]
    p = 3
    while True:
        if _is_prime(p):
            f = Field(p)
            hp = [c % p for c in h]
            dp = trim([c % p for c in dh])
            if len(ext_gcd(hp, dp, f)[0]) == 1:
                break
        p += 2
    roots = distinct_roots_mod_p(hp, f)
    mod = p
    while mod <= 2 * abs(h[0]):
        mod *= mod
        roots = [(r - _int_homogeneous_eval(h, r, 1)
                  * pow(_int_homogeneous_eval(dh, r, 1), -1, mod)) % mod
                 for r in roots]
    out = []
    for r in roots:
        y = r - mod if 2 * r > mod else r
        if _int_homogeneous_eval(h, y, 1) == 0:
            out.append(y)
    return out


def _int_homogeneous_eval(poly: list[int], a: int, b: int) -> int:
    """Σ c_i a^i b^(d-i): b^d times the value of poly at a/b."""
    acc = poly[-1]
    bp = 1
    for c in reversed(poly[:-1]):
        bp *= b
        acc = acc * a + c * bp
    return acc


def _int_div_linear(poly: list[int], a: int, b: int) -> list[int]:
    """poly / (b·x - a) for a root a/b in lowest terms; exact in Z[x] by
    Gauss's lemma."""
    q = [0] * (len(poly) - 1)
    carry = 0
    for i in range(len(poly) - 1, 0, -1):
        carry, rem = divmod(poly[i] + a * carry, b)
        assert rem == 0
        q[i - 1] = carry
    assert poly[0] + a * carry == 0
    return q


# ---------------------------------------------------------------------------
# irreducible polynomials over F_p

def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def irreducible(d: int, field: Field) -> list:
    """The first monic irreducible polynomial of degree d >= 2 over F_p
    (ascending) in the order of its coefficient tuples.

    Rabin's test (SIAM J. Comput. 1980): f is irreducible iff
    x^(p^d) ≡ x mod f and gcd(f, x^(p^(d/r)) - x) = 1 for each prime r | d.
    A root in F_p rules f out first; for prime d that settles r = d."""
    if not field.is_finite:
        raise NotFiniteFieldError("irreducible polynomials are found over F_p")
    if d < 2:
        raise InvalidInputError("irreducible polynomials need degree >= 2")
    p = field.p
    x = [field.zero(), field.one()]
    for tail in itertools.product(range(p), repeat=d):
        poly = [field.coerce(c) for c in tail] + [field.one()]
        if any(evaluate(poly, field.coerce(c), field) == 0 for c in range(p)):
            continue
        if sub(pow_mod(x, p ** d, poly, field), x, field):
            continue
        if all(len(ext_gcd(poly, sub(pow_mod(x, p ** (d // r), poly, field),
                                     x, field), field)[0]) == 1
               for r in prime_divisors(d) if r < d):
            return poly
    raise VerificationFailedError(f"no irreducible polynomial of degree {d}")
