"""Sparse exact polynomial arithmetic in the six model variables.

Polynomials live in Q[x, y, u, v, a, b].  A polynomial is a mapping from
monomials to nonzero coefficients; the zero polynomial is the empty mapping.
A coefficient is a Python int when it is integral and a Fraction with
denominator > 1 otherwise, so polynomials with integer coefficients, which
is nearly all of them here, never pay for Fraction normalisation.  The
monomial order is lexicographic with x > y > u > v > a > b, so "leading
term" below always means the max exponent tuple.  Substitution takes one
pass: each group of terms with one power of the replaced variable is
multiplied by that power of the replacement into one dict.

Packed monomials.  The public surface speaks exponent tuples
``(ex, ey, eu, ev, ea, eb)``: the constructor, terms(), degree(),
variables() and pickling.  Inside, each monomial is one int key: every
variable owns a FIELD-bit field, x the highest, so x**ex y**ey ... b**eb is
ex << 5 FIELD | ey << 4 FIELD | ... | eb.  Every exponent a polynomial holds
is below EXP_CAP = 2**(FIELD - 1), which leaves each field's top bit, its
guard bit, clear.  Then:

- int order is the lex order of the exponent tuples, so a leading term has
  the max key and terms() sorts keys;
- a product's key is the sum of its factors' keys.  Each field of the sum
  is below 2 EXP_CAP = 2**FIELD, so no field carries into the next, and the
  sum's guard bits are set exactly where an exponent reached the cap;
- a quotient's key is the difference.  Where an exponent of the divisor
  exceeds the dividend's, the lowest such field borrows and reads more than
  2**FIELD - EXP_CAP = EXP_CAP, so its guard bit is set, or, when that field
  is x's, the difference is negative.  Either way the quotient is refused.

Quotients are thus checked term by term, and sums once per public
operation: a product reads its guard bits once it is complete (_capped);
a substitution and a resultant bound the degrees they will reach from their
arguments before they start.  Reaching the cap raises OverflowError, and the
constructor refuses an exponent at the cap with ValueError.

The resultant runs in an integer kernel on term dicts ``{key: int}``, by the
subresultant polynomial remainder sequence: both arguments are cleared to
integers once, split into coefficient lists in the eliminated variable,
pseudo-divided on ints, and the result is scaled back once at the end.
Every division in the sequence is exact and takes quotient coefficients
with divmod, so a nonzero remainder is an error, never a rounding.  Dense
univariate helpers over Z (primitive parts, pseudo-remainders, gcds, exact
division) serve the root layer, and a parameter polynomial compiled to an
integer term list binds rational parameters on integers alone, in two
stages: u, a and b, then v.  Each stage is straight-line integer code
generated from the polynomial's terms when the term list is compiled, so
binding interprets no term.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import or_

from .rational import coerce_rational

VARS: tuple[str, ...] = ("x", "y", "u", "v", "a", "b")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
# Within a printed monomial, factors appear alphabetically: a b u v x y.
_PRINT_ORDER = tuple(sorted(range(len(VARS)), key=lambda i: VARS[i]))

# 10 bits keep a key within 60 bits, two digits of a CPython int; 15 bits
# (three digits) ran the projection resultants 3-5% slower
FIELD = 10  # bits per exponent in a packed monomial
EXP_CAP = 1 << (FIELD - 1)  # every exponent is below this: 512
_MASK = (1 << FIELD) - 1
_SHIFTS = tuple(FIELD * (len(VARS) - 1 - i) for i in range(len(VARS)))  # x's field highest
_GUARD = sum(EXP_CAP << s for s in _SHIFTS)  # the top bit of every field

NEG_INF = float("-inf")

Coeff = int | Fraction  # an int when integral, else a Fraction with denominator > 1


def _check_var(name: str) -> int:
    if name not in _VAR_INDEX:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARS}")
    return _VAR_INDEX[name]


def _coeff(value) -> Coeff:
    """An exact scalar in coefficient form; floats are rejected."""
    if type(value) is int:
        return value
    c = coerce_rational(value)
    return c.numerator if c.denominator == 1 else c


def _unpack(key: int) -> tuple[int, ...]:
    return tuple([key >> s & _MASK for s in _SHIFTS])


def _degrees(terms: dict) -> list[int]:
    """Each variable's degree over a nonempty collection of keys, in VARS order."""
    return [max([key >> s & _MASK for key in terms]) for s in _SHIFTS]


def _fold(used: int) -> int:
    """The OR of a key's six fields, folded onto the lowest by three shifts.

    For the OR of a term dict's keys it has the bit length of the highest
    exponent there, so it bounds that exponent from above, by less than 2x.
    """
    used |= used >> 3 * FIELD
    return (used | used >> FIELD | used >> 2 * FIELD) & _MASK


def _canon(terms: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints."""
    return {key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for key, c in terms.items() if c}


def _capped(terms: dict) -> "MPoly":
    """terms as an MPoly; OverflowError where a guard bit shows an exponent at the cap.

    Each key of terms is a carry-free sum of keys below the cap.
    """
    if terms and reduce(or_, terms) & _GUARD:
        raise OverflowError(f"an exponent reached the cap {EXP_CAP}")
    return _raw(terms)


def _mul_into(out: dict, f: dict, g: dict) -> dict:
    """Add the product of the term dicts f and g into out; zeros stay in out."""
    get = out.get
    g = g.items()
    for k1, c1 in f.items():
        for k2, c2 in g:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return out


class MPoly:
    """Immutable sparse polynomial over Q in the variables x, y, u, v, a, b.

    Terms are keyed by packed monomials (the module docstring): FIELD bits
    per variable, and every exponent below EXP_CAP.  A product, power,
    substitution or resultant that could reach the cap raises OverflowError
    rather than carry into the next variable's field.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], object] | None = None):
        """terms maps exponent tuples, six ints in [0, EXP_CAP), to exact coefficients."""
        clean: dict[int, Coeff] = {}
        if terms:
            for exp, coeff in terms.items():
                if (type(exp) is not tuple or len(exp) != len(VARS)
                        or any(type(e) is not int or not 0 <= e < EXP_CAP for e in exp)):
                    raise ValueError(f"an exponent tuple holds {len(VARS)} non-negative ints "
                                     f"below {EXP_CAP}, not {exp!r}")
                c = _coeff(coeff)
                if c:
                    ex, ey, eu, ev, ea, eb = exp
                    clean[((((ex << FIELD | ey) << FIELD | eu) << FIELD | ev) << FIELD | ea)
                          << FIELD | eb] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    def __reduce__(self):
        # pickle and copy would restore _terms through __setattr__; the
        # payload keeps exponent tuples, so it does not depend on FIELD
        return MPoly, ({_unpack(key): c for key, c in self._terms.items()},)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "MPoly":
        c = _coeff(c)
        return _raw({0: c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        i = _check_var(name)
        exp = [0] * len(VARS)
        exp[i] = 1
        return cls({tuple(exp): 1})

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial; error if any variable remains."""
        if not self._terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self._terms[0])
        raise ValueError(f"not a constant polynomial: {self}")

    def terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Terms in descending monomial order (canonical), keyed by exponent tuples."""
        return [(_unpack(key), self._terms[key]) for key in sorted(self._terms, reverse=True)]

    def variables(self) -> set[str]:
        used = reduce(or_, self._terms, 0)  # a field is nonzero where some term has it
        return {VARS[i] for i, s in enumerate(_SHIFTS) if used >> s & _MASK}

    def degree(self, name: str):
        """Degree in one variable; the zero polynomial has degree -inf."""
        s = _SHIFTS[_check_var(name)]
        if not self._terms:
            return NEG_INF
        return max([key >> s & _MASK for key in self._terms])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return _raw(_canon(out))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "MPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return _raw(_canon({key: k * c for key, k in self._terms.items()}))
        if not isinstance(other, MPoly):
            return NotImplemented
        # deg(f g) = deg f + deg g in each variable, and the product's guard
        # bits show exactly where that sum reaches the cap
        return _capped(_canon(_mul_into({}, self._terms, other._terms)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not n:
            return ONE
        # square and multiply from the base, n's bits from the top; each
        # product is checked before the next reads it, so none carries
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self.is_constant():  # equal to its value, so hashed as its value
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # -- calculus and substitution ----------------------------------------

    def derivative(self, name: str) -> "MPoly":
        s = _SHIFTS[_check_var(name)]
        one = 1 << s
        out: dict[int, Coeff] = {}
        for key, c in self._terms.items():
            e = key >> s & _MASK
            if e:
                out[key - one] = c * e
        return _raw(_canon(out))

    def evaluate(self, binding: Mapping[str, object]) -> "MPoly":
        """Substitute exact rational values for a subset of the variables."""
        shift_vals = [(_SHIFTS[_check_var(name)], _coeff(val)) for name, val in binding.items()]
        out: dict[int, Coeff] = {}
        for key, c in self._terms.items():
            for s, val in shift_vals:
                e = key >> s & _MASK
                if e:
                    c = c * val ** e
                    key -= e << s
            out[key] = out.get(key, 0) + c
        return _raw(_canon(out))

    def substitute(self, name: str, replacement: "MPoly") -> "MPoly":
        """Replace a variable by a polynomial (composition), exactly, in one pass.

        The terms are grouped by their power e of the variable; each group times
        the replacement's e-th power is added into one dict, canonicalised once.

        Overflow: with top the highest e, the replacement's powers reach
        degree top * deg r in each variable, which is checked against the cap
        before any is formed.  Then every group's keys and every power's lie
        below the cap, each sum of a pair is carry-free, and the result's
        guard bits show where an exponent of the composition reached the cap.
        """
        s = _SHIFTS[_check_var(name)]
        if not isinstance(replacement, MPoly):
            replacement = MPoly.constant(replacement)
        groups: dict[int, dict] = {}
        for key, c in self._terms.items():
            e = key >> s & _MASK
            groups.setdefault(e, {})[key - (e << s)] = c
        top = max(groups, default=0)
        if not top:
            return self
        r = replacement._terms
        if top * _fold(reduce(or_, r, 0)) >= EXP_CAP and top * max(_degrees(r)) >= EXP_CAP:
            raise OverflowError(f"a power of the replacement reaches the cap {EXP_CAP}")
        out, power = groups.pop(0, {}), _INT_ONE
        for e in range(1, top + 1):
            power = _int_power(r, 1, power)  # the replacement's e-th power
            if e in groups:
                _mul_into(out, groups[e], power)
        return _capped(_canon(out))

    # -- text form ---------------------------------------------------------

    def to_str(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp, c in self.terms():
            factors: list[str] = []
            for i in _PRINT_ORDER:
                e = exp[i]
                if e == 1:
                    factors.append(VARS[i])
                elif e > 1:
                    factors.append(f"{VARS[i]}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_str

    def __repr__(self) -> str:
        return f"MPoly({self.to_str()!r})"


def _raw(terms: dict[int, Coeff]) -> MPoly:
    """Build an MPoly from an already-normalized packed term dict (no copying checks)."""
    p = MPoly.__new__(MPoly)
    object.__setattr__(p, "_terms", terms)
    return p


def _coerce_poly(value):
    if isinstance(value, MPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MPoly.constant(value)
    return NotImplemented


# Generators, for building polynomials as expressions.
X, Y, U, V, A, B = (MPoly.var(name) for name in VARS)
ONE = MPoly.constant(1)


# -- integer kernel --------------------------------------------------------
#
# Polynomials over Z as term dicts {packed key: int} without zeros.  The
# resultant clears denominators on the way in, computes on ints alone, and
# scales back once on the way out.  Products and quotients by 1 are skipped,
# so a helper may return an argument and none mutates its input.  No helper
# checks a sum of keys: the resultant, their one public caller, bounds the
# degrees they reach before it starts.

_INT_ONE = {0: 1}


def _denominator_lcm(p: MPoly) -> int:
    return lcm(*[c.denominator for c in p._terms.values()])


def _int_terms(p: MPoly, mult: int) -> dict:
    """The term dict of mult * p, for a multiple mult of p's denominators."""
    if mult == 1:
        return p._terms
    return {key: c.numerator * (mult // c.denominator) for key, c in p._terms.items()}


def _scaled(terms: dict, scale: Fraction) -> MPoly:
    """The MPoly scale * terms, from an integer term dict."""
    if scale == 1:
        return _raw(terms)
    return _raw(_canon({key: c * scale for key, c in terms.items()}))


def _int_divide(f: dict, g: dict) -> dict:
    """f / g on integer term dicts; ValueError("not divisible") unless exact.

    Long division by leading terms, taken from a heap of negated keys (a
    cancelled term's entry is skipped; new terms lie below the leading one).
    A quotient term's key is the difference of two keys, refused when it is
    negative or a guard bit is set (the module docstring), and each key added
    back is that difference plus a key of g, carry-free.  Over Z every
    quotient coefficient must come out of divmod with no remainder, which
    holds whenever g divides f over Q and g is primitive (Gauss's lemma), or
    f is an exact multiple of g over Z.  Dividing by 1 returns f itself.
    """
    if g == _INT_ONE:
        return f
    lead_key = max(g)
    lead = g[lead_key]
    tail = [(key, c) for key, c in g.items() if key != lead_key]
    quot: dict[int, int] = {}
    if not tail:  # a monomial cancels no term, so each is divided alone
        for key, c in f.items():
            t, r = divmod(c, lead)
            d = key - lead_key
            if r or d < 0 or d & _GUARD:
                raise ValueError("not divisible")
            quot[d] = t
        return quot
    rest = dict(f)
    heap = [-key for key in rest]
    heapify(heap)
    while rest:
        top = -heappop(heap)
        if top not in rest:
            continue
        t, r = divmod(rest.pop(top), lead)
        d = top - lead_key
        if r or d < 0 or d & _GUARD:
            raise ValueError("not divisible")
        quot[d] = t
        for k2, c in tail:
            key = d + k2
            s = rest.get(key)
            if s is None:
                rest[key] = -t * c
                heappush(heap, -key)
            else:
                s -= t * c
                if s:
                    rest[key] = s
                else:
                    del rest[key]
    return quot


# -- resultants ------------------------------------------------------------

def _int_power(f: dict, k: int, times: dict = _INT_ONE) -> dict:
    """times * f**k on term dicts, zeros dropped; it may return f or times itself."""
    if f == _INT_ONE:
        return times
    for _ in range(k):
        times = f if times == _INT_ONE else {
            key: c for key, c in _mul_into({}, times, f).items() if c}
    return times


def _int_dense(p: MPoly, mult: int, s: int) -> tuple[list[dict], int]:
    """Ascending coefficients of mult * p in the variable at shift s, and the OR of their keys.

    The coefficients are term dicts free of that variable.
    """
    terms = _int_terms(p, mult)
    dense: list[dict] = [{} for _ in range(max([key >> s & _MASK for key in terms]) + 1)]
    used = 0
    for key, c in terms.items():
        e = key >> s & _MASK
        key -= e << s
        dense[e][key] = c
        used |= key
    return dense, used


def _int_prem(f: list[dict], g: list[dict]) -> list[dict]:
    """lc(g)**(deg f - deg g + 1) * f modulo g, for deg f >= deg g, trimmed."""
    r = list(f)
    lead = g[-1]
    unit = lead == _INT_ONE  # then r[j] changes only where a multiple of g lands
    for k in range(len(f) - len(g), -1, -1):
        minus_top = {key: -c for key, c in r.pop().items()}
        for j in range(len(r)):
            shifted = minus_top and j >= k
            if unit and not shifted:
                continue
            acc = dict(r[j]) if unit else _mul_into({}, lead, r[j])
            if shifted:
                _mul_into(acc, minus_top, g[j - k])
            r[j] = {key: c for key, c in acc.items() if c}
    return _dense_trim(r)


def resultant(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Resultant of p and q with respect to one variable.

    The Sylvester determinant, by the subresultant remainder sequence
    (Collins 1967; Brown & Traub 1971; Cohen, *A Course in Computational
    Algebraic Number Theory*, Algorithm 3.3.7).  p and q are cleared to
    integers once, as Res(dp p, dq q) = dp**deg q * dq**deg p * Res(p, q).
    Each pseudo-remainder is divided by g h**delta and each h is a quotient,
    all exact over Z.  The last nonzero element of the sequence is the gcd
    of p and q in the eliminated variable, up to a factor in the others.

    Conventions: res(p, c, name) = c**deg(p) when c has degree 0 in name
    (c may involve the other variables); the resultant of two degree-0
    arguments is 1; a single zero argument gives 0; two zero arguments are
    an error.  Swapping the arguments multiplies by (-1)**(deg p * deg q).

    Overflow.  Let m >= n >= 1 be the degrees in name, and for each other
    variable let S = n deg p + m deg q in it.  Every subresultant is a minor
    of the Sylvester matrix, with n rows of p's coefficients and m of q's,
    so its coefficients, p's and q's, and each g and h (leading coefficients
    of subresultants, by the fundamental theorem; Brown & Traub) have degree
    at most S.  A pseudo-remainder multiplies by lc(g) delta + 1 times, and
    delta <= m - 1, so its degree is at most (m + 1) S, as is g h**delta's;
    the powers of g and h taken for h and for the result reach at most m S.
    No term of a quotient, or of its running remainder, exceeds the
    dividend's degree.  So when (m + 1) S < EXP_CAP every key in the kernel
    is a carry-free sum below the cap; otherwise this raises OverflowError
    before any product is formed.
    """
    s = _SHIFTS[_check_var(name)]
    if p.is_zero() and q.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if p.is_zero() or q.is_zero():
        return MPoly.zero()
    dp, dq = _denominator_lcm(p), _denominator_lcm(q)
    (f, used_f), (g, used_g) = _int_dense(p, dp, s), _int_dense(q, dq, s)
    m, n = len(f) - 1, len(g) - 1
    if m == 0 or n == 0:
        return p ** n * q ** m
    sign = 1
    if m < n:  # Res(p, q) = (-1)**(m n) Res(q, p)
        f, g, m, n, dp, dq, used_f, used_g = g, f, n, m, dq, dp, used_g, used_f
        sign = -1 if m & n & 1 else 1
    # (m + 1) S < EXP_CAP: first from the folded ORs of the coefficients'
    # keys, then, only if that bound fails, from the exact degrees
    if (m + 1) * (n * _fold(used_f) + m * _fold(used_g)) >= EXP_CAP:
        f_deg, g_deg = (_degrees([key for c in dense for key in c]) for dense in (f, g))
        if (m + 1) * max([n * a + m * b for a, b in zip(f_deg, g_deg)]) >= EXP_CAP:
            raise OverflowError(f"a resultant in {name} could reach the exponent cap {EXP_CAP}")
    lead, h = _INT_ONE, _INT_ONE
    while len(g) > 1:
        delta = len(f) - len(g)
        if (len(f) - 1) & (len(g) - 1) & 1:
            sign = -sign
        r = _int_prem(f, g)
        if not r:
            return MPoly.zero()
        divisor = _int_power(h, delta, lead)
        f, g = g, [_int_divide(c, divisor) for c in r]
        lead = f[-1]
        if delta:
            h = _int_divide(_int_power(lead, delta), _int_power(h, delta - 1))
    deg = len(f) - 1
    det = _int_divide(_int_power(g[0], deg, {0: sign}), _int_power(h, deg - 1))
    return _scaled(det, Fraction(1, dp ** n * dq ** m))


# -- dense univariate forms ------------------------------------------------

def _dense_coeffs(p: MPoly, name: str) -> list[Coeff]:
    """Ascending coefficient list of a univariate polynomial; [] for zero."""
    d = p.degree(name)
    if d is NEG_INF:
        return []
    s = _SHIFTS[_VAR_INDEX[name]]
    out: list[Coeff] = [0] * (int(d) + 1)
    for key, c in p._terms.items():
        out[key >> s & _MASK] = c
    return out


def dense_to_mpoly(coeffs: Iterable, name: str) -> MPoly:
    """The polynomial with ascending coefficients coeffs in one variable."""
    s = _SHIFTS[_check_var(name)]
    out: dict[int, Coeff] = {}
    for power, c in enumerate(coeffs):
        c = _coeff(c)
        if c:
            if power >= EXP_CAP:
                raise ValueError(f"an exponent is below {EXP_CAP}, not {power}")
            out[power << s] = c
    return _raw(out)


def _dense_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


# Dense polynomials over Z: ascending coefficient sequences of Python ints.
# Every helper scales by positive integers only, so each value keeps its sign.

def _primitive(coeffs) -> tuple[int, ...]:
    """Divide out the content."""
    content = gcd(*coeffs)
    if content > 1:
        return tuple([c // content for c in coeffs])
    return tuple(coeffs)


def _int_clear(dense: list[Coeff]) -> tuple[int, ...]:
    """Scale rational coefficients by a positive rational to primitive integers."""
    mult = lcm(*[c.denominator for c in dense])
    return _primitive([c.numerator * (mult // c.denominator) for c in dense])


def _pseudo_rem(f, g) -> list[int]:
    """A positive integer multiple of the remainder of f modulo g."""
    r = list(f)
    if g[-1] < 0:
        g = [-c for c in g]  # same remainder, positive leading coefficient
    lead, n = g[-1], len(g)
    while len(r) >= n:
        t = r.pop()
        if t:
            shift = len(r) + 1 - n
            q, rest = divmod(t, lead)
            if rest:
                r = [c * lead for c in r]
                q = t
            for j in range(n - 1):
                r[shift + j] -= q * g[j]
    return _dense_trim(r)


def _int_gcd(f, g) -> tuple[int, ...]:
    """Primitive gcd with positive leading coefficient (primitive remainder sequence)."""
    f, g = _primitive(f), _primitive(g)
    while g:
        f, g = g, _primitive(_pseudo_rem(f, g))
    return tuple(-c for c in f) if f and f[-1] < 0 else f


def _exact_div(f, g) -> list[int]:
    """f / g for a primitive g dividing f; the quotient is integral by Gauss's lemma."""
    r = list(f)
    n = len(g)
    quot = [0] * (len(f) - n + 1)
    for i in range(len(f) - n, -1, -1):
        t = quot[i] = r[i + n - 1] // g[-1]
        if t:
            for j in range(n):
                r[i + j] -= t * g[j]
    return quot


# -- integer binding of parameter polynomials ------------------------------
#
# A polynomial in x, u, v, a, b with integer coefficients is compiled once
# into a term list.  Binding u = p/q enters u**i as p**i * q**(BIND_TOP - i),
# and likewise v, a and b, so a bound value is the exact value times the
# product of the four q**BIND_TOP.  That factor is positive, so every sign is
# kept, and all values bound from the same tables share it as denominator.
#
# Binding runs in two stages.  The terms are grouped by their powers of x
# and v, and the stage folds u, a and b into one weight per group; the
# finish then weighs v's table alone.  Both are generated from the groups
# as straight-line integer expressions and compiled once, when the term
# list is, so binding interprets no term tuple.  A scan binds its speeds
# once, u once per row and v once per cell; a single point runs both stages
# back to back (bind).

BIND_TOP = 3  # the highest power of u, v, a or b that binding supports


def _table_names(var: str) -> str:
    return "(" + ", ".join(f"{var}{i}" for i in range(BIND_TOP + 1)) + ")"


def integer_terms(poly: MPoly):
    """An integer polynomial free of y, compiled for binding: its generated stage.

    The stage maps (u, v, a, b) power tables, v's unread and possibly None,
    to a staged tuple: the generated finish, then one weight per group of
    terms with one power of x and of v.  The finish maps a staged tuple and
    v's table to the ascending x-coefficients, [] for the zero polynomial.
    ValueError if a coefficient is not an int or a power is past BIND_TOP.
    """
    groups: dict[tuple[int, int], list[str]] = {}
    for (ex, ey, eu, ev, ea, eb), c in poly.terms():
        if ey or type(c) is not int or max(eu, ev, ea, eb) > BIND_TOP:
            raise ValueError(f"cannot bind {poly} on integers")
        groups.setdefault((ex, ev), []).append(f"{c} * u{eu} * a{ea} * b{eb}")
    weights = [f"w{j}" for j in range(len(groups))]
    top = max((ex for ex, _ in groups), default=-1)
    dense: list[list[str]] = [[] for _ in range(top + 1)]
    for w, (ex, ev) in zip(weights, groups):
        dense[ex].append(f"{w} * v{ev}")
    stage_body = finish_body = ""
    if groups:
        stage_body = (f"    {_table_names('u')}, _, {_table_names('a')}, {_table_names('b')}"
                      " = tables\n")
        finish_body = (f"    _, {', '.join(weights)} = staged\n"
                       f"    {_table_names('v')} = vp\n")
    source = (
        "def stage(tables):\n" + stage_body
        + "    return " + ", ".join(["finish"] + [" + ".join(g) for g in groups.values()]) + ",\n"
        "def finish(staged, vp):\n" + finish_body
        + "    return [" + ", ".join(" + ".join(terms) or "0" for terms in dense) + "]\n")
    namespace: dict = {}
    exec(compile(source, "<exactpoly.integer_terms>", "exec"), namespace)
    return namespace["stage"]


def power_table(r) -> list[int]:
    """The binding table of one rational: p**i * q**(BIND_TOP - i) for r = p/q."""
    p, q = r.numerator, r.denominator
    return [p**i * q ** (BIND_TOP - i) for i in range(BIND_TOP + 1)]


def power_tables(u, v, a, b) -> tuple:
    """Binding tables for rational u, v, a, b.

    Their common denominator is the product of their first entries.
    """
    return power_table(u), power_table(v), power_table(a), power_table(b)


def stage(terms, tables) -> tuple:
    """Compiled terms with u, a and b bound: their finish, then one weight per group.

    tables are (u, v, a, b) power tables; v's is not read and may be None.
    """
    return terms(tables)


def finish(staged, vp) -> list[int]:
    """Ascending x-coefficients of staged terms bound by v's power table.

    Each coefficient is the exact one times the tables' common denominator.
    """
    return staged[0](staged, vp)


def bind(terms, tables) -> list[int]:
    """Ascending x-coefficients of compiled terms bound by all four power tables."""
    return finish(stage(terms, tables), tables[1])
