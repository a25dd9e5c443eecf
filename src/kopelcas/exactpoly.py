"""Sparse exact polynomial arithmetic in the six model variables.

Polynomials live in Q[x, y, u, v, a, b].  A polynomial is a mapping from
exponent tuples ``(ex, ey, eu, ev, ea, eb)`` to nonzero coefficients; the
zero polynomial is the empty mapping.  A coefficient is a Python int when it
is integral and a Fraction with denominator > 1 otherwise, so polynomials
with integer coefficients, which is nearly all of them here, never pay for
Fraction normalisation.  The monomial order is lexicographic with
x > y > u > v > a > b, which exponent tuples inherit from plain tuple
comparison, so "leading term" below always means the max exponent tuple.
Substitution takes one pass: each group of terms with one power of the
replaced variable is multiplied by that power of the replacement into one dict.

The resultant runs in an integer kernel on term dicts
``{exponent tuple: int}``, by the subresultant polynomial remainder
sequence: both arguments are cleared to integers once, split into
coefficient lists in the eliminated variable, pseudo-divided on ints, and
the result is scaled back once at the end.  Every division in the sequence
is exact and takes quotient coefficients with divmod, so a nonzero
remainder is an error, never a rounding.  Dense univariate helpers over Z
(primitive parts, pseudo-remainders, gcds, exact division) serve the root
layer, and a parameter polynomial compiled to an integer term list binds
rational parameters on integers alone, in two stages: u, a and b, then v.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rational import coerce_rational

VARS: tuple[str, ...] = ("x", "y", "u", "v", "a", "b")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_ZERO_EXP = (0, 0, 0, 0, 0, 0)
# Within a printed monomial, factors appear alphabetically: a b u v x y.
_PRINT_ORDER = tuple(sorted(range(len(VARS)), key=lambda i: VARS[i]))

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


def _canon(terms: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints."""
    return {exp: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for exp, c in terms.items() if c}


def _mul_into(out: dict, f: dict, g: dict) -> dict:
    """Add the product of the term dicts f and g into out; zeros stay in out."""
    get = out.get
    for (x1, y1, u1, v1, a1, b1), c1 in f.items():
        for (x2, y2, u2, v2, a2, b2), c2 in g.items():
            exp = (x1 + x2, y1 + y2, u1 + u2, v1 + v2, a1 + a2, b1 + b2)
            out[exp] = get(exp, 0) + c1 * c2
    return out


class MPoly:
    """Immutable sparse polynomial over Q in the variables x, y, u, v, a, b."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], object] | None = None):
        """terms maps exponent tuples, six non-negative ints, to exact coefficients."""
        clean: dict[tuple[int, ...], Coeff] = {}
        if terms:
            for exp, coeff in terms.items():
                if (type(exp) is not tuple or len(exp) != len(VARS)
                        or any(type(e) is not int or e < 0 for e in exp)):
                    raise ValueError(f"an exponent tuple holds {len(VARS)} non-negative ints, "
                                     f"not {exp!r}")
                c = _coeff(coeff)
                if c:
                    clean[exp] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    def __reduce__(self):
        # pickle and copy would restore _terms through __setattr__
        return MPoly, (self._terms,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "MPoly":
        return cls({_ZERO_EXP: c})

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
        return not self._terms or (len(self._terms) == 1 and _ZERO_EXP in self._terms)

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial; error if any variable remains."""
        if not self._terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self._terms[_ZERO_EXP])
        raise ValueError(f"not a constant polynomial: {self}")

    def terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Terms in descending monomial order (canonical)."""
        return sorted(self._terms.items(), reverse=True)

    def num_terms(self) -> int:
        return len(self._terms)

    def variables(self) -> set[str]:
        return {VARS[i] for exp in self._terms for i, e in enumerate(exp) if e}

    def degree(self, name: str):
        """Degree in one variable; the zero polynomial has degree -inf."""
        i = _check_var(name)
        if not self._terms:
            return NEG_INF
        return max(exp[i] for exp in self._terms)

    def coefficient_of(self, name: str, power: int) -> "MPoly":
        """Coefficient of name**power, viewing self as univariate in name."""
        i = _check_var(name)
        out: dict[tuple[int, ...], Coeff] = {}
        for exp, c in self._terms.items():
            if exp[i] == power:
                reduced = list(exp)
                reduced[i] = 0
                out[tuple(reduced)] = c
        return _raw(out)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exp, c in other._terms.items():
            out[exp] = out.get(exp, 0) + c
        return _raw(_canon(out))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _raw({exp: -c for exp, c in self._terms.items()})

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
            return _raw(_canon({exp: k * c for exp, k in self._terms.items()}))
        if not isinstance(other, MPoly):
            return NotImplemented
        return _raw(_canon(_mul_into({}, self._terms, other._terms)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not n:
            return ONE
        result = self  # square and multiply from the base, n's bits from the top
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
            return hash(self._terms.get(_ZERO_EXP, 0))
        return hash(frozenset(self._terms.items()))

    # -- calculus and substitution ----------------------------------------

    def derivative(self, name: str) -> "MPoly":
        i = _check_var(name)
        out: dict[tuple[int, ...], Coeff] = {}
        for exp, c in self._terms.items():
            e = exp[i]
            if e:
                reduced = list(exp)
                reduced[i] = e - 1
                out[tuple(reduced)] = c * e
        return _raw(_canon(out))

    def evaluate(self, binding: Mapping[str, object]) -> "MPoly":
        """Substitute exact rational values for a subset of the variables."""
        idx_vals = [(_check_var(name), _coeff(val)) for name, val in binding.items()]
        out: dict[tuple[int, ...], Coeff] = {}
        for exp, c in self._terms.items():
            reduced = list(exp)
            for i, val in idx_vals:
                e = reduced[i]
                if e:
                    c = c * val ** e
                    reduced[i] = 0
            key = tuple(reduced)
            out[key] = out.get(key, 0) + c
        return _raw(_canon(out))

    def substitute(self, name: str, replacement: "MPoly") -> "MPoly":
        """Replace a variable by a polynomial (composition), exactly, in one pass.

        The terms are grouped by their power e of the variable; each group times
        the replacement's e-th power is added into one dict, canonicalised once.
        """
        i = _check_var(name)
        if not isinstance(replacement, MPoly):
            replacement = MPoly.constant(replacement)
        groups: dict[int, dict] = {}
        for exp, c in self._terms.items():
            groups.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1:]] = c
        top = max(groups, default=0)
        if not top:
            return self
        out, power = groups.pop(0, {}), _INT_ONE
        for e in range(1, top + 1):
            power = _int_power(replacement._terms, 1, power)  # the replacement's e-th power
            if e in groups:
                _mul_into(out, groups[e], power)
        return _raw(_canon(out))

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


def _raw(terms: dict[tuple[int, ...], Coeff]) -> MPoly:
    """Build an MPoly from an already-normalized term dict (no copying checks)."""
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
# Polynomials over Z as term dicts {exponent tuple: int} without zeros.  The
# resultant clears denominators on the way in, computes on ints alone, and
# scales back once on the way out.  Products and quotients by 1 are skipped,
# so a helper may return an argument and none mutates its input.

_INT_ONE = {_ZERO_EXP: 1}


def _denominator_lcm(p: MPoly) -> int:
    return lcm(*[c.denominator for c in p._terms.values()])


def _int_terms(p: MPoly, mult: int) -> dict:
    """The term dict of mult * p, for a multiple mult of p's denominators."""
    if mult == 1:
        return p._terms
    return {exp: c.numerator * (mult // c.denominator) for exp, c in p._terms.items()}


def _scaled(terms: dict, scale: Fraction) -> MPoly:
    """The MPoly scale * terms, from an integer term dict."""
    if scale == 1:
        return _raw(terms)
    return _raw(_canon({exp: c * scale for exp, c in terms.items()}))


def _int_divide(f: dict, g: dict) -> dict:
    """f / g on integer term dicts; ValueError("not divisible") unless exact.

    Long division by leading terms, taken from a heap of negated exponents
    (a cancelled term's entry is skipped; new terms lie below the leading
    one).  Over Z every quotient coefficient must come out of divmod with no
    remainder, which holds whenever g divides f over Q and g is primitive
    (Gauss's lemma), or f is an exact multiple of g over Z.  Dividing by 1
    returns f itself.
    """
    if g == _INT_ONE:
        return f
    lead_exp = max(g)
    lead = g[lead_exp]
    lx, ly, lu, lv, la, lb = lead_exp
    tail = [(exp, c) for exp, c in g.items() if exp != lead_exp]
    quot: dict[tuple[int, ...], int] = {}
    if not tail:  # a monomial cancels no term, so each is divided alone
        for (x, y, u, v, a, b), c in f.items():
            t, r = divmod(c, lead)
            d = (x - lx, y - ly, u - lu, v - lv, a - la, b - lb)
            if r or min(d) < 0:
                raise ValueError("not divisible")
            quot[d] = t
        return quot
    rest = dict(f)
    heap = [(-x, -y, -u, -v, -a, -b) for x, y, u, v, a, b in rest]
    heapify(heap)
    while rest:
        nx, ny, nu, nv, na, nb = heappop(heap)
        top = (-nx, -ny, -nu, -nv, -na, -nb)
        if top not in rest:
            continue
        t, r = divmod(rest.pop(top), lead)
        d = (-nx - lx, -ny - ly, -nu - lu, -nv - lv, -na - la, -nb - lb)
        if r or min(d) < 0:
            raise ValueError("not divisible")
        quot[d] = t
        dx, dy, du, dv, da, db = d
        for (x2, y2, u2, v2, a2, b2), c in tail:
            x, y, u, v, a, b = exp = (dx + x2, dy + y2, du + u2, dv + v2, da + a2, db + b2)
            s = rest.get(exp)
            if s is None:
                rest[exp] = -t * c
                heappush(heap, (-x, -y, -u, -v, -a, -b))
            else:
                s -= t * c
                if s:
                    rest[exp] = s
                else:
                    del rest[exp]
    return quot


# -- resultants ------------------------------------------------------------

def _int_power(f: dict, k: int, times: dict = _INT_ONE) -> dict:
    """times * f**k on term dicts, zeros dropped; it may return f or times itself."""
    if f == _INT_ONE:
        return times
    for _ in range(k):
        times = f if times == _INT_ONE else {
            exp: c for exp, c in _mul_into({}, times, f).items() if c}
    return times


def _int_dense(p: MPoly, mult: int, i: int) -> list[dict]:
    """Ascending coefficients of mult * p in variable i, as term dicts free of it."""
    terms = _int_terms(p, mult)
    dense: list[dict] = [{} for _ in range(max(exp[i] for exp in terms) + 1)]
    for exp, c in terms.items():
        dense[exp[i]][exp[:i] + (0,) + exp[i + 1:]] = c
    return dense


def _int_prem(f: list[dict], g: list[dict]) -> list[dict]:
    """lc(g)**(deg f - deg g + 1) * f modulo g, for deg f >= deg g, trimmed."""
    r = list(f)
    lead = g[-1]
    unit = lead == _INT_ONE  # then r[j] changes only where a multiple of g lands
    for k in range(len(f) - len(g), -1, -1):
        minus_top = {exp: -c for exp, c in r.pop().items()}
        for j in range(len(r)):
            shifted = minus_top and j >= k
            if unit and not shifted:
                continue
            acc = dict(r[j]) if unit else _mul_into({}, lead, r[j])
            if shifted:
                _mul_into(acc, minus_top, g[j - k])
            r[j] = {exp: c for exp, c in acc.items() if c}
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
    """
    i = _check_var(name)
    if p.is_zero() and q.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if p.is_zero() or q.is_zero():
        return MPoly.zero()
    m = int(p.degree(name))
    n = int(q.degree(name))
    if m == 0 or n == 0:
        return p ** n * q ** m
    if m < n:
        res = resultant(q, p, name)
        return -res if m & n & 1 else res
    dp, dq = _denominator_lcm(p), _denominator_lcm(q)
    f, g = _int_dense(p, dp, i), _int_dense(q, dq, i)
    sign, lead, h = 1, _INT_ONE, _INT_ONE
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
    det = _int_divide(_int_power(g[0], deg, {_ZERO_EXP: sign}), _int_power(h, deg - 1))
    return _scaled(det, Fraction(1, dp ** n * dq ** m))


# -- dense univariate forms ------------------------------------------------

def _dense_coeffs(p: MPoly, name: str) -> list[Coeff]:
    """Ascending coefficient list of a univariate polynomial; [] for zero."""
    d = p.degree(name)
    if d is NEG_INF:
        return []
    i = _VAR_INDEX[name]
    out: list[Coeff] = [0] * (int(d) + 1)
    for exp, c in p._terms.items():
        out[exp[i]] = c
    return out


def dense_to_mpoly(coeffs: Iterable, name: str) -> MPoly:
    i = _check_var(name)
    out: dict[tuple[int, ...], Coeff] = {}
    for power, c in enumerate(coeffs):
        c = _coeff(c)
        if c:
            out[_ZERO_EXP[:i] + (power,) + _ZERO_EXP[i + 1:]] = c
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
        return tuple(c // content for c in coeffs)
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
# Binding runs in two stages.  The compiled terms are grouped by their powers
# of x and v, and stage folds u, a and b into one weight per group; finish
# then weighs v's table alone.  A scan binds its speeds once, u once per row
# and v once per cell; a single point runs both stages back to back (bind).

BIND_TOP = 3  # the highest power of u, v, a or b that binding supports


def integer_terms(poly: MPoly) -> tuple:
    """The terms of an integer polynomial free of y, grouped by their powers of x and v.

    One tuple per group: the powers of x and v, then the group's terms as a
    tuple of (coeff, powers of u, a, b).  Groups come in descending order,
    so the first carries the top power of x.
    """
    groups: dict[tuple[int, int], list] = {}
    for (ex, ey, eu, ev, ea, eb), c in poly.terms():
        if ey or type(c) is not int or max(eu, ev, ea, eb) > BIND_TOP:
            raise ValueError(f"cannot bind {poly} on integers")
        groups.setdefault((ex, ev), []).append((c, eu, ea, eb))
    return tuple((ex, ev, tuple(terms)) for (ex, ev), terms in sorted(groups.items(), reverse=True))


def power_table(r) -> list[int]:
    """The binding table of one rational: p**i * q**(BIND_TOP - i) for r = p/q."""
    p, q = r.numerator, r.denominator
    return [p**i * q ** (BIND_TOP - i) for i in range(BIND_TOP + 1)]


def power_tables(u, v, a, b) -> tuple:
    """Binding tables for rational u, v, a, b.

    Their common denominator is the product of their first entries.
    """
    return power_table(u), power_table(v), power_table(a), power_table(b)


def stage(terms, tables) -> list[tuple]:
    """Compiled terms with u, a and b bound: (power of x, power of v, weight) per group.

    tables are (u, v, a, b) power tables; v's is not read and may be None.
    """
    up, _, ap, bp = tables
    staged = []
    for kx, kv, group in terms:
        w = 0
        for c, ku, ka, kb in group:
            w += c * up[ku] * ap[ka] * bp[kb]
        staged.append((kx, kv, w))
    return staged


def finish(staged, vp) -> list[int]:
    """Ascending x-coefficients of staged terms bound by v's power table.

    Each coefficient is the exact one times the tables' common denominator.
    """
    dense = [0] * (staged[0][0] + 1)
    for kx, kv, w in staged:
        dense[kx] += w * vp[kv]
    return dense


def bind(terms, tables) -> list[int]:
    """Ascending x-coefficients of compiled terms bound by all four power tables."""
    return finish(stage(terms, tables), tables[1])
