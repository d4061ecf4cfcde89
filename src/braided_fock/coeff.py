"""Exact coefficient rings: Laurent polynomials in q, and polynomials in q, z, w.

Everything is sparse and integer-exact.  A polynomial is a map from exponents
to nonzero arbitrary-precision integer coefficients; the zero polynomial is
the empty map.  Identities that would involve denominators are handled by the
callers in denominator-cleared form, so no fraction-field arithmetic is ever
needed here.

The sparse plumbing the other modules share lives here too: ``add_term``
merges one term into a map and drops it when it cancels, ``LinearCombination``
is the arithmetic and printing of wedge and mode elements, and ``to_image`` is
the one integer image of a Laurent polynomial, its value at q^-1 = 2^b.
"""

from __future__ import annotations

import re
from fractions import Fraction

_JSON_EXPONENT = re.compile(r"(0|-?[1-9][0-9]*)\Z")


def strict_int(value, what: str) -> int:
    """``value`` if it is a plain int (not a bool or a float); ValueError otherwise."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def strict_laurent(value, what: str):
    """``value`` if it is a LaurentPoly; ValueError otherwise."""
    if not isinstance(value, LaurentPoly):
        raise ValueError("%s must be a LaurentPoly, got %r" % (what, value))
    return value


def _json_exponent(text) -> int:
    if not isinstance(text, str) or not _JSON_EXPONENT.match(text):
        raise ValueError("malformed exponent key %r" % (text,))
    return int(text)


def add_term(terms: dict, key, coeff):
    """Add ``coeff`` to ``terms[key]``, dropping the key when the sum is zero."""
    s = terms.get(key)
    s = coeff if s is None else s + coeff
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


class _SparsePoly:
    """What the two polynomial classes share: a sparse ``terms`` map from
    exponent keys to nonzero integers, and everything but multiplication.

    A subclass sets ``_UNIT_KEY`` (the exponent key of the constant term) and
    defines ``_factors`` (the printed factors of one monomial) and ``__mul__``.
    """

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT_KEY: 1})

    def _coerce(self, other):
        cls = self.__class__
        if isinstance(other, cls):
            return other
        if isinstance(other, int):
            r = cls.__new__(cls)
            r.terms = {cls._UNIT_KEY: other} if other else {}
            return r
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        r = self.__class__.__new__(self.__class__)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = self.__class__.__new__(self.__class__)
        r.terms = {k: -c for k, c in self.terms.items()}
        return r

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # ---- display -----------------------------------------------------------

    def __repr__(self):
        return "%s(%r)" % (self.__class__.__name__, self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            body = "*".join(self._factors(key))
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


def _power(var: str, e: int) -> list:
    """The printed factor var**e, as a list that is empty for e = 0."""
    return [] if not e else [var] if e == 1 else ["%s^%d" % (var, e)]


class LaurentPoly(_SparsePoly):
    """Sparse Laurent polynomial in q over the integers.

    ``terms`` maps an integer q-exponent to a nonzero integer coefficient.
    Instances are treated as immutable: no method mutates ``terms`` in place,
    and two values are equal exactly when their term maps are equal.
    """

    __slots__ = ("terms",)
    _UNIT_KEY = 0

    def __init__(self, terms=None):
        if terms:
            self.terms = {strict_int(e, "q-exponent"): c for e, c in terms.items()
                          if strict_int(c, "coefficient")}
        else:
            self.terms = {}

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * q**e."""
        return cls({e: coeff})

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls({1: 1})

    # ---- ring operations -------------------------------------------------

    # bound here too: the benchmark's tracer wraps only the methods it finds
    # in the class's own namespace
    __add__ = __radd__ = _SparsePoly.__add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    __rmul__ = __mul__

    # ---- structure -------------------------------------------------------

    def unit_inverse(self) -> "LaurentPoly":
        """Invert a unit monomial (+-q**k); raises for anything else."""
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            if c in (1, -1):
                return LaurentPoly({-e: c})
        raise ValueError("not a unit in Z[q, q^-1]: %s" % self)

    def divide_exact(self, den: "LaurentPoly"):
        """Exact quotient self / den in Z[q, q^-1], or None when inexact."""
        if not den.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return LaurentPoly()
        num = dict(self.terms)
        dhi = max(den.terms)
        dlead = den.terms[dhi]
        # the lowest exponent any true quotient can have
        qlow = min(self.terms) - min(den.terms)
        quot = {}
        while num:
            e = max(num)
            qe = e - dhi
            if qe < qlow:
                return None
            c = num[e]
            if c % dlead:
                return None
            qc = c // dlead
            quot[qe] = quot.get(qe, 0) + qc
            for de, dc in den.terms.items():
                ee = qe + de
                s = num.get(ee, 0) - qc * dc
                if s:
                    num[ee] = s
                else:
                    num.pop(ee, None)
        return LaurentPoly(quot)

    def evaluate(self, q0) -> Fraction:
        """Exact value at a rational point q0 (nonzero).

        For q0 = a/b and exponents in lo..hi this is the integer
        sum of c a^(e-lo) b^(hi-e), times a^lo / b^hi, made into one Fraction.
        """
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at q = 0")
        if not self.terms:
            return Fraction(0)
        a, b = q0.numerator, q0.denominator
        lo, hi = min(self.terms), max(self.terms)
        total = sum(c * a**(e - lo) * b**(hi - e) for e, c in self.terms.items())
        return Fraction(total * a**max(lo, 0) * b**max(-hi, 0), a**max(-lo, 0) * b**max(hi, 0))

    # ---- serialization and display ----------------------------------------

    def to_json(self) -> dict:
        return {str(e): c for e, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, obj: dict):
        """The polynomial of a map from exponent strings to integers, checked strictly."""
        if not isinstance(obj, dict):
            raise ValueError("a polynomial must be a map from exponents to integers, got %r"
                             % (obj,))
        return cls({_json_exponent(key): c for key, c in obj.items()})

    @staticmethod
    def _factors(e):
        return _power("q", e)


class PolyQZW(_SparsePoly):
    """Sparse polynomial with integer q-exponents and nonnegative z, w degrees.

    ``terms`` maps (q_exp, z_deg, w_deg) to a nonzero integer coefficient,
    with the same normalization rule as :class:`LaurentPoly`.  The pYBE check
    decodes its witness into this form to print it.
    """

    __slots__ = ("terms",)
    _UNIT_KEY = (0, 0, 0)

    def __init__(self, terms=None):
        out = {}
        if terms:
            for key, c in terms.items():
                if not c:
                    continue
                qe, zd, wd = [strict_int(e, "exponent") for e in key]
                if zd < 0 or wd < 0:
                    raise ValueError("z and w degrees must be nonnegative")
                out[(qe, zd, wd)] = strict_int(c, "coefficient")
        self.terms = out

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (q1, z1, w1), c1 in self.terms.items():
            for (q2, z2, w2), c2 in other.terms.items():
                k = (q1 + q2, z1 + z2, w1 + w2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        r = PolyQZW.__new__(PolyQZW)
        r.terms = out
        return r

    __rmul__ = __mul__

    @staticmethod
    def _factors(key):
        qe, zd, wd = key
        return _power("q", qe) + _power("z", zd) + _power("w", wd)


class LinearCombination:
    """``n`` plus a sparse map from tuple keys to nonzero coefficients.

    The shared arithmetic and printing of wedge and mode elements: keys are
    index monomials or mode words, coefficients are Laurent polynomials.
    ``_GEN`` formats one printed generator and ``_ORDER`` sorts printed terms.
    """

    __slots__ = ("n", "terms")
    _ORDER = None

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {tuple(k): c for k, c in terms.items()
                      if strict_laurent(c, "coefficient")} if terms else {}

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n):
        return cls(n, {(): LaurentPoly.one()})

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mixed dimensions")
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self.__class__(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, coeff):
        return self.__class__(self.n, {k: c * coeff for k, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, self.__class__) and self.n == other.n
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return " + ".join("(%s) %s" % (self.terms[k], " ".join(self._GEN % g for g in k) or "1")
                          for k in sorted(self.terms, key=self._ORDER)) or "0"


def to_image(p: LaurentPoly, b: int, e0: int) -> int:
    """The integer image of ``p``: sum c 2^(b k) over its terms c q^(e0 - k).

    That is q^(-e0) p at q^-1 = 2^b, the one image direction of the library;
    e0 is at least every exponent of p, so every k is nonnegative.
    """
    return sum([c << b * (e0 - e) for e, c in p.terms.items()])


def from_image(x: int, b: int, e0: int) -> LaurentPoly:
    """The ``p`` with ``to_image(p, b, e0) == x``.

    Exact when every coefficient of p lies strictly between -2^(b-1) and
    2^(b-1): they are then the balanced base-2^b digits of x, read from the
    exponent e0 down.
    """
    terms, e = {}, e0
    base, half = 1 << b, 1 << (b - 1)
    while x:
        d = x & (base - 1)
        if d >= half:
            d -= base
        terms[e] = d
        x = (x - d) >> b
        e -= 1
    return LaurentPoly(terms)


def image_l1(x: int, b: int) -> int:
    """The L1 norm of ``from_image(x, b, e0)``: the sum of the absolute digits of x."""
    return sum(map(abs, from_image(x, b, 0).terms.values()))


def braided_int_scalar(m: int, step: int = -2) -> LaurentPoly:
    """The scalar braided integer: sum of q**(step*s) for s = 0 .. m-1.

    This is the geometric-sum form of (1 - q**(step*m)) / (1 - q**step).
    ``m = 0`` yields the empty sum (zero); negative ``m`` is rejected.
    """
    if m < 0:
        raise ValueError("braided integer needs m >= 0, got %d" % m)
    terms = {}
    for s in range(m):
        e = step * s
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(terms)
