"""A small closed-form expression language for sphere Hamiltonians.

Grammar (whitespace ignored):

    expr   := term ('+' term)*
    term   := NUMBER ('*' factor)*
    factor := 'bump' '(' 'rho' ';' NUMBER ',' NUMBER ')'
            | 'mono' '(' var ('^' INT)? (var ('^' INT)?)* ')'
    var    := 'x' INT | 'y' INT      (1-based coordinate index)

`bump(rho; a, b)` is the C^4 plateau profile of the angle ratio: 1 where
the ratio is at most a, 0 where it is at least b.  `mono(...)` is a plain
coordinate monomial, e.g. `mono(x1^2 y2^4)`.  Every term must contain at
least one bump factor so the parsed function has certified compact
support away from the small-ratio region's complement.

Parsing yields a plan: the distinct bump profiles, and per term its
coefficient, its bumps and its merged monomial powers.  Two kernels run
that plan.  `eval_fn` computes values only.  `grad_fn` is the fused
kernel: one pass returns (values, ambient gradients), computing rho and
grad rho once and the values and derivatives of all distinct bumps in
one stacked (bumps, rows) pass, however many terms share a bump.  The
rho-part of every term's product rule is summed into one coefficient
per row, which multiplies grad rho once; monomial parts are added column
by column.  Integer powers are built by repeated squaring, never by `**`,
and the fused values are bitwise those of `eval_fn`.  A flow or
smoothed-map RK stage makes exactly one `grad_fn` call.
"""
import re

import numpy as np

from .blends import plateau_bump, plateau_bump_with_deriv
from .contact import ContactHamiltonian, SupportMeta
from .errors import DomainError, ParseError
from .geometry import angle_ratio_and_gradient, angle_ratio_of
from . import sampling

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>bump|mono|rho|[xy]\d+)"
    r"|(?P<sym>[*+;,()^]))"
)


def _tokenize(text):
    text = text.strip()
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"bad character at position {pos}: {text[pos:pos + 10]!r}")
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, n):
        self.toks = tokens
        self.i = 0
        self.n = n

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self, kind=None, value=None):
        k, v = self.peek()
        if k is None:
            raise ParseError("unexpected end of expression")
        if (kind is not None and k != kind) or (value is not None and v != value):
            want = f"{kind or ''} {value or ''}".strip() or "token"
            raise ParseError(f"expected {want}, got {v!r}")
        self.i += 1
        return v

    def parse(self):
        terms = [self.term()]
        while self.peek() == ("sym", "+"):
            self.take()
            terms.append(self.term())
        if self.i != len(self.toks):
            raise ParseError(f"trailing input near {self.peek()[1]!r}")
        return terms

    def term(self):
        coeff = float(self.take("num"))
        factors = []
        while self.peek() == ("sym", "*"):
            self.take()
            factors.append(self.factor())
        if not any(f[0] == "bump" for f in factors):
            raise ParseError("every term needs a bump factor (compact support)")
        return coeff, factors

    def factor(self):
        k, v = self.peek()
        if (k, v) == ("name", "bump"):
            self.take()
            self.take("sym", "(")
            self.take("name", "rho")
            self.take("sym", ";")
            a = float(self.take("num"))
            self.take("sym", ",")
            b = float(self.take("num"))
            self.take("sym", ")")
            if not 0.0 <= a < b:
                raise ParseError(f"bump needs 0 <= a < b, got ({a}, {b})")
            return ("bump", a, b)
        if (k, v) == ("name", "mono"):
            self.take()
            self.take("sym", "(")
            powers = []
            while self.peek()[0] == "name":
                var = self.take("name")
                p = 1
                if self.peek() == ("sym", "^"):
                    self.take()
                    raw = float(self.take("num"))
                    if raw != int(raw) or raw < 1:
                        raise ParseError(f"exponent must be a positive integer, got {raw}")
                    p = int(raw)
                powers.append((self._index(var), p))
            self.take("sym", ")")
            if not powers:
                raise ParseError("empty mono()")
            return ("mono", tuple(powers))
        raise ParseError(f"expected bump or mono, got {v!r}")

    def _index(self, var):
        j = int(var[1:])
        if not 1 <= j <= self.n:
            raise ParseError(f"coordinate {var} outside 1..{self.n}")
        return (j - 1) if var[0] == "x" else (self.n + j - 1)


def _ipow(x, p):
    """x**p for an integer p >= 1 by repeated squaring (p = 1 returns x)."""
    out = None
    while True:
        if p & 1:
            out = x if out is None else out * x
        p >>= 1
        if not p:
            return out
        x = x * x


def _plan(terms):
    """Evaluation plan of parsed terms: the distinct (a, b) bump profiles,
    and per term (coefficient, indices of its bumps, merged monomial
    powers as ((coordinate, power), ...))."""
    bumps, plan = [], []
    for coeff, factors in terms:
        ids, powers = [], {}
        for f in factors:
            if f[0] == "bump":
                if f[1:] not in bumps:
                    bumps.append(f[1:])
                ids.append(bumps.index(f[1:]))
            else:
                for idx, p in f[1]:
                    powers[idx] = powers.get(idx, 0) + p
        plan.append((coeff, tuple(ids), tuple(powers.items())))
    return tuple(bumps), tuple(plan)


def _format_terms(terms, n):
    """Expression text of parsed terms (float repr, so it parses back exactly)."""
    def var(idx):
        return f"x{idx + 1}" if idx < n else f"y{idx - n + 1}"

    def factor(f):
        if f[0] == "bump":
            return f"bump(rho; {f[1]!r}, {f[2]!r})"
        return "mono(" + " ".join(f"{var(idx)}^{p}" for idx, p in f[1]) + ")"

    return " + ".join(" * ".join([repr(coeff)] + [factor(f) for f in factors])
                      for coeff, factors in terms)


class ExpressionHamiltonian(ContactHamiltonian):
    """ContactHamiltonian backed by a parsed expression; its `grad_fn` is
    the fused value-and-gradient kernel."""

    def __init__(self, text: str, n: int, k: int, meta: SupportMeta = None,
                 meta_samples: int = 4000, meta_seed: int = 0):
        terms = _Parser(_tokenize(text), n).parse()
        self.text = text
        self.terms = terms
        self._bumps, self._plan = _plan(terms)
        # the distinct profiles as (bumps, 1) columns, for one stacked pass
        self._bump_cols = tuple(np.array(col)[:, None] for col in zip(*self._bumps))
        self.k = int(k)  # _eval needs these before the base constructor runs
        self.n = int(n)
        if meta is None:
            meta = self._estimate_meta(terms, n, k, meta_samples, meta_seed)
        super().__init__(self._eval, k=k, n=n, meta=meta,
                         grad_fn=self._value_and_grad)

    def scaled(self, s: float):
        """s times this Hamiltonian: coefficients scaled, metadata scaled,
        nothing re-estimated."""
        if s <= 0:
            raise DomainError("scale must be positive")
        terms = [(s * coeff, factors) for coeff, factors in self.terms]
        return ExpressionHamiltonian(_format_terms(terms, self.n), n=self.n,
                                     k=self.k, meta=self.meta.scaled(s))

    # -- evaluation ----------------------------------------------------
    def _eval(self, th):
        """Values only; computes no gradient."""
        th = np.atleast_2d(np.asarray(th, dtype=float))
        rho = angle_ratio_of(th, self.k)
        total = np.zeros(th.shape[0])
        for coeff, ids, powers in self._plan:
            tv = coeff * plateau_bump(rho, *self._bumps[ids[0]])
            for j in ids[1:]:
                tv = tv * plateau_bump(rho, *self._bumps[j])
            for idx, p in powers:
                tv = tv * _ipow(th[:, idx], p)
            total += tv
        return total

    def _value_and_grad(self, th):
        """(values, ambient gradients) in one pass; see the module docstring."""
        th = np.atleast_2d(np.asarray(th, dtype=float))
        rho, grad_rho = angle_ratio_and_gradient(th, self.k)
        bv, bd = plateau_bump_with_deriv(rho, *self._bump_cols)
        total = np.zeros(th.shape[0])
        c_rho = np.zeros(th.shape[0])
        grad = np.zeros_like(th)
        pows = {}

        def power(idx, p):
            if (idx, p) not in pows:
                pows[idx, p] = _ipow(th[:, idx], p)
            return pows[idx, p]

        for coeff, ids, powers in self._plan:
            # bump product and its rho-derivative
            tv, dtv = coeff * bv[ids[0]], coeff * bd[ids[0]]
            for j in ids[1:]:
                dtv = dtv * bv[j] + tv * bd[j]
                tv = tv * bv[j]
            factors = [power(idx, p) for idx, p in powers]
            for i, (idx, p) in enumerate(powers):
                part = tv if p == 1 else tv * (p * power(idx, p - 1))
                for j, fv in enumerate(factors):
                    if j != i:
                        part = part * fv
                grad[:, idx] += part
            for fv in factors:
                tv = tv * fv
                dtv = dtv * fv
            total += tv
            c_rho += dtv
        grad += c_rho[:, None] * grad_rho
        return total, grad

    # -- metadata -------------------------------------------------------
    def _estimate_meta(self, terms, n, k, samples, seed):
        rho1 = max(min(f[2] for f in factors if f[0] == "bump")
                   for _, factors in terms)
        rho0 = 0.5 * min(min(f[1] for f in factors if f[0] == "bump")
                         for _, factors in terms)
        rho0 = max(rho0, 1e-3)
        probe = sampling.sphere_points(n, samples, seed)
        vals = self._eval(probe)
        if np.min(vals) < -1e-12:
            raise DomainError("expression takes negative values; not usable here")
        M = 1.02 * float(np.max(vals)) + 1e-12
        inner = sampling.sphere_points_with_angle_ratio(n, k, samples // 2, seed + 1,
                                                        rho_max=rho0)
        m = 0.75 * float(np.min(self._eval(inner)))
        return SupportMeta(M=M, m=m, rho0=rho0, rho1=rho1)


def hamiltonian_from_expression(text, n, k, meta=None, **kw) -> ExpressionHamiltonian:
    return ExpressionHamiltonian(text, n=n, k=k, meta=meta, **kw)


def random_hamiltonian(n, k, seed, extra_terms=2, amplitude=1.0):
    """Seeded nonnegative compactly supported expression Hamiltonian:
    a plateau bump plus a few even-monomial bump terms."""
    g = sampling.rng(seed)
    a0 = g.uniform(0.4, 1.0)
    b0 = a0 + g.uniform(1.0, 2.2)
    c0 = amplitude * g.uniform(0.5, 1.0)
    parts = [f"{c0:.6g} * bump(rho; {a0:.6g}, {b0:.6g})"]
    coords = [f"x{j}" for j in range(1, n + 1)] + [f"y{j}" for j in range(1, n + 1)]
    for _ in range(extra_terms):
        c = amplitude * g.uniform(0.1, 0.5)
        a = g.uniform(0.3, 1.2)
        b = a + g.uniform(0.8, 2.0)
        var = coords[g.integers(0, len(coords))]
        p = 2 * int(g.integers(1, 3))
        parts.append(f"{c:.6g} * bump(rho; {a:.6g}, {b:.6g}) * mono({var}^{p})")
    return ExpressionHamiltonian(" + ".join(parts), n=n, k=k, meta_seed=seed)
