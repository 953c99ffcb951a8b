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

The parser emits a plan, the one form in which an expression is kept
(neither its text nor a parse tree is stored): the distinct bump
profiles, and per term its coefficient, the indices of its bumps and
its merged monomial powers.  Two kernels run that plan.  `eval_fn`
computes values only.  `grad_fn` is the fused kernel: one pass returns
(values, ambient gradients), computing rho and grad rho once and the
values and derivatives of all distinct bumps in one stacked (bumps,
rows) pass, however many terms share a bump.  The rho-part of every
term's product rule is summed into one coefficient per row, which
multiplies grad rho once; monomial parts are added column by column.
Integer powers are built by repeated squaring, never by `**`, and the
fused values are bitwise those of `eval_fn`.  A flow or
smoothed-map RK stage makes exactly one `grad_fn` call, and that call
checks nothing: the parser refuses every number that is not finite and
every bump without 0 <= a < b, and the constructor checks the (n, k)
split.

The plan also states exact facts in rho (`ContactHamiltonian`), read
from the bump ends alone.  `plateau_bump` returns exactly 1.0 at
rho <= a and exactly 0.0 at rho >= b, since its clip makes the step
polynomial exact there.  So `eval_fn` is exactly 0 from `zero_rho`, the
largest over terms of a term's least bump end, on.  When every merged
power is even (coefficients carry no sign in the grammar), every term
is at least 0 up to the profile's overshoot, and on rho <= `floor_rho`,
the least bump start of the pure-bump term (no monomial) with the
largest coefficient c, the sum is at least `floor` = c less
FLOOR_SLACK times the sum of all coefficients.

Both kernels take an (N, 2n) batch of rows in either memory layout.
The RK loop (`contact._lockstep_rk`) passes the rows of its live runs
stacked column-major (see `geometry`), so a coordinate `th[:, idx]` is
one contiguous vector; `grad_fn` allocates its gradient with
`zeros_like`, so the gradient comes back in the layout the batch came
in, and the bits do not depend on that layout.
"""
import re

import numpy as np

from .blends import _plateau_profile, plateau_bump
from .contact import ZERO_TOL, ContactHamiltonian, SupportMeta
from .errors import DomainError, ParseError
from .geometry import angle_ratio_and_gradient, angle_ratio_of, require_split
from . import sampling

# relative slack of the plan's floor, in sums of coefficients: a bump
# reads as low as -9.1e-14 (`blends.smoothstep` rounds up to 1 + 9.1e-14),
# so a nonnegative term can fall that far below 0 times its coefficient
FLOOR_SLACK = 1e-12

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
        self.bumps = []

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

    def number(self):
        """The next token as a finite float; a number that overflows to
        inf is refused by its text."""
        text = self.take("num")
        value = float(text)
        if not np.isfinite(value):
            raise ParseError(f"number {text} is not finite")
        return value

    def parse(self):
        """The plan: the distinct (a, b) bump profiles, and per term
        (coefficient, indices of its bumps, merged monomial powers as
        ((coordinate, power), ...))."""
        plan = [self.term()]
        while self.peek() == ("sym", "+"):
            self.take()
            plan.append(self.term())
        if self.i != len(self.toks):
            raise ParseError(f"trailing input near {self.peek()[1]!r}")
        return tuple(self.bumps), tuple(plan)

    def term(self):
        coeff = self.number()
        ids, powers = [], {}
        while self.peek() == ("sym", "*"):
            self.take()
            kind, val = self.factor()
            if kind == "bump":
                if val not in self.bumps:
                    self.bumps.append(val)
                ids.append(self.bumps.index(val))
            else:
                for idx, p in val:
                    powers[idx] = powers.get(idx, 0) + p
        if not ids:
            raise ParseError("every term needs a bump factor (compact support)")
        return coeff, tuple(ids), tuple(powers.items())

    def factor(self):
        k, v = self.peek()
        if (k, v) == ("name", "bump"):
            self.take()
            self.take("sym", "(")
            self.take("name", "rho")
            self.take("sym", ";")
            a = self.number()
            self.take("sym", ",")
            b = self.number()
            self.take("sym", ")")
            if not 0.0 <= a < b:
                raise ParseError(f"bump needs 0 <= a < b, got ({a}, {b})")
            return "bump", (a, b)
        if (k, v) == ("name", "mono"):
            self.take()
            self.take("sym", "(")
            powers = []
            while self.peek()[0] == "name":
                var = self.take("name")
                p = 1
                if self.peek() == ("sym", "^"):
                    self.take()
                    raw = self.number()
                    if raw != int(raw) or raw < 1:
                        raise ParseError(f"exponent must be a positive integer, got {raw}")
                    p = int(raw)
                powers.append((self._index(var), p))
            self.take("sym", ")")
            if not powers:
                raise ParseError("empty mono()")
            return "mono", tuple(powers)
        raise ParseError(f"expected bump or mono, got {v!r}")

    def _index(self, var):
        j = int(var[1:])
        if not 1 <= j <= self.n:
            raise ParseError(f"coordinate {var} outside 1..{self.n}")
        return (j - 1) if var[0] == "x" else (self.n + j - 1)


def _zero_rho(bumps, plan):
    """The least rho from which every term vanishes: the largest over
    terms of the term's least bump end."""
    return max(min(bumps[j][1] for j in ids) for _, ids, _ in plan)


def _floor(bumps, plan):
    """(floor_rho, floor): the sum is at least floor wherever
    rho <= floor_rho, from the pure-bump term with the largest
    coefficient; (-inf, -inf) when the plan has no pure-bump term or a
    term of odd power, which can be negative."""
    if any(p % 2 for _, _, powers in plan for _, p in powers):
        return -np.inf, -np.inf
    c, start = max(((c, min(bumps[j][0] for j in ids))
                    for c, ids, powers in plan if not powers),
                   default=(-np.inf, -np.inf))
    return start, c - FLOOR_SLACK * sum(c for c, _, _ in plan)


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


class ExpressionHamiltonian(ContactHamiltonian):
    """ContactHamiltonian backed by a parsed expression; its `grad_fn` is
    the fused value-and-gradient kernel."""

    def __init__(self, text: str, n: int, k: int, meta: SupportMeta = None,
                 meta_seed: int = 0):
        require_split(n, k)
        self._bumps, self._plan = _Parser(_tokenize(text), n).parse()
        # the distinct profiles as (bumps, 1) columns, for one stacked pass
        self._bump_cols = tuple(np.array(col)[:, None] for col in zip(*self._bumps))
        # every (coordinate, power) the gradient raises a column to: each
        # merged power p and, for p > 1, p - 1
        self._pow_keys = sorted({(idx, q) for _, _, powers in self._plan
                                 for idx, p in powers for q in (p, p - 1) if q})
        self.zero_rho = _zero_rho(self._bumps, self._plan)
        self.floor_rho, self.floor = _floor(self._bumps, self._plan)
        super().__init__(self._eval, k=k, n=n, meta=meta,
                         grad_fn=self._value_and_grad)
        if meta is None:
            self.meta = self._estimate_meta(meta_seed)

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
        """(values, ambient gradients) in one pass; see the module
        docstring.  th is an (N, 2n) float batch; nothing here checks it."""
        rho, grad_rho = angle_ratio_and_gradient(th, self.k)
        bv, bd = _plateau_profile(rho, *self._bump_cols)
        total = np.zeros(th.shape[0])
        c_rho = np.zeros(th.shape[0])
        grad = np.zeros_like(th)
        pows = {(idx, p): _ipow(th[:, idx], p) for idx, p in self._pow_keys}
        for coeff, ids, powers in self._plan:
            # bump product and its rho-derivative
            tv, dtv = coeff * bv[ids[0]], coeff * bd[ids[0]]
            for j in ids[1:]:
                dtv = dtv * bv[j] + tv * bd[j]
                tv = tv * bv[j]
            factors = [pows[key] for key in powers]
            for i, (idx, p) in enumerate(powers):
                part = tv if p == 1 else tv * (p * pows[idx, p - 1])
                for j, fv in enumerate(factors):
                    if j != i:
                        part = part * fv
                grad[:, idx] += part
            for fv in factors:
                tv *= fv
                dtv *= fv
            total += tv
            c_rho += dtv
        grad_rho *= c_rho[:, None]
        grad += grad_rho
        return total, grad

    # -- metadata -------------------------------------------------------
    def _estimate_meta(self, seed):
        """Metadata from 4000 seeded sphere probes and 2000 inner ones;
        rho1 is `zero_rho`, rho0 half the least bump start, floored at
        1e-3."""
        rho1 = self.zero_rho
        rho0 = max(0.5 * min(a for a, _ in self._bumps), 1e-3)
        probe = sampling.sphere_points(self.n, 4000, seed)
        vals = self._eval(probe)
        if np.min(vals) < -ZERO_TOL:
            raise DomainError("expression takes negative values; not usable here")
        M = 1.02 * float(np.max(vals)) + 1e-12
        inner = sampling.sphere_points_with_angle_ratio(self.n, self.k, 2000,
                                                        seed + 1, rho_max=rho0)
        m = 0.75 * float(np.min(self._eval(inner)))
        return SupportMeta(M=M, m=m, rho0=rho0, rho1=rho1)


def random_hamiltonian(n, k, seed, amplitude=1.0):
    """Seeded nonnegative compactly supported expression Hamiltonian:
    a plateau bump plus two even-monomial bump terms."""
    require_split(n, k)
    if not amplitude > 0:
        raise DomainError(f"amplitude must be positive, got {amplitude}")
    if not amplitude < np.inf:
        raise DomainError(f"amplitude must be finite, got {amplitude}")
    g = sampling.rng(seed)
    a0 = g.uniform(0.4, 1.0)
    b0 = a0 + g.uniform(1.0, 2.2)
    c0 = amplitude * g.uniform(0.5, 1.0)
    parts = [f"{c0:.6g} * bump(rho; {a0:.6g}, {b0:.6g})"]
    coords = [f"x{j}" for j in range(1, n + 1)] + [f"y{j}" for j in range(1, n + 1)]
    for _ in range(2):
        c = amplitude * g.uniform(0.1, 0.5)
        a = g.uniform(0.3, 1.2)
        b = a + g.uniform(0.8, 2.0)
        var = coords[g.integers(0, len(coords))]
        p = 2 * int(g.integers(1, 3))
        parts.append(f"{c:.6g} * bump(rho; {a:.6g}, {b:.6g}) * mono({var}^{p})")
    return ExpressionHamiltonian(" + ".join(parts), n=n, k=k, meta_seed=seed)
