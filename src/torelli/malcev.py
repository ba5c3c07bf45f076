"""Nilpotent truncations of the free group inside their Mal'cev completions.

Gamma_k is the free group on n = 2g generators modulo stage k-1 of its
lower central series (so Gamma_2 is the abelianization).  Its Mal'cev
completion is modeled on the rational points of the free nilpotent Lie
group of class c = k-1: an element is a group-like tensor, equal to
exp(x) for a unique Lie element x.  Elements are compared by their
tensors, which determine the log, so no log is computed to test
equality or to hash.

Integral structure comes from Mal'cev coordinates of the second kind:
every element of Gamma_k is uniquely a product, in basis order, of
integer powers of the basic commutators (the group words obtained by
reading each Hall tree as an iterated group commutator [x,y] = xyx^-1y^-1).
Peeling those exponents weight by weight gives the NormalForm; extending
the exponent vector by zeros in weight k gives the canonical section
Gamma_k -> Gamma_{k+1}, whose failure to be a homomorphism is the
extension cocycle c(g,h) = s(g) s(h) s(gh)^-1 with values in the
weight-k lattice L_{k+1}.  A context keeps one shared section element
per normal form and one cocycle value per pair of normal forms.

A context interns one element per free-group word, so the log and
normal form of a word are computed once, however often it occurs.  A
word's tensor is built letter by letter in one integer tensor
(coefficients at words of length r scaled by r!), so no Fraction
arithmetic is done until the word's element is made.  During the walk
the tensor is one dict per word length, keyed by integer codes of the
words, and each letter updates the lengths in descending order, so it
needs no snapshot of the entries it reads (see `MalcevContext._walk`).
A batch of words is walked as the trie of their prefixes, so a prefix
that several words share is walked once (see `MalcevContext.elements`).
No prefix is kept past the call that builds it: the walk holds, locally,
only snapshots of the scaled tensors at the branch depths of its current
path.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import comb, factorial

from .hall import HallBasis, LieElement, get_basis
from .sparse import add_into
from .tensor import TensorContext
from .words import MappingClassRep, Word, apply_endo, generator, generator_name

__all__ = [
    "MalcevContext",
    "get_context",
    "NilElement",
    "log_word",
    "bch",
    "is_in_torelli",
    "induced_lie_auto",
]

_ONE = {(): 1}


class NilElement:
    """An element of (the Mal'cev completion of) Gamma_k, stored group-like."""

    __slots__ = ("ctx", "tensor", "_log", "_nf", "_hash")

    def __init__(self, ctx: "MalcevContext", tensor: dict):
        if tensor.get((), 0) != 1:
            raise ValueError("group elements have constant term 1")
        self.ctx = ctx
        self.tensor = tensor
        self._log: LieElement | None = None
        self._nf: tuple[int, ...] | None = None
        self._hash: int | None = None

    @property
    def log(self) -> LieElement:
        if self._log is None:
            self._log = self.ctx.tc.to_lie(self.ctx.tc.log(self.tensor))
        return self._log

    def abelianization(self) -> dict[int, Fraction | int]:
        """Exponent vector {letter index: exponent} of the image in H.

        Read off the one-letter words of the tensor: the weight-1 part of
        log(1 + u) is the weight-1 part of u.
        """
        t = self.tensor
        return {i: t[(i + 1,)] for i in range(self.ctx.n) if (i + 1,) in t}

    def __mul__(self, other: "NilElement") -> "NilElement":
        if self.ctx is not other.ctx:
            raise ValueError("elements of different truncation levels")
        return NilElement(self.ctx, self.ctx.tc.mul(self.tensor, other.tensor))

    def inverse(self) -> "NilElement":
        """The inverse, by the antipode of the tensor algebra.  That needs
        a group-like tensor, which every element is: each comes from a
        word walk, exp, a product, `project` or a normal-form product.
        Nothing checks it, since a check would cost a product."""
        return NilElement(self.ctx, self.ctx.tc.inverse(self.tensor))

    def __pow__(self, e: int) -> "NilElement":
        # exact one-parameter subgroup power, valid for any integer e
        return self.ctx.exp_lie(self.log.scale(e))

    def is_identity(self) -> bool:
        return len(self.tensor) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NilElement):
            return NotImplemented
        if self.ctx.k != other.ctx.k or self.ctx.n != other.ctx.n:
            return False
        t1, t2 = self.tensor, other.tensor
        return len(t1) == len(t2) and all(t2.get(w) == v for w, v in t1.items())

    def __hash__(self) -> int:
        if self._hash is None:
            # hash(Fraction(2)) == hash(2), so equal tensors hash alike
            self._hash = hash((self.ctx.n, self.ctx.k, frozenset(self.tensor.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"NilElement(k={self.ctx.k}, log={self.log!r})"


class MalcevContext:
    """All level-k machinery for Gamma_k on n letters (class c = k-1)."""

    def __init__(self, n: int, k: int):
        if k < 2:
            raise ValueError("truncation level k must be >= 2")
        self.n = n
        self.k = k
        self.c = k - 1
        self.basis: HallBasis = get_basis(n, self.c)
        self.tc = TensorContext(self.basis)
        self._elements: dict[Word, NilElement] = {Word.make(()): self.identity()}
        self._cocycle: dict[tuple, LieElement] = {}
        self._sections: dict[tuple, NilElement] = {}
        self._powers: dict[tuple, dict] = {}
        n, c = self.n, self.c
        # letter s appended to a word of length r < c: [(r + m, n^m, code of
        # the run |s|^m, (+-1)^m C(r+m, m)) for m = 1..c-r], indexed by r
        self._steps: dict[int, list] = {
            s: [
                [(r + m, n**m, (abs(s) - 1) * sum(n**j for j in range(m)),
                  (1 if s > 0 else -1) ** m * comb(r + m, m))
                 for m in range(1, c - r + 1)]
                for r in range(c)
            ]
            for s in range(-n, n + 1)
            if s
        }
        # the word of each code, one table per length, filled on first use
        # so that equal words in different elements share one tuple
        self._words: list[dict[int, tuple]] = [{} for _ in range(c + 1)]

    # -- group elements from words -----------------------------------------

    def word_group(self, w: Word) -> NilElement:
        """The interned element of w; a new word is built in one walk over
        its letters.

        The walk keeps the prefix's tensor with the coefficient at each
        word u multiplied by |u|!.  These scaled entries are integers: the
        coefficient at u in exp(s_1 x_1) ... exp(s_l x_l) is a sum, over
        the ways of cutting u into consecutive runs x_1^{m_1} ...
        x_l^{m_l}, of prod_j s_j^{m_j} / m_j!, and |u|! / prod_j m_j! is a
        multinomial coefficient.  Appending the letter +-i sends the entry
        v at u (|u| = r) to (+-1)^m C(r+m, m) v at u i^m for m = 0..c-r,
        which is exp(+-x_i) on the right in scaled form, so a step is
        integer multiply-adds only.  The scaled tensor is held as one dict
        per word length r, keyed by the integer code of u in base n (see
        `_walk`).  Only w itself becomes a NilElement, with entries
        v / |u|!.
        """
        x = self._elements.get(w)
        if x is None:
            x = self._finish(w, self._walk(self._one(), w.letters))
        return x

    def _one(self) -> list[dict]:
        """The scaled tensor of the empty word, by length."""
        return [{0: 1}] + [{} for _ in range(self.c)]

    def _walk(self, layers: list[dict], letters) -> list[dict]:
        """Append letters to the scaled tensor in place; returns it.

        layers[r] maps the code sum_j (u_j - 1) n^(r-1-j) of a word u of
        length r to its scaled entry, so appending the run i^m is
        u * n^m + (code of i^m), in layer r + m.  Each letter reads the
        layers from r = c-1 down to 0: layer r is written only from
        shorter layers, which are read after it, so every step reads the
        entries from before the letter without a copy.  Words of length c
        cannot grow, and layer c is never read.
        """
        top = self.c - 1
        for s in letters:
            steps = self._steps.get(s)
            if steps is None:
                raise ValueError(
                    f"letter {generator_name(abs(s))} is out of range: "
                    f"Gamma_{self.k} has {self.n} generators"
                )
            for r in range(top, -1, -1):
                src = layers[r]
                for rm, pw, run, f in steps[r]:
                    dst = layers[rm]
                    get = dst.get
                    for u, v in src.items():
                        key = u * pw + run
                        nv = get(key, 0) + f * v
                        if nv:
                            dst[key] = nv
                        else:
                            del dst[key]
        return layers

    def _finish(self, w: Word, layers: list[dict]) -> NilElement:
        """Intern w's element from its scaled tensor, which is left as is."""
        n = self.n
        out = {}
        for r, layer in enumerate(layers):
            words = self._words[r]
            d = factorial(r)
            for code, v in layer.items():
                u = words.get(code)
                if u is None:
                    digits = []
                    rest = code
                    for _ in range(r):
                        rest, i = divmod(rest, n)
                        digits.append(i + 1)
                    u = words[code] = tuple(reversed(digits))
                q, rem = divmod(v, d)
                out[u] = Fraction(v, d) if rem else q
        x = self._elements[w] = NilElement(self, out)
        return x

    def elements(self, words) -> dict[Word, NilElement]:
        """The interned elements of many words, the new ones built in one
        walk over the trie of their prefixes.

        Sorted by letters, each new word w_j shares its first
        lcp_j = LCP(w_{j-1}, w_j) letters with the word before it, and the
        walk continues w_j from a snapshot of the scaled layers at depth
        lcp_j, so it walks sum_j (|w_j| - lcp_j) letters: every letter of
        every distinct prefix once, the edges of the trie.  A later word
        w_l leaves w_j's path at depth min(lcp_{j+1}, ..., lcp_l), so the
        walk of w_j takes a snapshot at each depth of that chain of
        next-smaller LCPs past lcp_j (one scan from the right finds them
        all).  Snapshots stay on a stack of the current path; neither
        they nor the branch prefixes are interned, and only the elements
        of the words outlive the call.
        """
        out: dict[Word, NilElement] = {}
        new = []
        for w in set(words):
            x = self._elements.get(w)
            if x is None:
                new.append(w)
            else:
                out[w] = x
        new.sort(key=lambda w: w.letters)
        seqs = [w.letters for w in new]
        lcps = [0] * len(seqs)
        for j in range(1, len(seqs)):
            a, b = seqs[j - 1], seqs[j]
            d, m = 0, min(len(a), len(b))
            while d < m and a[d] == b[d]:
                d += 1
            lcps[j] = d
        # cuts[j]: depths past lcp_j at which later words leave w_j's path,
        # read off a stack of the next-smaller LCPs, increasing upwards
        cuts: list = [None] * len(seqs)
        chain: list[int] = []
        for j in range(len(seqs) - 1, -1, -1):
            cuts[j] = chain[bisect_right(chain, lcps[j]):]
            while chain and chain[-1] >= lcps[j]:
                chain.pop()
            chain.append(lcps[j])
        path = [(0, self._one())]  # (depth, scaled layers) snapshots on the path
        for w, letters, done, depths in zip(new, seqs, lcps, cuts):
            while path[-1][0] > done:
                path.pop()
            layers = [dict(layer) for layer in path[-1][1]]
            for d in depths:
                self._walk(layers, letters[done:d])
                path.append((d, layers if d == len(letters) else [dict(l) for l in layers]))
                done = d
            self._walk(layers, letters[done:])
            out[w] = self._finish(w, layers)
        return out

    def element(self, w: Word) -> NilElement:
        """The one shared element of a word; it caches its log and normal form."""
        return self.word_group(w)

    def log_word(self, w: Word) -> LieElement:
        return self.element(w).log

    def identity(self) -> NilElement:
        return NilElement(self, dict(_ONE))

    def exp_lie(self, x: LieElement) -> NilElement:
        return NilElement(self, self.tc.exp(self.tc.from_lie(x)))

    def bch(self, x: LieElement, y: LieElement) -> LieElement:
        return (self.exp_lie(x) * self.exp_lie(y)).log

    def up(self) -> "MalcevContext":
        return get_context(self.n, self.k + 1)

    def project(self, x: NilElement) -> NilElement:
        """Image of an element of Gamma_{k+1} in Gamma_k (drop weight k)."""
        if x.ctx.k != self.k + 1 or x.ctx.n != self.n:
            raise ValueError("project expects an element one level up")
        t = {w: v for w, v in x.tensor.items() if len(w) <= self.c}
        return NilElement(self, t)

    # -- basic commutators and second-kind coordinates ----------------------

    def basic_word(self, index: int) -> Word:
        """Basis element index as an iterated group commutator word: a
        bracket [l, r] becomes the commutator of the words of l and r."""
        lr = self.basis.children[index]
        if lr is None:
            return generator(index + 1)
        u, v = self.basic_word(lr[0]), self.basic_word(lr[1])
        return u * v * ~u * ~v

    def basic_log(self, index: int) -> LieElement:
        return self.log_word(self.basic_word(index))

    def _basic_power(self, index: int, e) -> dict:
        """The tensor of basic(index)^e, as exp(e * basic_log(index)), built
        once per (index, e).  Callers must not mutate it."""
        key = (index, e)
        t = self._powers.get(key)
        if t is None:
            t = self._powers[key] = self.tc.exp(
                self.tc.from_lie(self.basic_log(index).scale(e))
            )
        return t

    def normal_form(self, x: NilElement) -> tuple[int, ...]:
        """Integer exponents of the collected form prod_i basic(i)^{e_i}.

        Peels weight by weight: before weight w the remainder is 1 plus
        words of length >= w, so its weight-w words are the weight-w part
        of its log, and their Hall coordinates are the weight-w exponents.
        Each basic(i)^{e_i} then comes off the left of the remainder as
        exp(-e_i basic_log(i)), the inverse of exp(e_i basic_log(i)).
        Raises if x is not in the integral lattice Gamma_k.
        """
        if x._nf is not None:
            return x._nf
        exps: list[int] = [0] * self.basis.dim
        rem = x.tensor
        for w in range(1, self.c + 1):
            coords = self.tc.to_lie({wd: v for wd, v in rem.items() if len(wd) == w})
            for i in self.basis.weight_range(w):
                e = coords.terms.get(i, 0)
                if e:
                    if e.denominator != 1:
                        raise ValueError(
                            f"element is not integral: weight-{w} exponent {e} "
                            f"at basis index {i}"
                        )
                    exps[i] = int(e)
                    rem = self.tc.mul(self._basic_power(i, -e), rem)
        if len(rem) != 1:
            raise ArithmeticError("peeling left a nontrivial remainder")
        out = tuple(exps)
        x._nf = out
        return out

    def from_normal_form(self, exps) -> NilElement:
        exps = tuple(exps)
        if len(exps) > self.basis.dim:
            raise ValueError("exponent vector longer than the basis")
        ints = tuple(map(int, exps))
        if ints != exps:
            raise ValueError(f"exponents must be integers: {exps}")
        exps = ints
        t = dict(_ONE)
        for i, e in enumerate(exps):
            if e:
                t = self.tc.mul(t, self._basic_power(i, e))
        out = NilElement(self, t)
        out._nf = exps + (0,) * (self.basis.dim - len(exps))
        return out

    def section(self, x: NilElement) -> NilElement:
        """Zero-extension of the normal form: the canonical set-theoretic
        section Gamma_k -> Gamma_{k+1} of the central extension.

        The context keeps one level-(k+1) element per normal form, so
        elements with equal normal forms share one section, built once."""
        nf = self.normal_form(x)
        s = self._sections.get(nf)
        if s is None:
            s = self._sections[nf] = self.up().from_normal_form(nf)
        return s

    def cocycle(self, g: NilElement, h: NilElement) -> LieElement:
        """c(g,h) = s(g) s(h) s(gh)^-1, a weight-k integral Lie element
        over the class-k basis (an element of the lattice L_{k+1}).

        The product is exp(z) with z central of weight k, which the class-k
        truncation makes exactly 1 + z, so z is read off without a log.
        """
        key = (self.normal_form(g), self.normal_form(h))
        cached = self._cocycle.get(key)
        if cached is not None:
            return cached
        t = (self.section(g) * self.section(h) * self.section(g * h).inverse()).tensor
        if any(w and len(w) != self.k for w in t):
            raise ArithmeticError("cocycle not concentrated in weight k")
        val = self.up().tc.to_lie({w: v for w, v in t.items() if w})
        if not val.is_integral():
            raise ArithmeticError("cocycle left the integral lattice")
        self._cocycle[key] = val
        return val

    # -- induced maps --------------------------------------------------------

    def induced_lie_auto(self, phi: MappingClassRep) -> tuple[LieElement, ...]:
        """Columns (by basis index) of the induced Lie algebra endomorphism.

        Letters go to the log of their image word; a bracket [l, r] goes to
        the bracket of the columns of l and r, so the result is the unique
        bracket-compatible extension.
        """
        cols: list[LieElement] = []
        for i, lr in enumerate(self.basis.children):
            if lr is None:
                cols.append(self.log_word(phi.images[i]))
            else:
                cols.append(cols[lr[0]].bracket(cols[lr[1]]))
        return tuple(cols)

    def __repr__(self) -> str:
        return f"MalcevContext(n={self.n}, k={self.k})"


_contexts: dict[tuple[int, int], MalcevContext] = {}


def get_context(n: int, k: int) -> MalcevContext:
    ctx = _contexts.get((n, k))
    if ctx is None:
        ctx = _contexts[(n, k)] = MalcevContext(n, k)
    return ctx


# -- level-indexed conveniences mirroring the operation names ---------------


def log_word(w: Word, n: int, k: int) -> LieElement:
    return get_context(n, k).log_word(w)


def bch(x: LieElement, y: LieElement) -> LieElement:
    ctx = get_context(x.basis.n, x.basis.c + 1)
    return ctx.bch(x, y)


def is_in_torelli(phi: MappingClassRep, k: int) -> bool:
    """Does phi act trivially on Gamma_k?  (Level-k Torelli membership.)"""
    ctx = get_context(2 * phi.g, k)
    return all(
        ctx.element(im) == ctx.element(generator(i + 1))
        for i, im in enumerate(phi.images)
    )


def induced_lie_auto(phi: MappingClassRep, k: int) -> tuple[LieElement, ...]:
    return get_context(2 * phi.g, k).induced_lie_auto(phi)


def act_lie(cols: tuple[LieElement, ...], x: LieElement) -> LieElement:
    """Apply columns of a Lie endomorphism to an element, linearly."""
    out: dict = {}
    for i, v in x.terms.items():
        add_into(out, cols[i].terms, v)
    return LieElement(x.basis, out)
