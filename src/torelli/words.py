"""Words in a free group and automorphisms that fix the boundary word.

The surface group of a genus-g surface with one boundary component is free
on 2g generators a1, b1, ..., ag, bg.  A word is a reduced string of signed
letters; the boundary word is the product of commutators

    ell = [a1,b1][a2,b2]...[ag,bg],   [x,y] = x y x^-1 y^-1.

Mapping classes of the bordered surface act on the free group fixing ell
exactly (not just up to conjugacy), so here a mapping class is an
automorphism given by generator images together with the images under its
inverse.  No automorphism recognition is attempted: inverses are data.

Letters are encoded as nonzero ints: +i is generator number i (1-based in
the order a1, b1, a2, b2, ...), -i its inverse.  Words are interned so that
equal words are the same object and hashing is cheap.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "Word",
    "word",
    "generator",
    "generator_name",
    "generator_index",
    "commutator",
    "conjugate",
    "boundary_word",
    "MappingClassRep",
    "apply_endo",
    "compose",
    "verify_mapping_class",
    "h_action",
    "identity_mapping_class",
    "catalog",
    "parse_word",
    "parse_automorphism",
    "format_word",
]


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for s in letters:
        if s == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


_MAKE = object()  # Word.make's token: direct construction would skip interning


class Word:
    """A reduced word in the free group, interned."""

    __slots__ = ("letters", "_hash")

    _intern: dict[tuple[int, ...], "Word"] = {}

    def __init__(self, letters: tuple[int, ...], _token: object = None):
        if _token is not _MAKE:
            raise TypeError("use word(...) to build words")
        self.letters = letters
        self._hash = hash(letters)

    @staticmethod
    def make(letters: Iterable[int]) -> "Word":
        key = _reduce(letters)
        w = Word._intern.get(key)
        if w is None:
            w = Word._intern[key] = Word(key, _MAKE)
        return w

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if not self.letters:
            return other
        if not other.letters:
            return self
        return Word.make(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word.make(tuple(-s for s in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return _EMPTY
        base = self if n > 0 else ~self
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Word) and self.letters == other.letters)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"word({format_word(self)!r})" if self.letters else "word('')"


def word(letters: Iterable[int] | str) -> Word:
    """Build a word from signed letter ints, or parse from text like 'a1 b1^-1'."""
    if isinstance(letters, str):
        return parse_word(letters)
    return Word.make(letters)


_EMPTY = Word.make(())


def generator(index: int) -> Word:
    """Generator number `index` (1-based) as a one-letter word."""
    if index < 1:
        raise ValueError("generator index is 1-based")
    return Word.make((index,))


def generator_name(index: int) -> str:
    """1 -> 'a1', 2 -> 'b1', 3 -> 'a2', ..."""
    handle, parity = divmod(index - 1, 2)
    return ("a" if parity == 0 else "b") + str(handle + 1)


def generator_index(name: str) -> int:
    """'a1' -> 1, 'b1' -> 2, 'a2' -> 3, ..."""
    kind, num = name[0], name[1:]
    if kind not in "ab" or not num.isdigit() or int(num) < 1:
        raise ValueError(f"bad generator name {name!r}")
    return 2 * (int(num) - 1) + (1 if kind == "a" else 2)


def commutator(x: Word, y: Word) -> Word:
    return x * y * ~x * ~y


def conjugate(x: Word, by: Word) -> Word:
    """by * x * by^-1."""
    return by * x * ~by


def boundary_word(g: int) -> Word:
    """ell = [a1,b1]...[ag,bg] for genus g >= 1."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    out = _EMPTY
    for i in range(g):
        out = out * commutator(generator(2 * i + 1), generator(2 * i + 2))
    return out


class MappingClassRep:
    """An automorphism fixing the boundary word, given by its generator
    images and, optionally, the images under its inverse.

    The inverse images are caller-supplied data; verify_mapping_class checks
    that both compositions are the identity and that ell is fixed exactly.
    Equality and hashing read the images only: the name and the inverse
    data are bookkeeping, the automorphism is its images.
    """

    __slots__ = ("g", "images", "inverse_images", "name")

    def __init__(
        self,
        g: int,
        images: Iterable[Word],
        inverse_images: Iterable[Word] | None,
        name: str | None = None,
    ):
        self.g = g
        self.images = _check_images(g, images)
        self.inverse_images = (
            None if inverse_images is None else _check_images(g, inverse_images)
        )
        self.name = name

    def inverse(self) -> "MappingClassRep":
        if self.inverse_images is None:
            raise ValueError("no inverse images were supplied")
        nm = None
        if self.name:
            nm = " ".join(_invert_token(t) for t in reversed(self.name.split()))
        return MappingClassRep(self.g, self.inverse_images, self.images, nm)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MappingClassRep)
            and self.g == other.g
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.g, self.images))

    def __repr__(self) -> str:
        return f"MappingClassRep(g={self.g}, name={self.name!r})"


def _check_images(g: int, images: Iterable[Word]) -> tuple[Word, ...]:
    out = tuple(images)
    if len(out) != 2 * g:
        raise ValueError(f"need {2 * g} images, got {len(out)}")
    for im in out:
        for s in im:
            if abs(s) > 2 * g:
                raise ValueError(f"image uses generator {abs(s)} beyond 2g={2 * g}")
    return out


def _invert_token(tok: str) -> str:
    return tok[:-3] if tok.endswith("^-1") else tok + "^-1"


def apply_endo(phi: MappingClassRep, w: Word) -> Word:
    """Image of w under phi: the letter images, concatenated and freely
    reduced once by Word.make."""
    out: list[int] = []
    for s in w:
        im = phi.images[abs(s) - 1].letters
        out.extend(im if s > 0 else [-t for t in reversed(im)])
    return Word.make(out)


def compose(*factors: MappingClassRep) -> MappingClassRep:
    """The composite f1 . f2 . ... . fn, so (f1 . f2)(x) = f1(f2(x)).

    The composite has inverse images when every factor has them, and a
    name, the factors' names joined by spaces, when every factor has one.
    """
    if not factors:
        raise ValueError("compose needs at least one mapping class")
    g = factors[0].g
    if any(f.g != g for f in factors):
        raise ValueError("genus mismatch")
    images = factors[-1].images
    for f in reversed(factors[:-1]):
        images = tuple(apply_endo(f, im) for im in images)
    inv = None
    if all(f.inverse_images is not None for f in factors):
        inv = factors[0].inverse_images
        for f in factors[1:]:
            f_inv = f.inverse()
            inv = tuple(apply_endo(f_inv, im) for im in inv)
    nm = None
    if all(f.name for f in factors):
        nm = " ".join(f.name for f in factors)
    return MappingClassRep(g, images, inv, nm)


def identity_mapping_class(g: int) -> MappingClassRep:
    gens = tuple(generator(i) for i in range(1, 2 * g + 1))
    return MappingClassRep(g, gens, gens, "id")


def verify_mapping_class(rep: MappingClassRep) -> bool:
    """True iff rep has honest inverses and fixes the boundary word exactly."""
    if rep.inverse_images is None:
        raise ValueError(
            "verification needs inverse images; supply them explicitly "
            "(automorphism recognition is out of scope)"
        )
    inv = rep.inverse()
    for i in range(1, 2 * rep.g + 1):
        x = generator(i)
        if apply_endo(rep, apply_endo(inv, x)) != x:
            return False
        if apply_endo(inv, apply_endo(rep, x)) != x:
            return False
    ell = boundary_word(rep.g)
    return apply_endo(rep, ell) == ell


def h_action(phi: MappingClassRep) -> tuple[tuple[int, ...], ...]:
    """Induced matrix on H1: column j is the exponent-sum vector of phi(x_{j+1})."""
    n = 2 * phi.g
    cols = []
    for im in phi.images:
        col = [0] * n
        for s in im:
            col[abs(s) - 1] += 1 if s > 0 else -1
        cols.append(col)
    # stored row-major: entry [i][j] = coefficient of x_{i+1} in phi(x_{j+1})
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


# z on a1, b1, a2, b2: (image, inverse image)
_Z_WORDS = (
    ("a1 b1^-1 a2", "a1 a2^-1 b1"),
    ("a2^-1 b1 a2", "b1^-1 a2 b1 a2^-1 b1"),
    ("a2^-1 b1 a2 b1^-1 a2", "b1^-1 a2 b1"),
    ("b2 b1^-1 a2", "b2 a2^-1 b1"),
)


def catalog(g: int) -> dict[str, MappingClassRep]:
    """Named, verified mapping classes for genus g >= 2.

    t{i}:    a_i -> a_i b_i             (transvection along b_i)
    u{i}:    b_i -> b_i a_i             (transvection along a_i)
    conj_l:  x -> ell x ell^-1          (boundary twist)
    sep1:    conjugation of the first handle by gamma = [a1,b1]
    z:       a boundary-fixing automorphism of handles 1-2 whose action
             on H1 mixes them; it fixes the other generators
    P:       u2^-1 u2^-1 (z u1 t1^-1)^4, a bounding-pair map from the
             chain relation (Farb-Margalit, A Primer on Mapping Class
             Groups): trivial on H1, with a nonzero Johnson value at k=2,
             so its commutators reach deeper levels
    """
    if g < 2:
        raise ValueError("catalog needs genus >= 2")
    gens = tuple(generator(i) for i in range(1, 2 * g + 1))
    out: dict[str, MappingClassRep] = {}

    def add(name: str, moved: dict[int, tuple[Word, Word]]) -> None:
        # generator i + 1 -> moved[i] = (image, inverse image); others fixed
        ims, inv = list(gens), list(gens)
        for i, (im, iv) in moved.items():
            ims[i], inv[i] = im, iv
        out[name] = MappingClassRep(g, ims, inv, name)

    for i in range(g):
        a, b = gens[2 * i], gens[2 * i + 1]
        add(f"t{i + 1}", {2 * i: (a * b, a * ~b)})
        add(f"u{i + 1}", {2 * i + 1: (b * a, b * ~a)})

    ell = boundary_word(g)
    add("conj_l", {i: (conjugate(x, ell), conjugate(x, ~ell)) for i, x in enumerate(gens)})

    gamma = commutator(gens[0], gens[1])
    add("sep1", {i: (conjugate(gens[i], gamma), conjugate(gens[i], ~gamma)) for i in (0, 1)})

    add("z", {i: (parse_word(im), parse_word(iv)) for i, (im, iv) in enumerate(_Z_WORDS)})
    t1, u1, u2, z = (out[name] for name in ("t1", "u1", "u2", "z"))
    p = compose(u2.inverse(), u2.inverse(), *[z, u1, t1.inverse()] * 4)
    out["P"] = MappingClassRep(g, p.images, p.inverse_images, "P")

    for name, rep in out.items():
        if not verify_mapping_class(rep):
            raise ArithmeticError(f"catalog entry {name} failed verification")
    return out


# ---------------------------------------------------------------------------
# text format: words are whitespace-separated tokens 'a1', 'b2^-1', 'a1^3';
# an automorphism file has one line per generator, 'a1 -> a1 b1', with an
# optional 'inverse' line followed by the same block for the inverse images.


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


def _parse_token(tok: str, line: int, col: int) -> tuple[int, int]:
    name, caret, exp = tok.partition("^")
    try:
        idx = generator_index(name)
    except ValueError:
        raise ParseError(f"unknown generator {name!r}", line, col) from None
    power = 1
    if caret:
        try:
            power = int(exp)
        except ValueError:
            raise ParseError(f"bad exponent {exp!r}", line, col) from None
        if power == 0:
            raise ParseError("zero exponent", line, col)
    return idx, power


def _parse_word_tokens(text: str, line: int = 1, col_base: int = 0) -> Word:
    letters: list[int] = []
    pos = 0
    for tok in text.split():
        col = col_base + text.index(tok, pos) + 1
        pos = text.index(tok, pos) + len(tok)
        idx, power = _parse_token(tok, line, col)
        letters.extend([idx if power > 0 else -idx] * abs(power))
    return Word.make(letters)


def parse_word(text: str) -> Word:
    """Parse a word like 'a1 b1^-1 a1^-1'.  Empty text is the identity."""
    return _parse_word_tokens(text)


def format_word(w: Word) -> str:
    """Inverse of parse_word, with adjacent equal letters grouped as powers."""
    if not w:
        return ""
    parts: list[str] = []
    run, run_len = w.letters[0], 1
    for s in list(w.letters[1:]) + [0]:
        if s == run:
            run_len += 1
            continue
        name = generator_name(abs(run))
        exp = run_len if run > 0 else -run_len
        parts.append(name if exp == 1 else f"{name}^{exp}")
        run, run_len = s, 1
    return " ".join(parts)


def parse_automorphism(text: str, g: int, name: str | None = None) -> MappingClassRep:
    """Parse an automorphism description.

    One line per generator, 'a1 -> a1 b1'; unlisted generators are fixed.
    A line consisting of the word 'inverse' starts the block for the inverse
    images (same syntax).  Without that block the result has no inverse data
    and operations requiring verification will reject it.
    """
    blocks: list[dict[int, Word]] = [{}]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip() == "inverse":
            if len(blocks) > 1:
                raise ParseError("duplicate 'inverse' marker", lineno, 1)
            blocks.append({})
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError("expected 'gen -> image'", lineno, 1)
        lhs_tok = lhs.split()
        if len(lhs_tok) != 1:
            raise ParseError("left side must be a single generator", lineno, 1)
        idx, power = _parse_token(lhs_tok[0], lineno, line.index(lhs_tok[0]) + 1)
        if power != 1:
            raise ParseError("left side must be a bare generator", lineno, 1)
        if idx > 2 * g:
            raise ParseError(f"generator {lhs_tok[0]} beyond genus {g}", lineno, 1)
        block = blocks[-1]
        if idx in block:
            raise ParseError(f"duplicate line for {generator_name(idx)}", lineno, 1)
        block[idx] = _parse_word_tokens(rhs, lineno, len(lhs) + len(arrow))
    images = tuple(blocks[0].get(i, generator(i)) for i in range(1, 2 * g + 1))
    inv = None
    if len(blocks) > 1:
        inv = tuple(blocks[1].get(i, generator(i)) for i in range(1, 2 * g + 1))
    return MappingClassRep(g, images, inv, name)
