"""Construction and parsing of scalar sets A, B and translate sets H.

Set-spec grammar (one line, no whitespace significance):

    scalar := "ap:" int "," int "," count
            | "gp:" int "," int "," count
            | "random:" count ["," seed]
            | "list:" int ("," int)*
            | "invunion:" scalar
    hspec  := "cart:" scalar ";" scalar
            | "randomh:" count ["," seed]
            | "listh:" pair (";" pair)*        pair := int "," int

Integers are arbitrary-sign decimals (ASCII digits) reduced mod p.  Random
specs draw uniformly without replacement from random.Random(seed)
(random_translates for randomh:), so a (p, spec, seed) triple always names
the same set.  ap: and gp: stop where their sequence repeats, and every
spec that generates elements reserves their bytes (_reserve) first.
"""

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyInput, InvalidSpec, ModulusMismatch, _reserve
from .field import Fp, check_prime
from .moebius import Translate, _mod


@dataclass(frozen=True)
class ScalarSet:
    """Sorted, deduplicated residues mod p."""

    p: int
    elements: tuple[int, ...]

    def __post_init__(self):
        p = check_prime(self.p).p  # an odd prime, or NotAPrime
        object.__setattr__(self, "elements", tuple(sorted({e % p for e in self.elements})))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _sorted_set(p: int, elements: tuple) -> ScalarSet:
    """The ScalarSet of elements that are distinct residues mod p in ascending
    order already, taken as they are: no second reduction and sort."""
    S = object.__new__(ScalarSet)
    object.__setattr__(S, "p", p)
    object.__setattr__(S, "elements", elements)
    return S


@dataclass(frozen=True)
class TranslateSet:
    """Deduplicated (a, b) pairs mod p, sorted lexicographically."""

    p: int
    elements: tuple[Translate, ...]

    def __post_init__(self):
        p = check_prime(self.p).p  # an odd prime, or NotAPrime
        object.__setattr__(
            self, "elements", tuple(sorted({(a % p, b % p) for a, b in self.elements}))
        )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


# tracemalloc peak bytes per residue of a scalar spec and per translate of a
# translate spec (212 and 498 measured, where a set's hash table has just grown)
_RESIDUE_BYTES, _TRANSLATE_BYTES = 256, 576


def _sample_bytes(population: int, k: int, per: int) -> int:
    """per bytes for each of k elements random.sample draws from range(population),
    and 36 for each of the population where sample copies it to a list, as it
    does when that is at most 21 + 4^ceil(log4 3k)."""
    return per * k + 36 * population * (population <= 21 + 4 ** math.ceil(math.log(3 * k, 4)))


def _take_int(text: str, pos: int) -> tuple[int, int]:
    # Longest arbitrary-sign decimal starting at pos; InvalidSpec otherwise.
    j = pos
    if j < len(text) and text[j] in "+-":
        j += 1
    k = j
    while k < len(text) and "0" <= text[k] <= "9":
        k += 1
    if k == j:
        raise InvalidSpec("expected an integer", position=pos)
    return int(text[pos:k]), k


def _take_count(text: str, pos: int) -> tuple[int, int]:
    n, k = _take_int(text, pos)
    if n < 1:
        raise InvalidSpec(f"element count must be >= 1, got {n}", position=pos)
    return n, k


def _expect(text: str, pos: int, ch: str) -> int:
    if pos >= len(text) or text[pos] != ch:
        raise InvalidSpec(f"expected {ch!r}", position=pos)
    return pos + 1


def _parse_scalar(text: str, pos: int, F: Fp, default_seed: int) -> tuple[ScalarSet, int]:
    p = F.p
    if text.startswith("ap:", pos) or text.startswith("gp:", pos):
        kind = text[pos : pos + 2]
        i = pos + 3
        start, i = _take_int(text, i)
        i = _expect(text, i, ",")
        step_pos = i
        step, i = _take_int(text, i)
        i = _expect(text, i, ",")
        n, i = _take_count(text, i)
        step %= p
        if step == 0:
            word = "step" if kind == "ap" else "ratio"
            raise InvalidSpec(f"{kind} {word} is 0 mod {p}", position=step_pos)
        # x repeats once back at its start: after p terms (ap:), the ratio's order (gp:)
        _reserve(f"{kind}: set spec", _RESIDUE_BYTES * min(n, p))
        x, elems = start % p, []
        for _ in range(n):
            elems.append(x)
            x = (x + step if kind == "ap" else x * step) % p
            if x == elems[0]:
                break
        return ScalarSet(p, tuple(elems)), i
    if text.startswith("random:", pos):
        i = pos + 7
        n, i = _take_count(text, i)
        seed = default_seed
        if i < len(text) and text[i] == ",":
            seed, i = _take_int(text, i + 1)
        if n > p:
            raise InvalidSpec(f"random count {n} exceeds field size {p}", position=pos)
        _reserve("random: set spec", _sample_bytes(p, n, _RESIDUE_BYTES))
        elems = random.Random(seed).sample(range(p), n)
        return ScalarSet(p, tuple(elems)), i
    if text.startswith("list:", pos):
        i = pos + 5
        elems = []
        v, i = _take_int(text, i)
        elems.append(v)
        while i < len(text) and text[i] == ",":
            v, i = _take_int(text, i + 1)
            elems.append(v)
        return ScalarSet(p, tuple(elems)), i
    if text.startswith("invunion:", pos):
        inner, i = _parse_scalar(text, pos + 9, F, default_seed)
        _reserve("invunion: set spec", _RESIDUE_BYTES * 2 * len(inner))  # the inverses join the set
        # 0 has no inverse and contributes only itself.
        elems = list(inner.elements) + [F.inv(e) for e in inner.elements if e != 0]
        return ScalarSet(p, tuple(elems)), i
    raise InvalidSpec("expected one of ap:/gp:/random:/list:/invunion:", position=pos)


def _parse_hspec(text: str, pos: int, F: Fp, default_seed: int) -> tuple[TranslateSet, int]:
    p = F.p
    if text.startswith("cart:", pos):
        first, i = _parse_scalar(text, pos + 5, F, default_seed)
        i = _expect(text, i, ";")
        second, i = _parse_scalar(text, i, F, default_seed)
        _reserve("cart: set spec", _TRANSLATE_BYTES * len(first) * len(second))
        return gen_cartesian(first, second), i
    if text.startswith("randomh:", pos):
        i = pos + 8
        n, i = _take_count(text, i)
        seed = default_seed
        if i < len(text) and text[i] == ",":
            seed, i = _take_int(text, i + 1)
        if n > p * p:
            raise InvalidSpec(f"randomh count {n} exceeds p^2 = {p * p}", position=pos)
        _reserve("randomh: set spec", _sample_bytes(p * p, n, _TRANSLATE_BYTES))
        return random_translates(random.Random(seed), p, n), i
    if text.startswith("listh:", pos):
        i = pos + 6
        pairs = []
        a, i = _take_int(text, i)
        i = _expect(text, i, ",")
        b, i = _take_int(text, i)
        pairs.append((a, b))
        while i < len(text) and text[i] == ";":
            a, i = _take_int(text, i + 1)
            i = _expect(text, i, ",")
            b, i = _take_int(text, i)
            pairs.append((a, b))
        return TranslateSet(p, tuple(pairs)), i
    raise InvalidSpec("expected one of cart:/randomh:/listh:", position=pos)


def random_translates(rng: random.Random, p: int, n: int) -> TranslateSet:
    """n distinct translates (a, b) drawn by rng as the indices a p + b:
    rng.sample(range(p^2), n) where len(range(p^2)) fits (p^2 <= sys.maxsize),
    rng.randrange(p^2) until n distinct indices are drawn above."""
    if p * p <= sys.maxsize:
        flat = rng.sample(range(p * p), n)
    else:
        flat = set()
        while len(flat) < n:
            flat.add(rng.randrange(p * p))
    return TranslateSet(p, tuple(divmod(v, p) for v in flat))


def parse_setspec(text: str, F: Fp, default_seed: int = 0) -> ScalarSet | TranslateSet:
    """Materialize a scalar or translate set from its spec string."""
    s = text.strip()
    if s.startswith(("cart:", "randomh:", "listh:")):
        out, end = _parse_hspec(s, 0, F, default_seed)
    else:
        out, end = _parse_scalar(s, 0, F, default_seed)
    if end != len(s):
        raise InvalidSpec("trailing characters after set spec", position=end)
    return out


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of a UTF-8 file;
    a file that cannot be read or decoded is an InvalidSpec."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidSpec(f"cannot read {path}: {e}") from e
    return [(ln, s) for ln, line in enumerate(text.split("\n"), start=1) if (s := line.strip())]


def _file_int(field: str) -> int:
    """An integer field of an @path file or a scan row, read as a spec reads
    one (_take_int), blanks around it allowed; InvalidSpec otherwise."""
    s = field.strip()
    v, end = _take_int(s, 0)
    if end != len(s):
        raise InvalidSpec("trailing characters after an integer", position=end)
    return v


def read_scalar_file(path: str, F: Fp) -> ScalarSet:
    """One integer literal per line; blank lines ignored."""
    elems = []
    for ln, s in _read_lines(path):
        try:
            elems.append(_file_int(s))
        except InvalidSpec:
            raise InvalidSpec(f"{path}:{ln}: expected an integer, got {s!r}") from None
    if not elems:
        raise InvalidSpec(f"{path}: no elements")
    return ScalarSet(F.p, tuple(elems))


def read_translate_file(path: str, F: Fp) -> TranslateSet:
    """One 'a,b' pair per line; blank lines ignored."""
    pairs = []
    for ln, s in _read_lines(path):
        try:
            a, b = map(_file_int, s.split(","))  # ValueError unless two fields
        except (InvalidSpec, ValueError):
            raise InvalidSpec(f"{path}:{ln}: expected 'a,b', got {s!r}") from None
        pairs.append((a, b))
    if not pairs:
        raise InvalidSpec(f"{path}: no pairs")
    return TranslateSet(F.p, tuple(pairs))


def gen_cartesian(B: ScalarSet, C: ScalarSet) -> TranslateSet:
    """All |B|*|C| translates (a, b) with a in B, b in C."""
    if B.p != C.p:
        raise ModulusMismatch(f"cartesian product across moduli {B.p} and {C.p}")
    return TranslateSet(B.p, tuple((a, b) for a in B for b in C))


def max_line_multiplicity(H: TranslateSet) -> int:
    """M = the largest number of translates sharing an abscissa or ordinate."""
    if len(H) == 0:
        raise EmptyInput("max_line_multiplicity of an empty translate set")
    rows = Counter(a for a, _ in H)
    cols = Counter(b for _, b in H)
    return max(max(rows.values()), max(cols.values()))


def sumset(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    """A + B = {a + b mod p}, from the |A||B| keys of counts' keyed pass."""
    from .counts import _residue_set  # counts imports this module
    return _residue_set("sumset", A, B, lambda p, x, y: _mod(x + y, p))


def difference_set(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    """A - B = {a - b mod p}, from the |A||B| keys of counts' keyed pass."""
    from .counts import _residue_set  # counts imports this module
    return _residue_set("difference set", A, B, lambda p, x, y: _mod(x - y, p))
