"""Synthetic formula generator and bitmap rasterizer.

Stands in for a TeX renderer at desk scale: a fixed 6x10 glyph atlas,
a box-model layout engine (left-to-right atoms, superscripts raised and
subscripts lowered by half a glyph height, fractions stacked around a
1-px bar), and a seeded mini-grammar that samples token sequences.
The pair (tokens, image) always round-trips: rasterize(tokens) equals
the stored image bit-for-bit.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import write_manifest, write_pgm

GLYPH_W = 6
GLYPH_H = 10
SUP_SHIFT = GLYPH_H // 2      # half glyph height, per the layout rules
MARGIN = 4
FRAC_BAR_PAD = 2              # bar width = max child width + 2


class SynthError(Exception):
    pass


class ParseError(SynthError):
    """Token sequence is not well formed under the mini-grammar."""


# 5x7 ink patterns; each glyph sits in rows 1..7 of a 6x10 cell with a
# blank spacing column on the right
_FONT = {
    "0": ".###.|#...#|#..##|#.#.#|##..#|#...#|.###.",
    "1": "..#..|.##..|..#..|..#..|..#..|..#..|.###.",
    "2": ".###.|#...#|....#|...#.|..#..|.#...|#####",
    "3": ".###.|#...#|....#|..##.|....#|#...#|.###.",
    "4": "...#.|..##.|.#.#.|#..#.|#####|...#.|...#.",
    "5": "#####|#....|####.|....#|....#|#...#|.###.",
    "6": ".###.|#....|#....|####.|#...#|#...#|.###.",
    "7": "#####|....#|...#.|..#..|.#...|.#...|.#...",
    "8": ".###.|#...#|#...#|.###.|#...#|#...#|.###.",
    "9": ".###.|#...#|#...#|.####|....#|....#|.###.",
    "a": ".....|.....|.###.|....#|.####|#...#|.####",
    "b": "#....|#....|####.|#...#|#...#|#...#|####.",
    "c": ".....|.....|.###.|#....|#....|#....|.###.",
    "d": "....#|....#|.####|#...#|#...#|#...#|.####",
    "e": ".....|.....|.###.|#...#|#####|#....|.###.",
    "f": "..##.|.#...|####.|.#...|.#...|.#...|.#...",
    "g": ".....|.####|#...#|#...#|.####|....#|.###.",
    "h": "#....|#....|####.|#...#|#...#|#...#|#...#",
    "i": "..#..|.....|.##..|..#..|..#..|..#..|.###.",
    "j": "...#.|.....|..##.|...#.|...#.|#..#.|.##..",
    "k": "#....|#....|#..#.|#.#..|##...|#.#..|#..#.",
    "l": ".##..|..#..|..#..|..#..|..#..|..#..|.###.",
    "m": ".....|.....|##.#.|#.#.#|#.#.#|#.#.#|#.#.#",
    "n": ".....|.....|####.|#...#|#...#|#...#|#...#",
    "o": ".....|.....|.###.|#...#|#...#|#...#|.###.",
    "p": ".....|####.|#...#|#...#|####.|#....|#....",
    "q": ".....|.####|#...#|#...#|.####|....#|....#",
    "r": ".....|.....|#.##.|##...|#....|#....|#....",
    "s": ".....|.....|.####|#....|.###.|....#|####.",
    "t": ".#...|.#...|####.|.#...|.#...|.#..#|..##.",
    "u": ".....|.....|#...#|#...#|#...#|#...#|.####",
    "v": ".....|.....|#...#|#...#|#...#|.#.#.|..#..",
    "w": ".....|.....|#.#.#|#.#.#|#.#.#|#.#.#|.#.#.",
    "x": ".....|.....|#...#|.#.#.|..#..|.#.#.|#...#",
    "y": ".....|#...#|#...#|.####|....#|#...#|.###.",
    "z": ".....|.....|#####|...#.|..#..|.#...|#####",
    "+": ".....|..#..|..#..|#####|..#..|..#..|.....",
    "-": ".....|.....|.....|#####|.....|.....|.....",
    "=": ".....|.....|#####|.....|#####|.....|.....",
    "(": "...#.|..#..|.#...|.#...|.#...|..#..|...#.",
    ")": ".#...|..#..|...#.|...#.|...#.|..#..|.#...",
}


def _build_atlas() -> dict[str, np.ndarray]:
    atlas = {}
    for ch, rows in _FONT.items():
        pattern = rows.split("|")
        assert len(pattern) == 7 and all(len(r) == 5 for r in pattern), ch
        cell = np.zeros((GLYPH_H, GLYPH_W), dtype=np.uint8)
        for r, row in enumerate(pattern, start=1):
            cell[r, :5] = [c == "#" for c in row]
        atlas[ch] = cell
    return atlas


GLYPH_ATLAS = _build_atlas()
GLYPH_CHARS = sorted(GLYPH_ATLAS)


@dataclass
class Box:
    """Bitmap with a vertical anchor row; hcat aligns anchors."""
    bitmap: np.ndarray      # uint8 (H, W), 1 = ink
    anchor: int

    @property
    def height(self) -> int:
        return self.bitmap.shape[0]

    @property
    def width(self) -> int:
        return self.bitmap.shape[1]


def _empty_box() -> Box:
    return Box(np.zeros((0, 0), dtype=np.uint8), 0)


def _glyph_box(ch: str) -> Box:
    return Box(GLYPH_ATLAS[ch].copy(), GLYPH_H // 2)


def hcat(boxes: list[Box]) -> Box:
    boxes = [b for b in boxes if b.width > 0 or b.height > 0]
    if not boxes:
        return _empty_box()
    above = max(b.anchor for b in boxes)
    below = max(b.height - b.anchor for b in boxes)
    h = above + below
    w = sum(b.width for b in boxes)
    out = np.zeros((h, w), dtype=np.uint8)
    x = 0
    for b in boxes:
        top = above - b.anchor
        out[top:top + b.height, x:x + b.width] |= b.bitmap
        x += b.width
    return Box(out, above)


def _overlay(boxes: list[Box]) -> Box:
    """Stack boxes at the same x position, anchors aligned."""
    boxes = [b for b in boxes if b.width > 0]
    if not boxes:
        return _empty_box()
    above = max(b.anchor for b in boxes)
    below = max(b.height - b.anchor for b in boxes)
    w = max(b.width for b in boxes)
    out = np.zeros((above + below, w), dtype=np.uint8)
    for b in boxes:
        top = above - b.anchor
        out[top:top + b.height, :b.width] |= b.bitmap
    return Box(out, above)


def _shifted(box: Box, up: int) -> Box:
    """Raise the box by `up` pixels relative to the baseline (negative lowers)."""
    return Box(box.bitmap, box.anchor + up)


def _frac_box(num: Box, den: Box) -> Box:
    w = max(num.width, den.width) + FRAC_BAR_PAD
    h = num.height + 1 + den.height
    out = np.zeros((h, w), dtype=np.uint8)
    nx = (w - num.width) // 2
    out[:num.height, nx:nx + num.width] = num.bitmap
    out[num.height, :] = 1                      # the bar
    dx = (w - den.width) // 2
    out[num.height + 1:, dx:dx + den.width] = den.bitmap
    return Box(out, num.height)                 # anchored on the bar row


# ---------------------------------------------------------------------
# parsing: tokens -> Box
# ---------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of token sequence")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r} at token {self.pos - 1}")

    def parse_sequence(self, stop: str | None = None) -> Box:
        boxes = []
        while True:
            tok = self.peek()
            if tok is None or tok == stop:
                break
            boxes.append(self.parse_item())
        return hcat(boxes)

    def parse_item(self) -> Box:
        base = self.parse_atom()
        scripts = []
        while self.peek() in ("^", "_"):
            mark = self.take()
            child = self.parse_atom()
            shift = SUP_SHIFT if mark == "^" else -SUP_SHIFT
            scripts.append(_shifted(child, shift))
        if not scripts:
            return base
        return hcat([base, _overlay(scripts)])

    def parse_atom(self) -> Box:
        tok = self.take()
        if tok == "{":
            inner = self.parse_sequence(stop="}")
            self.expect("}")
            return inner
        if tok == "\\frac":
            self.expect("{")
            num = self.parse_sequence(stop="}")
            self.expect("}")
            self.expect("{")
            den = self.parse_sequence(stop="}")
            self.expect("}")
            return _frac_box(num, den)
        if tok in GLYPH_ATLAS:
            return _glyph_box(tok)
        raise ParseError(f"unknown or misplaced token {tok!r} at position {self.pos - 1}")


def rasterize(tokens: list[str]) -> np.ndarray:
    """Token sequence -> (H, W) float image, white 1.0, ink 0.0.

    An empty sequence yields a blank margin-only canvas.  Malformed
    sequences raise ParseError.
    """
    parser = _Parser(tokens)
    box = parser.parse_sequence()
    if parser.peek() is not None:
        raise ParseError(f"unbalanced {parser.peek()!r} at token {parser.pos}")
    h = box.height + 2 * MARGIN
    w = box.width + 2 * MARGIN
    if h <= 0 or w <= 0:
        raise SynthError(f"layout produced a zero-size image ({h}x{w})")
    img = np.ones((h, w), dtype=np.float64)
    if box.height:
        img[MARGIN:MARGIN + box.height, MARGIN:MARGIN + box.width] -= box.bitmap
    return img


# ---------------------------------------------------------------------
# grammar sampling
# ---------------------------------------------------------------------

# the least value each generator setting takes
MINIMUMS = {"count": 0, "seed": 0, "max_depth": 0, "max_len": 1, "max_terms": 1}


@dataclass
class GrammarConfig:
    max_depth: int = 2        # nesting of frac / parens / scripts
    max_len: int = 40         # token budget per formula
    max_terms: int = 3        # infix terms at each level

    def validate(self) -> None:
        for name in ("max_depth", "max_len", "max_terms"):
            if getattr(self, name) < MINIMUMS[name]:
                raise SynthError(f"{name} must be at least {MINIMUMS[name]}, "
                                 f"got {getattr(self, name)}")


_ATOMS = [c for c in GLYPH_CHARS if c.isalnum()]
_OPS = ["+", "-", "="]


def _gen_atom(rng) -> list[str]:
    return [_ATOMS[rng.integers(len(_ATOMS))]]


def _gen_group(rng, cfg, depth) -> list[str]:
    return ["{"] + _gen_expr(rng, cfg, depth) + ["}"]


def _gen_term(rng, cfg, depth) -> list[str]:
    roll = rng.random()
    if depth < cfg.max_depth:
        if roll < 0.20:
            return ["\\frac"] + _gen_group(rng, cfg, depth + 1) + _gen_group(rng, cfg, depth + 1)
        if roll < 0.38:
            return _gen_atom(rng) + ["^"] + _gen_group(rng, cfg, depth + 1)
        if roll < 0.56:
            return _gen_atom(rng) + ["_"] + _gen_group(rng, cfg, depth + 1)
        if roll < 0.66:
            return ["("] + _gen_expr(rng, cfg, depth + 1) + [")"]
    return _gen_atom(rng)


def _gen_expr(rng, cfg, depth) -> list[str]:
    n_terms = int(rng.integers(1, cfg.max_terms + 1))
    tokens = _gen_term(rng, cfg, depth)
    for _ in range(n_terms - 1):
        tokens.append(_OPS[rng.integers(len(_OPS))])
        tokens.extend(_gen_term(rng, cfg, depth))
    return tokens


def gen_formula(seed: int, index: int, cfg: GrammarConfig | None = None) -> list[str]:
    """Deterministic formula for (seed, index); len <= cfg.max_len."""
    cfg = cfg or GrammarConfig()
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))
    for _ in range(20):
        tokens = _gen_expr(rng, cfg, depth=0)
        if len(tokens) <= cfg.max_len:
            return tokens
    return _gen_atom(rng)


def synth_generate(out_dir, count: int, seed: int,
                   cfg: GrammarConfig | None = None) -> dict:
    """Write `count` (image, tokens) pairs under out_dir.

    Produces images/NNNN.pgm plus manifest.tsv; identical (seed, config)
    inputs produce byte-identical trees.  Returns summary stats.
    """
    cfg = cfg or GrammarConfig()
    cfg.validate()
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    entries = []
    lengths = []
    sizes = []
    for i in range(count):
        tokens = gen_formula(seed, i, cfg)
        img = rasterize(tokens)
        rel = os.path.join("images", f"{i:04d}.pgm")
        write_pgm(os.path.join(out_dir, rel), img)
        entries.append((rel, tokens))
        lengths.append(len(tokens))
        sizes.append(img.shape)
    write_manifest(os.path.join(out_dir, "manifest.tsv"), entries)
    lengths_arr = np.array(lengths if lengths else [0])
    return {
        "count": count,
        "mean_len": float(lengths_arr.mean()),
        "median_len": float(np.median(lengths_arr)),
        "max_len": int(lengths_arr.max()),
        "distinct_tokens": len({t for _, toks in entries for t in toks}),
        "sizes": sizes,
    }
