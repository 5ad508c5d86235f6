"""Plain data types shared by the disk model and the ranking engine, and the
one encoding of every report and trace line."""

import json
from dataclasses import dataclass, fields

# Neighborhood kinds. "grid-row" treats every other block in the same row of the
# rows x cols grid as adjacent (track/sector analog). "contiguous" uses a window
# of +/- span addresses. "none" models random-access media: no spatial term at all.
GRID_ROW = "grid-row"
CONTIGUOUS = "contiguous"
NONE = "none"

# Spatial scores are a recomputed neighbor mean of full priority scores, which is
# a positive feedback loop at spatial weights >= 2, and ordinary runs reach the
# clamp: on a 16x16 grid-row disk (seed 0, coefficients 4,7,s,9) it is first hit
# at op 43 for s=2 and op 24 for s=3, and after 1000 ops 50% (s=2) and 66% (s=3)
# of unused blocks sit pinned at -SF_LIMIT. The clamp only keeps scores finite.
SF_LIMIT = 1e12


def canonical_json(value) -> str:
    """JSON with sorted keys and no whitespace: the byte form that reports
    and trace lines are compared and hashed in. The disk digest feeds its
    header and sibling lists to the hash in it too; block state never
    passes through it."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def field_dict(obj) -> dict:
    """A dataclass's fields by name, each tuple turned into a list, so the
    dict holds what its JSON decodes to. Values are not copied."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


@dataclass(frozen=True)
class Neighborhood:
    kind: str
    span: int = 0

    def __post_init__(self):
        if self.kind not in (GRID_ROW, CONTIGUOUS, NONE):
            raise ValueError(f"unknown neighborhood kind: {self.kind!r}")
        # the window sums allocate 2 * span + 1 entries, so a span is capped
        # like a disk; DiskGeometry is looked up only once a span is checked
        if self.kind == CONTIGUOUS and not 1 <= self.span <= DiskGeometry.MAX_BLOCKS:
            raise ValueError(
                f"contiguous neighborhood needs span in 1..{DiskGeometry.MAX_BLOCKS}"
            )

    @classmethod
    def parse(cls, text: str) -> "Neighborhood":
        """Accepts "grid-row", "none", or "contiguous:<span>"."""
        text = text.strip().lower()
        if text in (GRID_ROW, NONE):
            return cls(text)
        kind, _, rest = text.partition(":")
        if kind == CONTIGUOUS:
            try:
                span = int(rest)
            except ValueError:
                pass
            else:
                return cls(CONTIGUOUS, span)
        raise ValueError(f"cannot parse neighborhood: {text!r}")

    def __str__(self) -> str:
        if self.kind == CONTIGUOUS:
            return f"{CONTIGUOUS}:{self.span}"
        return self.kind


@dataclass(frozen=True)
class DiskGeometry:
    """Static shape of the modeled device.

    Addresses are row-major: block (r, c) lives at address r * cols + c.
    """

    rows: int = 16
    cols: int = 16
    block_size_bytes: int = 4096
    neighborhood: Neighborhood = Neighborhood(GRID_ROW)

    # Caps that reject a size before anything is allocated for it: every
    # per-block array holds rows * cols entries, and ext4's largest block
    # size is 64 KiB.
    MAX_BLOCKS = 2**20
    MAX_BLOCK_SIZE = 65536

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("geometry needs at least one row and one column")
        if self.rows * self.cols > self.MAX_BLOCKS:
            raise ValueError(
                f"{self.rows}x{self.cols} disk has more than {self.MAX_BLOCKS} blocks"
            )
        if not 1 <= self.block_size_bytes <= self.MAX_BLOCK_SIZE:
            raise ValueError(f"block size must lie in 1..{self.MAX_BLOCK_SIZE}")

    @property
    def total_blocks(self) -> int:
        return self.rows * self.cols

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "block_size_bytes": self.block_size_bytes,
            "neighborhood": str(self.neighborhood),
        }


@dataclass(frozen=True)
class Hyperparams:
    """Ranking coefficients: weights on the history, usage, spatial and linking
    factors of the block score. The tuner walks an integer lattice of these."""

    hist: int
    usage: int
    spatial: int
    link: int

    LATTICE_MIN = 1
    LATTICE_MAX = 10
    # Largest coefficient magnitude: with factor values below 2**32, every
    # integer score term stays exact in int64.
    LIMIT = 2**31 - 1

    def __post_init__(self):
        for c in self.as_tuple():
            if abs(c) > self.LIMIT:
                raise ValueError(f"coefficient {c} outside -{self.LIMIT}..{self.LIMIT}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.hist, self.usage, self.spatial, self.link)

    @classmethod
    def from_tuple(cls, t) -> "Hyperparams":
        h, u, s, l = t
        return cls(int(h), int(u), int(s), int(l))

    @classmethod
    def parse(cls, text: str) -> "Hyperparams":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated coefficients, got {text!r}")
        return cls.from_tuple(int(p) for p in parts)

    def in_lattice(self) -> bool:
        return all(
            self.LATTICE_MIN <= c <= self.LATTICE_MAX for c in self.as_tuple()
        )
