"""Cascade file handling and the synthetic community generator.

Cascade files are UTF-8 text: one cascade per line, whitespace-separated raw
node ids in activation order, ``#`` lines ignored.  ``make_batches`` groups the
parsed cascades into batches, each a plain list of cascades, and neither checks
nor cuts them (``training.train`` does, once per run).  The synthetic generator
produces diffusion traces over planted communities together with a
node-to-community label sidecar.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from .numerics import RngState, _integer

log = logging.getLogger(__name__)


@dataclass
class Vocabulary:
    """Bijection between raw string node ids and dense indices [0, N):
    ``index`` maps ``ids[i]`` to i."""

    ids: List[str]
    index: Dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = dict(zip(self.ids, range(len(self.ids))))

    @property
    def size(self) -> int:
        return len(self.ids)


@dataclass
class ParsedCascades:
    cascades: List[List[int]]
    vocabulary: Vocabulary
    dropped_short: int


def _check_token(token: str, line_no: int) -> None:
    for ch in token:
        if ord(ch) < 0x20 or ch == "\x7f":
            raise ValueError(f"line {line_no}: malformed token {token!r}")


def parse_cascades(lines: Iterable[str], dedupe: bool = False) -> ParsedCascades:
    """Parse a cascade stream into index sequences plus the vocabulary.

    Cascades shorter than 2 nodes carry no prediction point and are dropped
    (counted in ``dropped_short``).  ``dedupe`` keeps only the first
    occurrence of a node within a cascade; by default repeats are kept.
    """
    raw_cascades: List[List[str]] = []
    dropped = 0
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        for tok in tokens:
            _check_token(tok, line_no)
        if dedupe:
            tokens = list(dict.fromkeys(tokens))
        if len(tokens) < 2:
            dropped += 1
            continue
        raw_cascades.append(tokens)
    if dropped:
        log.warning("dropped %d cascade(s) shorter than 2 nodes", dropped)

    # ids in order of first appearance
    vocab = Vocabulary(list(dict.fromkeys(chain.from_iterable(raw_cascades))))
    index = vocab.index
    cascades = [[index[t] for t in tokens] for tokens in raw_cascades]
    return ParsedCascades(cascades=cascades, vocabulary=vocab, dropped_short=dropped)


@dataclass
class DatasetSplit:
    train: List[List[int]]
    valid: List[List[int]]
    test: List[List[int]]
    split_seed: int


def split_dataset(cascades: Sequence[Sequence[int]], seed: int) -> DatasetSplit:
    """Seeded shuffle, then 80/10/10: floor-sized valid and test, remainder
    to train."""
    m = len(cascades)
    if m < 10:
        raise ValueError(f"need at least 10 cascades to split, got {m}")
    order = RngState(seed).permutation(m)
    shuffled = [list(cascades[i]) for i in order]
    n_valid = m // 10
    n_test = m // 10
    n_train = m - n_valid - n_test
    return DatasetSplit(
        train=shuffled[:n_train],
        valid=shuffled[n_train:n_train + n_valid],
        test=shuffled[n_train + n_valid:],
        split_seed=seed,
    )


def make_batches(cascades: Sequence[Sequence[int]], batch_size: int) -> List[List[Sequence[int]]]:
    """Group cascades in order into batches, each a list of at most ``batch_size``
    of them, as they are: nothing is checked or cut here."""
    _integer("batch_size", batch_size, 1)
    return [list(cascades[start:start + batch_size]) for start in range(0, len(cascades), batch_size)]


# ---------------------------------------------------------------------------
# synthetic multi-community diffusion


@dataclass
class SyntheticSpec:
    communities: int
    nodes_per_community: int
    cross_community_prob: float
    cascades: int
    length_range: Tuple[int, int]
    seed: int

    def __post_init__(self):
        for name, least in (("communities", 1), ("nodes_per_community", 1), ("cascades", 1), ("seed", None)):
            _integer(name, getattr(self, name), least)
        lo, hi = (_integer("length_range", end, 2) for end in self.length_range)
        if not 0.0 <= self.cross_community_prob <= 1.0:
            raise ValueError(f"cross_community_prob must be in [0,1], got {self.cross_community_prob}")
        if hi < lo:
            raise ValueError(f"length_range must satisfy min <= max, got {self.length_range}")


def generate_synthetic(spec: SyntheticSpec) -> Tuple[List[List[str]], Dict[str, int]]:
    """Diffusion traces over planted communities.

    A cascade starts at a uniform node of a uniform community; at each step
    it jumps to a uniformly chosen *other* community with probability
    ``cross_community_prob`` (when more than one exists), then infects a
    uniform not-yet-infected member of the current community.  An exhausted
    community forces a jump to one with nodes left when jumps are allowed,
    otherwise the cascade ends early.  Deterministic per seed.
    """
    rng = RngState(spec.seed)
    c, m = spec.communities, spec.nodes_per_community
    node_ids = [f"n{i}" for i in range(c * m)]
    labels = {node_ids[i]: i // m for i in range(c * m)}
    lo, hi = spec.length_range

    cascades: List[List[str]] = []
    for _ in range(spec.cascades):
        length = int(rng.integers(lo, hi + 1))
        # per-community pool of still-uninfected members, swap-removed
        pools = [list(range(com * m, (com + 1) * m)) for com in range(c)]
        com = int(rng.integers(c))
        seq: List[int] = []
        while len(seq) < length:
            if seq:  # the jump decision applies from the second node on
                if c > 1 and rng.random() < spec.cross_community_prob:
                    hop = int(rng.integers(c - 1))
                    com = hop if hop < com else hop + 1
            if not pools[com]:
                if spec.cross_community_prob <= 0.0:
                    break
                alive = [k for k in range(c) if pools[k]]
                if not alive:
                    break
                com = alive[int(rng.integers(len(alive)))]
            pool = pools[com]
            slot = int(rng.integers(len(pool)))
            node = pool[slot]
            pool[slot] = pool[-1]
            pool.pop()
            seq.append(node)
        cascades.append([node_ids[i] for i in seq])
    return cascades, labels


def write_synthetic(path_cascades, path_labels, cascades: Sequence[Sequence[str]], labels: Dict[str, int]) -> None:
    with open(path_cascades, "w", encoding="utf-8") as fh:
        for cascade in cascades:
            fh.write(" ".join(cascade) + "\n")
    with open(path_labels, "w", encoding="utf-8") as fh:
        for node_id, community in labels.items():
            fh.write(f"{node_id}\t{community}\n")
