import re

import numpy as np
import pytest

from casdis import data as dt


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_line():
    parsed = dt.parse_cascades(["a b c\n"])
    assert parsed.cascades == [[0, 1, 2]]
    assert parsed.vocabulary.size == 3
    assert parsed.dropped_short == 0


def test_parse_drops_short_cascades_and_their_private_ids():
    parsed = dt.parse_cascades(["a\n", "b c\n"])
    assert parsed.dropped_short == 1
    assert len(parsed.cascades) == 1
    assert parsed.vocabulary.size == 2
    assert "a" not in parsed.vocabulary.index


def test_parse_comments_and_blank_lines():
    parsed = dt.parse_cascades(["# header\n", "\n", "x y\n", "   \n"])
    assert len(parsed.cascades) == 1


def test_parse_vocab_counts_distinct_tokens():
    lines = [
        "u1 u2 u3\n", "u2 u4\n", "u5 u1 u1\n", "u6 u7 u8 u9\n", "u2 u3\n",
        "u10 u11\n", "u4 u5\n", "u1 u6\n", "u12 u2\n", "u3 u13\n",
    ]
    parsed = dt.parse_cascades(lines)
    # oracle: independent distinct-token count over kept lines
    distinct = {tok for line in lines for tok in line.split()}
    assert parsed.vocabulary.size == len(distinct)


def test_parse_malformed_token_names_line():
    with pytest.raises(ValueError, match="line 2"):
        dt.parse_cascades(["a b\n", "ok\x01bad x\n"])


def test_parse_refuses_a_byte_order_mark_decoded_into_the_first_id():
    with pytest.raises(ValueError, match=r"^line 1: malformed token '\\ufeffa'$"):
        dt.parse_cascades(["\ufeffa b\n"])


# what str.split() leaves inside a token: C0 controls other than \t-\r and \x1c-\x1f, DEL, and U+FEFF
_REFUSED = {*range(0x00, 0x09), *range(0x0E, 0x1C), 0x7F, 0xFEFF}


@pytest.mark.parametrize("code", [*range(0x80), 0x85, 0xA0, 0x2028, 0xFEFF], ids=hex)
def test_parse_refuses_exactly_the_characters_a_token_must_not_hold(code):
    ch = chr(code)
    line = f"x a{ch}b c{ch}d\n"
    if code in _REFUSED:
        with pytest.raises(ValueError, match=f"^line 1: malformed token {re.escape(repr(f'a{ch}b'))}$"):
            dt.parse_cascades([line])
    else:
        parsed = dt.parse_cascades([line])
        tokens = line.split()  # a whitespace character splits the token, any other stays in it
        assert parsed.vocabulary.ids == list(dict.fromkeys(tokens))
        assert parsed.cascades == [[parsed.vocabulary.index[t] for t in tokens]]


def test_parse_dedupe_flag():
    parsed = dt.parse_cascades(["a b a c b\n"], dedupe=True)
    assert parsed.cascades == [[0, 1, 2]]
    kept = dt.parse_cascades(["a b a c b\n"])
    assert kept.cascades == [[0, 1, 0, 2, 1]]


def test_parse_round_trip():
    lines = ["a b c\n", "d a\n", "c c b\n", "e f g h\n", "a e\n",
             "b d\n", "f g\n", "h a\n", "c e\n", "g b\n"]
    parsed = dt.parse_cascades(lines)
    rendered = [" ".join(parsed.vocabulary.ids[i] for i in c) for c in parsed.cascades]
    reparsed = dt.parse_cascades([l + "\n" for l in rendered])
    assert reparsed.cascades == parsed.cascades


# ---------------------------------------------------------------------------
# splitting


def test_split_ten_cascades():
    cascades = [[0, 1]] * 10
    split = dt.split_dataset(cascades, seed=0)
    assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)


def test_split_is_deterministic():
    cascades = [[i, i + 1] for i in range(30)]
    a = dt.split_dataset(cascades, seed=5)
    b = dt.split_dataset(cascades, seed=5)
    assert a.train == b.train and a.valid == b.valid and a.test == b.test
    c = dt.split_dataset(cascades, seed=6)
    assert (a.train, a.valid, a.test) != (c.train, c.valid, c.test)


def test_split_103_cascades():
    cascades = [[i, i + 1] for i in range(103)]
    split = dt.split_dataset(cascades, seed=1)
    assert (len(split.train), len(split.valid), len(split.test)) == (83, 10, 10)


def test_split_partitions_exactly():
    cascades = [[i, i + 1, i + 2] for i in range(47)]
    split = dt.split_dataset(cascades, seed=2)
    assert len(split.train) + len(split.valid) + len(split.test) == 47
    seen = [tuple(c) for c in split.train + split.valid + split.test]
    assert sorted(seen) == sorted(tuple(c) for c in cascades)


@pytest.mark.parametrize("seed", [1.5, "7", True], ids=["float", "string", "bool"])
def test_split_refuses_a_seed_that_is_not_an_integer(seed):
    # each was cut to an integer: split_dataset(c, 1.5) split as seed 1 and recorded 1.5
    cascades = [[i, i + 1] for i in range(30)]
    with pytest.raises(ValueError, match="seed must be an integer"):
        dt.split_dataset(cascades, seed)
    assert dt.split_dataset(cascades, np.int64(5)) == dt.split_dataset(cascades, 5)


def test_split_too_few():
    with pytest.raises(ValueError):
        dt.split_dataset([[0, 1]] * 9, seed=0)


# ---------------------------------------------------------------------------
# batching


@pytest.mark.parametrize("cascades, batch_size, expect", [
    ([[3, 1, 2]], 1, [[[3, 1, 2]]]),
    ([[1, 2, 3], [4, 5, 6, 7, 8]], 2, [[[1, 2, 3], [4, 5, 6, 7, 8]]]),
    ([[0, 1]] * 7, 3, [[[0, 1]] * 3, [[0, 1]] * 3, [[0, 1]]]),
    ([[], [2, 0]], 2, [[[], [2, 0]]]),
], ids=["single", "unequal", "ceiling", "empty"])
def test_batches_hold_the_cascades_in_order(cascades, batch_size, expect):
    assert dt.make_batches(cascades, batch_size) == expect


def test_batches_reject_bad_size():
    with pytest.raises(ValueError, match="^batch_size must be >= 1,"):
        dt.make_batches([[0, 1]], batch_size=0)


@pytest.mark.parametrize("batch_size", [True, 2.0, "2"], ids=["bool", "float", "string"])
def test_batches_refuse_a_size_that_is_not_an_integer(batch_size):
    # True made batches of one cascade
    with pytest.raises(ValueError, match="batch_size must be an integer"):
        dt.make_batches([[0, 1]] * 3, batch_size)


# ---------------------------------------------------------------------------
# synthetic generator


def spec(**kwargs):
    base = dict(
        communities=2,
        nodes_per_community=20,
        cross_community_prob=0.1,
        cascades=50,
        length_range=(4, 10),
        seed=7,
    )
    base.update(kwargs)
    return dt.SyntheticSpec(**base)


def test_synth_no_jumps_stays_in_one_community():
    cascades, labels = dt.generate_synthetic(spec(cross_community_prob=0.0))
    for cascade in cascades:
        communities = {labels[v] for v in cascade}
        assert len(communities) == 1


def test_synth_single_community_constant_labels():
    cascades, labels = dt.generate_synthetic(spec(communities=1, nodes_per_community=30))
    assert set(labels.values()) == {0}
    assert len(labels) == 30


def test_synth_jump_frequency_matches_cross_prob():
    # oracle: Monte Carlo frequency of label changes between consecutive nodes;
    # communities are huge so forced switches never happen
    big = spec(
        communities=2,
        nodes_per_community=5000,
        cross_community_prob=0.3,
        cascades=1200,
        length_range=(10, 10),
        seed=13,
    )
    cascades, labels = dt.generate_synthetic(big)
    jumps = total = 0
    for cascade in cascades:
        for a, b in zip(cascade, cascade[1:]):
            total += 1
            jumps += labels[a] != labels[b]
    assert total >= 10_000
    assert abs(jumps / total - 0.3) < 0.02


def test_synth_mixed_community_cascades_occur():
    cascades, labels = dt.generate_synthetic(spec(cross_community_prob=0.3, cascades=100))
    mixed = sum(1 for c in cascades if len({labels[v] for v in c}) > 1)
    assert mixed > 0


def test_synth_deterministic_per_seed():
    a, _ = dt.generate_synthetic(spec())
    b, _ = dt.generate_synthetic(spec())
    assert a == b
    c, _ = dt.generate_synthetic(spec(seed=8))
    assert a != c


def test_synth_no_repeats_within_cascade():
    cascades, _ = dt.generate_synthetic(spec(cascades=200))
    for cascade in cascades:
        assert len(set(cascade)) == len(cascade)


def test_synth_lengths_within_range():
    cascades, _ = dt.generate_synthetic(spec(length_range=(5, 9), cascades=100))
    assert all(5 <= len(c) <= 9 for c in cascades)


def test_synth_spec_validation():
    # a size or seed that is not an integer was taken: 2.5 communities failed later with a
    # TypeError, (2.5, 4) drew lengths from 2, True cascades gave one cascade and seed 1.5
    # generated seed 1's cascades
    bad = [dict(cross_community_prob=1.5), dict(length_range=(1, 5)), dict(communities=0),
           dict(communities=2.5), dict(nodes_per_community=5.0), dict(cascades=True),
           dict(length_range=(2.5, 4)), dict(length_range=(4, "9")),
           dict(seed=1.5), dict(seed="7"), dict(seed=True)]
    for fields in bad:
        with pytest.raises(ValueError):
            spec(**fields)
    assert dt.generate_synthetic(spec(communities=np.int64(2))) == dt.generate_synthetic(spec())
    # an integer one below its least value is refused by its name ("communities, nodes_per_community
    # and cascades must be positive" named all three), and the least value itself is accepted
    for name, least in (("communities", 1), ("nodes_per_community", 1), ("cascades", 1)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least},"):
            spec(**{name: least - 1})
        spec(**{name: least})
    with pytest.raises(ValueError, match="^length_range must be >= 2,"):
        spec(length_range=(1, 5))
    spec(length_range=(2, 2))


def test_synth_write_files(tmp_path):
    cascades, labels = dt.generate_synthetic(spec(cascades=10, nodes_per_community=5))
    cpath, lpath = tmp_path / "cascades.txt", tmp_path / "labels.tsv"
    dt.write_synthetic(cpath, lpath, cascades, labels)
    lines = cpath.read_text().splitlines()
    assert len(lines) == 10
    label_lines = lpath.read_text().splitlines()
    assert len(label_lines) == 10  # 2 communities x 5 nodes
    node, comm = label_lines[0].split("\t")
    assert node == "n0" and comm == "0"
    # the sidecar and the generator agree
    reread = {l.split("\t")[0]: int(l.split("\t")[1]) for l in label_lines}
    assert reread == labels
