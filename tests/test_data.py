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


def test_parse_dedupe_flag():
    parsed = dt.parse_cascades(["a b a c b\n"], dedupe=True)
    assert parsed.cascades == [[0, 1, 2]]
    kept = dt.parse_cascades(["a b a c b\n"])
    assert kept.cascades == [[0, 1, 0, 2, 1]]


def test_parse_round_trip():
    lines = ["a b c\n", "d a\n", "c c b\n", "e f g h\n", "a e\n",
             "b d\n", "f g\n", "h a\n", "c e\n", "g b\n"]
    parsed = dt.parse_cascades(lines)
    rendered = dt.format_cascade_lines(parsed.cascades, parsed.vocabulary)
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


def test_split_too_few():
    with pytest.raises(ValueError):
        dt.split_dataset([[0, 1]] * 9, seed=0)


# ---------------------------------------------------------------------------
# batching


def _pad_mask(batch):
    """True exactly at the padding slots that ``lengths`` implies."""
    return np.arange(batch.indices.shape[1]) >= batch.lengths[:, None]


def test_batches_single_cascade():
    (batch,) = dt.make_batches([[3, 1, 2]], batch_size=1)
    assert batch.indices.shape == (1, 3)
    assert not _pad_mask(batch).any()
    assert batch.lengths.tolist() == [3]


def test_batches_padding():
    (batch,) = dt.make_batches([[1, 2, 3], [4, 5, 6, 7, 8]], batch_size=2)
    assert batch.indices.shape == (2, 5)
    assert _pad_mask(batch)[0].tolist() == [False, False, False, True, True]
    assert (batch.indices[0, 3:] == dt.PAD).all()
    assert batch.indices[0, :batch.lengths[0]].tolist() == [1, 2, 3]


def test_batches_ceiling_division():
    batches = dt.make_batches([[0, 1]] * 7, batch_size=3)
    assert [len(b.lengths) for b in batches] == [3, 3, 1]


def test_batches_truncate_to_max_len():
    (batch,) = dt.make_batches([list(range(10))], batch_size=1, max_len=4)
    assert batch.indices[0, :batch.lengths[0]].tolist() == [0, 1, 2, 3]


def test_batch_indices_in_range_or_pad():
    rng = np.random.default_rng(0)
    cascades = [rng.integers(0, 20, size=rng.integers(2, 9)).tolist() for _ in range(13)]
    for batch in dt.make_batches(cascades, batch_size=4):
        pad = _pad_mask(batch)
        real = batch.indices[~pad]
        assert (real < 20).all() and (real >= 0).all()
        assert (batch.indices[pad] == dt.PAD).all()


def test_batches_reject_bad_size():
    with pytest.raises(ValueError):
        dt.make_batches([[0, 1]], batch_size=0)


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
    with pytest.raises(ValueError):
        spec(cross_community_prob=1.5)
    with pytest.raises(ValueError):
        spec(length_range=(1, 5))
    with pytest.raises(ValueError):
        spec(communities=0)


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
