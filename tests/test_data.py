"""Vocabulary, PGM I/O, manifests and bucketing."""
import numpy as np
import pytest

from img2latex import data
from img2latex.data import (DataError, END_ID, PAD_ID, PgmError, RESERVED,
                            START_ID, UNK_ID, Vocabulary, assign_bucket,
                            bucket_and_pad, build_vocab, Example, load_buckets,
                            load_dataset, load_manifest, model_size, pad_image,
                            plan_batches, read_pgm, read_pgm_raw, write_manifest,
                            write_pgm)


# ---------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------

def test_sentinel_ids_are_pinned():
    assert (PAD_ID, UNK_ID, START_ID, END_ID) == (0, 1, 2, 3)
    assert RESERVED == ("<PAD>", "<UNK>", "<START>", "<END>")


def test_vocabulary_reserves_sentinels_first():
    v = Vocabulary.from_corpus([["b", "a"], ["a", "c"]])
    assert v.tokens[:4] == list(RESERVED)
    assert v.tokens[4:] == ["a", "b", "c"]
    assert v.id_of("a") == 4
    assert v.id_of("never-seen") == UNK_ID


@pytest.mark.parametrize("token", [7, ["x"], None])
def test_vocabulary_rejects_a_token_that_is_not_a_string(token):
    with pytest.raises(DataError, match="must be strings"):
        Vocabulary(list(RESERVED) + ["a", token])


def test_vocabulary_rejects_duplicates():
    with pytest.raises(DataError):
        Vocabulary(list(RESERVED) + ["a", "a"])


def test_build_vocab_unions_manifests(tmp_path):
    write_manifest(str(tmp_path / "a.tsv"), [("i.pgm", ["a", "b"])])
    write_manifest(str(tmp_path / "b.tsv"), [("j.pgm", ["b", "c"])])
    v = build_vocab([str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")])
    assert v.tokens[4:] == ["a", "b", "c"]


# ---------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------

def write_fixture(path, img, binary, comments=()):
    """img as a binary PGM through write_pgm, or as the text of a plain
    (P2) PGM at maxval 255, which write_pgm does not write."""
    if binary:
        write_pgm(path, img, comments=comments)
        return
    rows = [" ".join(str(v) for v in row) for row in np.rint(img * 255).astype(int)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(["P2", *(f"# {c}" for c in comments),
                            f"{img.shape[1]} {img.shape[0]}", "255", *rows]) + "\n")


@pytest.mark.parametrize("binary", [True, False])
def test_pgm_round_trip(tmp_path, binary):
    img = np.linspace(0, 1, 48).reshape(6, 8)
    path = str(tmp_path / "x.pgm")
    write_fixture(path, img, binary)
    back = read_pgm(path)
    assert back.shape == (6, 8)
    assert np.max(np.abs(back - img)) <= 0.5 / 255


def test_pgm_16bit_uses_two_bytes(tmp_path):
    path = str(tmp_path / "x.pgm")
    write_pgm(path, np.array([[0.0, 1.0]]), maxval=65535)
    raw, maxval = read_pgm_raw(path)
    assert maxval == 65535
    assert raw.tolist() == [[0, 65535]]


def test_pgm_comments_preserved_and_skipped(tmp_path):
    path = str(tmp_path / "x.pgm")
    write_pgm(path, np.zeros((2, 2)), comments=("alpha-pixel-total 99",))
    text = open(path, "rb").read()
    assert b"# alpha-pixel-total 99" in text
    assert read_pgm(path).shape == (2, 2)


def test_pgm_truncated_payload_reports_offset(tmp_path):
    path = str(tmp_path / "x.pgm")
    write_pgm(path, np.zeros((4, 4)))
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:-3])
    with pytest.raises(PgmError, match="byte"):
        read_pgm(path)


def test_pgm_bad_magic_and_maxval(tmp_path):
    path = str(tmp_path / "x.pgm")
    path2 = str(tmp_path / "y.pgm")
    with open(path, "wb") as f:
        f.write(b"P7\n1 1\n255\n\x00")
    with pytest.raises(PgmError):
        read_pgm(path)
    with open(path2, "wb") as f:
        f.write(b"P5\n1 1\n70000\n\x00\x00\x00")
    with pytest.raises(PgmError):
        read_pgm(path2)


def test_pgm_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "x.pgm")
    write_pgm(path, np.zeros((2, 2)))
    with open(path, "ab") as f:
        f.write(b"\x00\x00")
    with pytest.raises(PgmError):
        read_pgm(path)


@pytest.mark.parametrize("binary", [True, False])
def test_fuzzed_pgm_raises_only_pgm_error(tmp_path, binary):
    # seeded truncations and byte flips over a small image with a comment
    path = str(tmp_path / "x.pgm")
    img = np.random.default_rng(5).random((5, 7))
    write_fixture(path, img, binary, comments=("fuzz",))
    blob = open(path, "rb").read()
    rng = np.random.default_rng(20261018 + binary)
    cases = [blob[:n] for n in rng.integers(0, len(blob), size=40)]
    for _ in range(300):
        b = bytearray(blob)
        for pos in rng.integers(0, len(b), size=rng.integers(1, 4)):
            b[pos] = int(rng.integers(0, 256))
        cases.append(bytes(b))
    for case in cases:
        with open(path, "wb") as f:
            f.write(case)
        try:
            read_pgm(path)
        except PgmError as exc:
            assert "\n" not in str(exc)


def test_pgm_write_is_deterministic(tmp_path):
    img = np.random.default_rng(0).random((5, 9))
    a, b = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
    write_pgm(a, img)
    write_pgm(b, img)
    assert open(a, "rb").read() == open(b, "rb").read()


# ---------------------------------------------------------------------
# manifests and datasets
# ---------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    entries = [("images/0000.pgm", ["a", "+", "b"]), ("images/0001.pgm", ["c"])]
    path = str(tmp_path / "m.tsv")
    write_manifest(path, entries)
    assert load_manifest(path) == entries


def test_manifest_missing_tab_names_line(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("images/0.pgm a b\n")
    with pytest.raises(DataError, match=":1"):
        load_manifest(str(path))


@pytest.mark.parametrize("token", RESERVED)
def test_manifest_refuses_reserved_tokens_by_line(tmp_path, token):
    path = tmp_path / "m.tsv"
    path.write_text(f"images/0.pgm\ta b\nimages/1.pgm\ta {token} b\n")
    with pytest.raises(DataError, match=f":2: token '{token}' is reserved"):
        load_manifest(str(path))
    # a token that merely contains one is content
    path.write_text(f"images/0.pgm\ta{token} b\n")
    assert load_manifest(str(path)) == [("images/0.pgm", [f"a{token}", "b"])]


def test_load_dataset_resolves_relative_paths(tmp_path):
    img = np.zeros((8, 8))
    (tmp_path / "images").mkdir()
    write_pgm(str(tmp_path / "images" / "x.pgm"), img)
    write_manifest(str(tmp_path / "m.tsv"), [("images/x.pgm", ["a"])])
    ds = load_dataset(str(tmp_path / "m.tsv"))
    assert len(ds) == 1 and ds[0].tokens == ["a"]
    assert ds[0].image.shape == (8, 8)


# ---------------------------------------------------------------------
# buckets, padding, batching
# ---------------------------------------------------------------------

def test_load_buckets_parses_and_validates(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# grid\n32 24\n64 48\n")
    assert load_buckets(str(p)) == [(32, 24), (64, 48)]
    p.write_text("33 24\n")
    with pytest.raises(DataError):
        load_buckets(str(p))


def test_assign_bucket_smallest_fitting_by_area():
    buckets = [(64, 48), (32, 24), (64, 24)]
    assert assign_bucket(20, 30, buckets) == (32, 24)
    assert assign_bucket(24, 60, buckets) == (64, 24)
    assert assign_bucket(100, 10, buckets) is None


def test_pad_image_white_bottom_right():
    img = np.zeros((2, 3))
    out = pad_image(img, 4, 5)
    assert out.shape == (4, 5)
    assert np.array_equal(out[:2, :3], img)
    assert out[2:, :].min() == 1.0 and out[:, 3:].min() == 1.0


def make_examples(sizes, tokens=("a",)):
    return [Example(id=f"e{i}", image=np.zeros(s), tokens=list(tokens))
            for i, s in enumerate(sizes)]


def test_bucket_and_pad_groups_and_pads():
    vocab = Vocabulary.from_corpus([["a"]])
    exs = make_examples([(10, 20), (12, 30), (40, 60)])
    batches, dropped = bucket_and_pad(exs, [(32, 16), (64, 48)], 16, vocab)
    assert dropped == 0
    assert [b.images.shape for b in batches] == [(2, 1, 16, 32), (1, 1, 48, 64)]
    # sequences: token, END, then PAD
    assert batches[0].seq[0].tolist() == [4, END_ID]


def test_bucket_and_pad_drops_oversize_when_allowed():
    vocab = Vocabulary.from_corpus([["a"]])
    exs = make_examples([(10, 20), (100, 100)])
    batches, dropped = bucket_and_pad(exs, [(32, 16)], 4, vocab)
    assert dropped == 1 and len(batches) == 1


def test_bucket_and_pad_respects_batch_size():
    vocab = Vocabulary.from_corpus([["a"]])
    exs = make_examples([(8, 8)] * 5)
    batches, _ = bucket_and_pad(exs, [(8, 8)], 2, vocab)
    assert [len(b.seq) for b in batches] == [2, 2, 1]


def test_the_plan_groups_by_bucket_in_input_order_and_pads_nothing(monkeypatch):
    exs = make_examples([(10, 20), (40, 60), (100, 100), (12, 30), (9, 9), (16, 32)])
    buckets = [(32, 16), (64, 48)]
    monkeypatch.setattr(data, "pad_for_model", lambda *a: pytest.fail("the plan padded"))
    plan, dropped = plan_batches(exs, buckets, 2)
    assert dropped == 1
    assert [[ex.id for ex in chunk] for chunk in plan] == [["e0", "e3"], ["e4", "e5"],
                                                           ["e1"]]


def test_each_planned_batch_pads_to_the_batch_of_the_whole():
    vocab = Vocabulary.from_corpus([["a", "b"]])
    rng = np.random.default_rng(3)
    exs = [Example(f"e{i}", rng.random(s), ["a", "b"][:1 + i % 2])
           for i, s in enumerate([(10, 20), (40, 60), (100, 100), (12, 30), (9, 9),
                                  (16, 32), (30, 50)])]
    buckets = [(32, 16), (64, 48)]
    whole, dropped = bucket_and_pad(exs, buckets, 2, vocab)
    plan, _ = plan_batches(exs, buckets, 2)
    assert dropped == 1 and len(plan) == len(whole) == 3
    for chunk, want in zip(plan, whole):
        (got,), none_dropped = bucket_and_pad(chunk, buckets, 2, vocab)
        assert none_dropped == 0
        for name in ("images", "seq"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_model_size_is_the_size_pad_for_model_pads_to():
    for shape, buckets in [((10, 20), [(32, 16)]), ((100, 100), [(32, 16)]),
                           ((9, 17), None), ((16, 32), [(64, 48), (32, 16)])]:
        padded, misfit = data.pad_for_model(np.zeros(shape), buckets)
        assert model_size(*shape, buckets) == padded.shape + (misfit,)


def test_batch_seq_pads_to_longest():
    vocab = Vocabulary.from_corpus([["a", "b"]])
    exs = [Example("x", np.zeros((8, 8)), ["a", "b"]),
           Example("y", np.zeros((8, 8)), ["b"])]
    batches, _ = bucket_and_pad(exs, [(8, 8)], 4, vocab)
    seq = batches[0].seq
    assert seq.shape == (2, 3)
    assert seq[1].tolist() == [5, END_ID, PAD_ID]
