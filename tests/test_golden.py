"""Byte-for-byte comparison of fresh fixed-seed runs with the committed
golden files (see golden_cases.py for what they hold and how to rewrite
them)."""

import os

import golden_cases


def test_golden_outputs_are_byte_identical(tmp_path):
    golden_cases.write_outputs(str(tmp_path))
    differing = []
    for name in golden_cases.output_names():
        with open(os.path.join(golden_cases.GOLDEN_DIR, name), "rb") as fh:
            if (tmp_path / name).read_bytes() != fh.read():
                differing.append(name)
    assert not differing, f"{len(differing)} golden files differ: {differing}"


def test_paper_size_pmedian_decode_digest_is_byte_identical(tmp_path):
    path = tmp_path / "digest.txt"
    golden_cases.write_decode_digest(str(path))
    with open(os.path.join(golden_cases.GOLDEN_DIR, golden_cases.DECODE_DIGEST), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_paper_size_partition_decode_digest_is_byte_identical(tmp_path):
    path = tmp_path / "digest.txt"
    golden_cases.write_partition_digest(str(path))
    with open(os.path.join(golden_cases.GOLDEN_DIR, golden_cases.PARTITION_DIGEST), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_paper_size_hubtree_decode_digest_is_byte_identical(tmp_path):
    path = tmp_path / "digest.txt"
    golden_cases.write_hubtree_digest(str(path))
    with open(os.path.join(golden_cases.GOLDEN_DIR, golden_cases.HUBTREE_DIGEST), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_paper_size_partition_stream_digest_is_byte_identical(tmp_path):
    path = tmp_path / "digest.txt"
    golden_cases.write_partition_stream_digest(str(path))
    with open(os.path.join(golden_cases.GOLDEN_DIR, golden_cases.PARTITION_STREAM_DIGEST), "rb") as fh:
        assert path.read_bytes() == fh.read()
