import os
import sys
import threading

import pytest

from prunekit.errors import ValidationError
from prunekit.serialize import read_blob, read_json, sha256_hex, write_atomic, write_blob


def test_failed_write_keeps_old_bytes_and_leaves_no_temp(tmp_path):
    path = tmp_path / "plan.json"
    write_atomic(path, b"old")
    with pytest.raises(TypeError):  # the second chunk is not bytes-like
        write_atomic(path, b"new bytes ", object(), b"never")
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


def test_chunks_are_written_in_order(tmp_path):
    path = tmp_path / "d.bin"
    write_atomic(path, b"ab", bytearray(b"cd"), memoryview(b"ef"))
    assert path.read_bytes() == b"abcdef"


def test_mode_is_that_of_a_plain_open(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        write_atomic(tmp_path / "atomic", b"x")
    finally:
        os.umask(old)
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_missing_directory_is_not_created(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_atomic(tmp_path / "nope" / "f.bin", b"x")
    assert list(tmp_path.iterdir()) == []


def test_concurrent_writers_never_share_a_temp_file(tmp_path):
    """Threads rewrite one path at once; each write lands whole."""
    path = tmp_path / "shared.bin"
    payloads = [bytes([i]) * 65536 for i in range(6)]
    errors = []

    def writer(payload):
        try:
            for _ in range(20):
                write_atomic(path, payload[:30000], payload[30000:])
                assert path.read_bytes() in payloads
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_bytes() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["shared.bin"]


def test_blob_roundtrip_and_checks(tmp_path):
    sha = write_blob(tmp_path, "m@c1_w.bin", b"12345678")
    assert sha == sha256_hex(b"12345678")
    assert read_blob(tmp_path, "m@c1_w.bin", sha, 8, "layer c1: weight") == b"12345678"
    with pytest.raises(ValidationError, match="layer c1: weight blob holds 8 bytes, expected 16"):
        read_blob(tmp_path, "m@c1_w.bin", sha, 16, "layer c1: weight")
    with pytest.raises(ValidationError, match="layer c1: weight blob checksum mismatch"):
        read_blob(tmp_path, "m@c1_w.bin", "0" * 64, 8, "layer c1: weight")
    with pytest.raises(FileNotFoundError, match="layer c1: weight blob"):
        read_blob(tmp_path, "m@c2_w.bin", sha, 8, "layer c1: weight")


@pytest.mark.parametrize("name", [5, None, "", ".", "..", "../x", "sub/x", "/x",
                                  "a\0b"])
def test_blob_name_must_be_a_plain_file_name(tmp_path, name):
    (tmp_path / "sub").mkdir()
    write_blob(tmp_path, "x", b"")  # a blob outside the manifest's directory
    with pytest.raises(ValidationError, match="is not a file name"):
        read_blob(tmp_path / "sub", name, sha256_hex(b""), 0, "layer c1: weight")


@pytest.mark.parametrize("raw", [b'{"layers": [', b"\xff\xfe{}", b"[1, 2]", b'"text"', b""],
                         ids=["cut", "not-utf8", "list", "string", "empty"])
def test_read_json_refuses_malformed_text(tmp_path, raw):
    path = tmp_path / "x.json"
    path.write_bytes(raw)
    with pytest.raises(ValidationError, match="x.json"):
        read_json(path)
