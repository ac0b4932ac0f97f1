"""Binary PPM/PGM readers and writers."""

import numpy as np
import pytest

from tsgseg.netpbm import NetpbmError, read_pgm, read_ppm, write_pgm, write_ppm


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "a.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "a.ppm"
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_type_validation(self, tmp_path):
        with pytest.raises(NetpbmError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 3, 3), dtype=np.float64))
        with pytest.raises(NetpbmError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 3), dtype=np.uint8))

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        body = bytes(range(12))
        path.write_bytes(b"P6\n# made by hand\n2 2\n255\n" + body)
        img = read_ppm(path)
        assert img.shape == (2, 2, 3)
        assert img[0, 0, 2] == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(NetpbmError, match="magic"):
            read_ppm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(NetpbmError, match="truncated"):
            read_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(NetpbmError, match="maxval"):
            read_ppm(path)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        gray = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
        path = tmp_path / "a.pgm"
        write_pgm(path, gray)
        np.testing.assert_array_equal(read_pgm(path), gray)

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_type_validation(self, tmp_path):
        with pytest.raises(NetpbmError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 3), dtype=np.int64))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n2")
        with pytest.raises(NetpbmError, match="header"):
            read_pgm(path)


class TestHostileInput:
    @pytest.mark.parametrize("header", [b"P6\n-2 2\n255\n", b"P6\n2 x\n255\n",
                                        b"P6\n2.5 2\n255\n", b"P6\n0 2\n255\n"])
    def test_bad_size_rejected(self, tmp_path, header):
        path = tmp_path / "a.ppm"
        path.write_bytes(header + b"\x00" * 12)
        with pytest.raises(NetpbmError):
            read_ppm(path)

    def test_huge_size_rejected_before_reading(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n4294967296 4294967296\n255\n\x00")
        with pytest.raises(NetpbmError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("kind", ["ppm", "pgm"])
    def test_fuzz_only_netpbm_errors(self, tmp_path, kind):
        from test_checkpoint import _fuzz_cases

        rng = np.random.default_rng(3)
        path = tmp_path / f"a.{kind}"
        if kind == "ppm":
            write_ppm(path, rng.integers(0, 256, size=(3, 2, 3), dtype=np.uint8))
            read = read_ppm
        else:
            write_pgm(path, rng.integers(0, 256, size=(3, 2), dtype=np.uint8))
            read = read_pgm
        fuzzed = tmp_path / f"fuzzed.{kind}"
        for case in _fuzz_cases(path.read_bytes(), seed=4):
            fuzzed.write_bytes(case)
            try:
                read(fuzzed)
            except NetpbmError:
                pass
