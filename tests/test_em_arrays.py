"""Dipole impedance closed forms against quadrature oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from multiport.em_arrays import (
    FREE_SPACE_IMPEDANCE_OHM,
    ArrayGeometry,
    array_impedance_matrix,
    dipole_mutual_impedance,
    dipole_self_impedance,
    read_impedance_csv,
    sine_cosine_integrals,
    uniform_circular_array,
    write_impedance_csv,
)
from multiport.montecarlo import ConfigError, read_coupling_file

# Frozen from the adaptive-quadrature oracle below.
SELF_IMPEDANCE_FROZEN = 73.07901024566654 + 42.51511468253748j
MUTUAL_HALF_WAVE_FROZEN = -12.523407445632417 - 29.907935918289358j
MUTUAL_FAR_ABS_FROZEN = 0.01908537963302672


def si_quadrature(x: float) -> float:
    val, _ = quad(lambda t: math.sin(t) / t, 0.0, x, limit=800)
    return val


def ci_quadrature(x: float) -> float:
    # Ci(x) = gamma + ln x + integral_0^x (cos t - 1)/t dt
    val, _ = quad(lambda t: (math.cos(t) - 1.0) / t, 0.0, x, limit=800)
    return 0.5772156649015328606 + math.log(x) + val


def emf_mutual_quadrature(spacing: float) -> complex:
    """Induced-EMF integral over the dipole, independent of Si/Ci."""
    k = 2 * math.pi

    def integrand(z: float, part: int) -> float:
        r1 = math.sqrt(spacing**2 + (z - 0.25) ** 2)
        r2 = math.sqrt(spacing**2 + (z + 0.25) ** 2)
        val = (
            1j
            * FREE_SPACE_IMPEDANCE_OHM
            / (4 * math.pi)
            * (np.exp(-1j * k * r1) / r1 + np.exp(-1j * k * r2) / r2)
            * math.cos(k * z)
        )
        return val.real if part == 0 else val.imag

    re = quad(integrand, -0.25, 0.25, args=(0,), limit=400, points=[0.0])[0]
    im = quad(integrand, -0.25, 0.25, args=(1,), limit=400, points=[0.0])[0]
    return complex(re, im)


class TestSineCosineIntegrals:
    @pytest.mark.parametrize(
        "x", [1e-3, 0.5, 1.0, 2.0, math.pi, 2 * math.pi, 7.999999, 8.000001, 12.0, 50.0, 6283.2]
    )
    def test_matches_quadrature_oracle(self, x):
        si, ci = sine_cosine_integrals(x)
        assert si == pytest.approx(si_quadrature(x), abs=5e-11)
        assert ci == pytest.approx(ci_quadrature(x), abs=5e-11)

    def test_continuous_across_series_cutoff(self):
        below = sine_cosine_integrals(8.0 - 1e-9)
        above = sine_cosine_integrals(8.0 + 1e-9)
        assert below[0] == pytest.approx(above[0], abs=1e-8)
        assert below[1] == pytest.approx(above[1], abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sine_cosine_integrals(0.0)
        with pytest.raises(ValueError):
            sine_cosine_integrals(-1.0)

    @given(st.floats(min_value=1e-6, max_value=1e4))
    @settings(max_examples=60, deadline=None)
    def test_si_bounded_and_ci_decaying(self, x):
        si, ci = sine_cosine_integrals(x)
        assert 0.0 <= si <= 1.8519370  # global maximum of Si
        # |Ci(x)| <= 2/x for x beyond the first zero crossing region
        if x > 10.0:
            assert abs(ci) <= 2.0 / x


class TestDipoleImpedances:
    def test_self_impedance_frozen_value(self):
        z = dipole_self_impedance()
        assert z.real == pytest.approx(SELF_IMPEDANCE_FROZEN.real, rel=1e-12)
        assert z.imag == pytest.approx(SELF_IMPEDANCE_FROZEN.imag, rel=1e-12)

    def test_self_impedance_against_emf_quadrature(self):
        # The mutual-impedance integral at vanishing spacing approaches
        # the self impedance of the infinitely thin dipole.
        oracle = emf_mutual_quadrature(1e-12)
        z = dipole_self_impedance()
        assert abs(z - oracle) < 1e-6

    def test_mutual_half_wavelength_frozen_value(self):
        z = dipole_mutual_impedance(0.5)
        assert z.real == pytest.approx(MUTUAL_HALF_WAVE_FROZEN.real, rel=1e-12)
        assert z.imag == pytest.approx(MUTUAL_HALF_WAVE_FROZEN.imag, rel=1e-12)

    @pytest.mark.parametrize("s", [0.1, 0.35, 0.5, 1.0, 2.5, 10.0])
    def test_mutual_against_emf_quadrature(self, s):
        oracle = emf_mutual_quadrature(s)
        z = dipole_mutual_impedance(s)
        assert abs(z - oracle) < 1e-8 * max(1.0, abs(oracle))

    def test_far_field_magnitude(self):
        z = dipole_mutual_impedance(1000.0)
        assert abs(z) == pytest.approx(MUTUAL_FAR_ABS_FROZEN, rel=1e-12)
        # Large-distance envelope eta0 / (2 pi^2 s).
        envelope = FREE_SPACE_IMPEDANCE_OHM / (2 * math.pi**2 * 1000.0)
        assert abs(z) == pytest.approx(envelope, abs=1e-4)

    def test_mutual_decays_with_distance(self):
        values = [abs(dipole_mutual_impedance(s)) for s in (0.5, 5.0, 50.0, 500.0)]
        assert values == sorted(values, reverse=True)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            dipole_mutual_impedance(0.0)


class TestGeometry:
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjacent_spacing_matches(self, n, d):
        geom = uniform_circular_array(n, d)
        for i in range(n):
            j = (i + 1) % n
            dist = float(np.linalg.norm(geom.positions[i] - geom.positions[j]))
            assert dist == pytest.approx(d, rel=1e-12)

    def test_single_element_at_origin(self):
        geom = uniform_circular_array(1, 0.5)
        assert geom.positions.shape == (1, 2)
        assert np.allclose(geom.positions, 0.0)

    def test_radius_formula(self):
        n, d = 9, 0.35
        geom = uniform_circular_array(n, d)
        radius = d / (2 * math.sin(math.pi / n))
        assert np.allclose(np.linalg.norm(geom.positions, axis=1), radius, rtol=1e-12)

    def test_invalid_arguments(self):
        for build in (uniform_circular_array, ArrayGeometry):
            with pytest.raises(ValueError):
                build(0, 0.5)
            with pytest.raises(ValueError):
                build(4, 0.0)
            for spacing in (math.inf, math.nan):
                with pytest.raises(ValueError):
                    build(4, spacing)

    def test_equal_geometries_compare_and_hash_equal(self):
        built = uniform_circular_array(9, 0.35)
        assert built == ArrayGeometry(9, 0.35)
        assert hash(built) == hash(ArrayGeometry(9, 0.35))
        assert built != ArrayGeometry(9, 0.4)
        # A geometry is its count and spacing; positions are not an input.
        with pytest.raises(TypeError):
            ArrayGeometry(3, 0.5, np.zeros((3, 2)))


class TestArrayMatrix:
    def test_single_element_value(self):
        z = array_impedance_matrix(uniform_circular_array(1, 0.5))
        assert z.shape == (1, 1)
        assert z[0, 0] == dipole_self_impedance()

    def test_diagonal_and_symmetry(self):
        z = array_impedance_matrix(uniform_circular_array(6, 0.4))
        assert np.allclose(np.diag(z), dipole_self_impedance())
        assert np.array_equal(z, z.T)

    def test_circulant_structure(self):
        # On a UCA the mutual impedance depends only on index separation.
        n = 8
        z = array_impedance_matrix(uniform_circular_array(n, 0.35))
        for k in range(1, n):
            vals = [z[i, (i + k) % n] for i in range(n)]
            assert np.allclose(vals, vals[0], rtol=1e-12, atol=1e-12)

    def test_entries_are_pairwise_mutuals(self):
        geom = uniform_circular_array(5, 0.45)
        z = array_impedance_matrix(geom)
        d01 = float(np.linalg.norm(geom.positions[0] - geom.positions[1]))
        assert z[0, 1] == dipole_mutual_impedance(d01)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 33])
    def test_matches_per_pair_reference(self, n):
        # The circulant assembly against a mutual impedance for every pair,
        # on a geometry built directly and through uniform_circular_array.
        for geom in (ArrayGeometry(n, 0.4), uniform_circular_array(n, 0.4)):
            ref = np.diag(np.full(n, dipole_self_impedance()))
            for i in range(n):
                for j in range(i + 1, n):
                    dist = float(np.linalg.norm(geom.positions[i] - geom.positions[j]))
                    ref[i, j] = ref[j, i] = dipole_mutual_impedance(dist)
            np.testing.assert_allclose(array_impedance_matrix(geom), ref, rtol=1e-13, atol=0.0)


class TestImpedanceCsv:
    def test_round_trip_exact(self, tmp_path):
        z = array_impedance_matrix(uniform_circular_array(4, 0.3))
        path = tmp_path / "z.csv"
        write_impedance_csv(str(path), z)
        back = read_impedance_csv(str(path))
        assert np.array_equal(back, z)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,1.0,2.0\n")
        with pytest.raises(ValueError):
            read_impedance_csv(str(path))

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("i,j,re_ohm,im_ohm\n")
        with pytest.raises(ValueError):
            read_impedance_csv(str(path))

    @staticmethod
    def _rejects(tmp_path, text, match):
        path = tmp_path / "z.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_impedance_csv(str(path))

    def test_rejects_file_without_header(self, tmp_path):
        self._rejects(tmp_path, "", "header")

    def test_rejects_incomplete_grid(self, tmp_path):
        self._rejects(tmp_path, "i,j,re_ohm,im_ohm\n0,0,5.0,0.0\n1,1,5.0,0.0\n", "complete")

    def test_rejects_duplicate_entry(self, tmp_path):
        self._rejects(tmp_path, "i,j,re_ohm,im_ohm\n0,0,5.0,0.0\n0,0,6.0,0.0\n", "duplicate")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_value(self, tmp_path, value):
        self._rejects(tmp_path, f"i,j,re_ohm,im_ohm\n0,0,5.0,{value}\n", "non-finite")

    def test_rejects_negative_index(self, tmp_path):
        self._rejects(tmp_path, "i,j,re_ohm,im_ohm\n0,0,5.0,0.0\n-1,0,5.0,0.0\n", "negative")

    def test_rejects_short_row(self, tmp_path):
        self._rejects(tmp_path, "i,j,re_ohm,im_ohm\n0,0,5.0\n", "short")

    @pytest.mark.parametrize(
        "row, fault",
        [
            ("0,1,1.0,2.0,9", "too long, 5 fields for 4 columns"),
            ("0,1,1.0,2.0j", "'2.0j' is not a number"),
            ("0,1.0,1.0,2.0", "'1.0' is not an integer index"),
        ],
    )
    def test_row_errors_name_the_file_line(self, tmp_path, row, fault):
        # Line 4 of the file; numpy's own row count starts at 0 after the
        # header and leaves out the blank line.
        path = tmp_path / "z.csv"
        path.write_text(f"i,j,re_ohm,im_ohm\n0,0,1.0,2.0\n\n{row}\n")
        with pytest.raises(ValueError) as info:
            read_impedance_csv(str(path))
        assert str(info.value) == f"invalid CSV row at line 4: {fault}"

    def test_duplicate_names_the_smallest_repeated_entry(self, tmp_path):
        rows = ["1,1,1.0,0.0", "1,0,2.0,0.0", "1,0,3.0,0.0", "0,1,4.0,0.0", "0,1,5.0,0.0"]
        self._rejects(
            tmp_path, "\n".join(["i,j,re_ohm,im_ohm", *rows, "0,0,6.0,0.0"]), r"entry \(0, 1\)$"
        )

    def test_index_beyond_the_row_count_allocates_no_grid(self, tmp_path):
        import tracemalloc

        tracemalloc.start()
        try:
            self._rejects(
                tmp_path, "i,j,re_ohm,im_ohm\n0,0,5.0,0.0\n999999999999,0,5.0,0.0\n", "complete"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rows_in_any_order_read_back_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        shape = (60, 9, 33)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z[7, 3, 5] = complex(-0.0, -0.0)
        path = tmp_path / "z.csv"
        write_impedance_csv(str(path), z)
        header, *rows = path.read_text().splitlines()
        assert len(rows) == z.size
        rng.shuffle(rows)
        path.write_text("\n".join([header, *rows, ""]))
        back = read_impedance_csv(str(path))
        assert back.shape == shape and np.array_equal(back, z)
        assert np.signbit(back[7, 3, 5].real) and np.signbit(back[7, 3, 5].imag)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_names_are_rejected_before_any_read(self, tmp_path, suffix):
        path = str(tmp_path / f"c.csv{suffix}")
        write_impedance_csv(path, np.ones((1, 2, 2)))
        with pytest.raises(ValueError, match=suffix):
            read_impedance_csv(path)
        with pytest.raises(ConfigError, match=suffix):
            read_coupling_file(path)


# Malformed bodies of a one-realization coupling CSV, each with the match
# both readers' messages satisfy. The 2-D form drops the leading "0,".
MALFORMED_CSV = {
    "bad header": ("realization,i,j,real,imag", ["0,0,0,1.0,0.5"], "header"),
    "header only": (None, [], "no realizations"),
    "extra header column": ("realization,i,j,re_ohm,im_ohm,comment", ["0,0,0,1.0,0.5"], "header"),
    "short row": (None, ["0,0,0,1.0,0.5", "0,0,1,2.0"], "invalid CSV row"),
    "long row": (None, ["0,0,0,1.0,2.0,9"], "invalid CSV row"),
    # "#" is an invalid field, not the start of a comment.
    "comment line": (None, ["#,# exported by a field solver", "0,0,0,1.0,0.5"], "invalid CSV row"),
    "trailing comment": (None, ["0,0,0,1.5,2.5#x"], "invalid CSV row"),
    "non-integer index": (None, ["0,0,0,1.0,0.5", "0,0,1.5,2.0,0.0"], "invalid"),
    "negative index": (None, ["0,0,0,1.0,0.5", "0,-1,0,2.0,0.0"], "negative"),
    "duplicate": (None, ["0,0,0,1.0,0.5", "0,0,0,2.0,0.0"], "duplicate"),
    "incomplete grid": (None, ["0,0,0,1.0,0.5", "0,1,1,2.0,0.0"], "complete"),
    "nan": (None, ["0,0,0,1.0,nan"], "non-finite value \\(NaN or infinite\\)"),
    "inf": (None, ["0,0,0,inf,0.5"], "non-finite value \\(NaN or infinite\\)"),
    "-inf": (None, ["0,0,0,1.0,-inf"], "non-finite value \\(NaN or infinite\\)"),
}


class TestImpedanceCsvFormat:
    """One format at rank 2 and 3: the same rules in both readers."""

    @staticmethod
    def _write(path, header, rows) -> str:
        path.write_text("\n".join([header, *rows, ""]))
        return str(path)

    @pytest.mark.parametrize("case", MALFORMED_CSV.values(), ids=MALFORMED_CSV.keys())
    def test_both_readers_reject(self, tmp_path, case):
        header, rows, match = case
        path = self._write(tmp_path / "c.csv", header or "realization,i,j,re_ohm,im_ohm", rows)
        with pytest.raises(ValueError, match=match):
            read_impedance_csv(path)
        with pytest.raises(ConfigError, match=match):
            read_coupling_file(path)
        header_2d = header[len("realization,") :] if header else "i,j,re_ohm,im_ohm"
        path_2d = self._write(tmp_path / "z.csv", header_2d, [r[2:] for r in rows])
        with pytest.raises(ValueError, match=match):
            read_impedance_csv(path_2d)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (1, 1), (1, 1, 1)])
    def test_round_trip_exact_at_any_rank(self, tmp_path, shape):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z.flat[0] = complex(-0.0, 5e-324)
        path = str(tmp_path / "z.csv")
        write_impedance_csv(path, z)
        back = read_impedance_csv(path)
        assert back.shape == shape and np.array_equal(back, z)
        assert np.signbit(back.flat[0].real)

    def test_writer_rejects_other_ranks(self, tmp_path):
        for bad in (np.zeros(3), np.zeros((1, 1, 1, 1))):
            with pytest.raises(ValueError, match="2-D or 3-D"):
                write_impedance_csv(str(tmp_path / "z.csv"), bad)

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize(
        "line, fault",
        [
            (1, "unrecognized impedance CSV header"),
            (3, r"invalid CSV row at line 3: '\udcff' is not a number"),
            (1002, r"invalid CSV row at line 1002: '\udcff' is not a number"),
        ],
        ids=["header", "first 8 KiB", "past 8 KiB"],
    )
    def test_undecodable_byte_is_a_row_error(self, tmp_path, ndim, line, fault):
        path = tmp_path / "z.csv"
        write_impedance_csv(str(path), np.ones((1200, 1) if ndim == 2 else (1200, 1, 1)))
        lines = path.read_bytes().split(b"\r\n")
        fields = lines[line - 1].split(b",")
        fields[-2] = b"\xff"  # the real part, or re_ohm in the header
        lines[line - 1] = b",".join(fields)
        path.write_bytes(b"\r\n".join(lines))
        # Line 1002 starts beyond the first 8 KiB buffer of a text read.
        assert (len(b"\r\n".join(lines[: line - 1])) > 8192) == (line == 1002)
        with pytest.raises(ValueError) as info:
            read_impedance_csv(str(path))
        assert str(info.value) == fault
        if ndim == 3:
            with pytest.raises(ConfigError) as info:
                read_coupling_file(str(path))
            assert str(info.value) == f"coupling CSV: {fault}"

    def test_coupling_reader_requires_rank_3(self, tmp_path):
        path = str(tmp_path / "z.csv")
        write_impedance_csv(path, np.eye(2))
        with pytest.raises(ConfigError, match="header"):
            read_coupling_file(path)
