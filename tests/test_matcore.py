"""Unit tests for the dense matrix primitives and the JSON matrix format."""

import json
import math

import numpy as np
import pytest
from entrywise import entrywise_matrix_from_json
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcheck import matcore as mc
from opcheck.errors import DimensionMismatch, IllConditioned, ParseError, Singular

P = mc.DEFAULT_POLICY

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
JORDAN2 = np.array([[1, 1], [0, 1]], dtype=complex)


def _rng(seed):
    return np.random.default_rng(seed)


def _cgauss(rng, n, m):
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2)


class TestAdjoint:
    def test_real_transpose(self):
        np.testing.assert_array_equal(mc.adjoint(E12), np.array([[0, 0], [1, 0]]))

    def test_conjugates(self):
        np.testing.assert_array_equal(mc.adjoint(np.array([[1j]])), np.array([[-1j]]))

    def test_identity_fixed(self):
        np.testing.assert_array_equal(mc.adjoint(mc.eye(4)), mc.eye(4))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_involution_exact(self, seed, n, m):
        a = _cgauss(_rng(seed), n, m)
        np.testing.assert_array_equal(mc.adjoint(mc.adjoint(a)), a)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_product_reversal(self, seed, n):
        rng = _rng(seed)
        a, b = _cgauss(rng, n, n), _cgauss(rng, n, n)
        lhs = mc.adjoint(a @ b)
        rhs = mc.adjoint(b) @ mc.adjoint(a)
        assert mc.frob(lhs - rhs) <= 1e-13 * (1 + mc.frob(a) * mc.frob(b))


class TestRankAndBases:
    def test_rank_zero_matrix(self):
        assert mc.rank(mc.zeros(3, 3), P) == 0

    def test_rank_identity(self):
        assert mc.rank(mc.eye(3), P) == 3

    def test_rank_e12(self):
        assert mc.rank(E12, P) == 1

    def test_rank_with_overflowing_largest_singular_value_is_ill_conditioned(self):
        # every entry finite, sigma_1 = inf: it gave rank 0 for a nonzero matrix
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1:] = 1.5e308
        with pytest.raises(IllConditioned):
            mc.rank(a, P)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7), st.integers(0, 3))
    def test_rank_nullity(self, seed, rows, cols, defect):
        rng = _rng(seed)
        r = max(0, min(rows, cols) - defect)
        m = _cgauss(rng, rows, r) @ _cgauss(rng, r, cols) if r else mc.zeros(rows, cols)
        # a generic product of a rows x r and an r x cols factor has rank r,
        # so its nullity is cols - r
        assert mc.rank(m, P) == r


class TestFrob:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "m, want",
        [
            (np.full((2, 2), 1e155), 2e155),
            (np.full((2, 2), 1e155 + 1e155j), 2 * math.sqrt(2) * 1e155),
            (np.array([[1e300, -1e300]]), math.sqrt(2) * 1e300),
        ],
    )
    def test_squares_that_overflow_are_rescaled(self, m, want):
        assert mc.frob(m) == pytest.approx(want, rel=1e-15)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unrepresentable_or_non_finite_norm_stays_inf(self):
        assert mc.frob(np.full((2, 2), 1e308)) == math.inf
        assert mc.frob(np.array([[np.inf, 1.0]])) == math.inf
        assert math.isnan(mc.frob(np.array([[np.nan, 1.0]])))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(0, 5), st.floats(-200, 150))
    def test_finite_norm_is_numpys(self, seed, rows, cols, exp10):
        m = 10.0**exp10 * _cgauss(_rng(seed), rows, cols)
        want = float(np.linalg.norm(m)) if m.size else 0.0
        assert mc.frob(m) == want


class TestInverseEigen:
    def test_inverse_diag(self):
        np.testing.assert_allclose(
            mc.inverse(np.diag([2.0, 3.0]).astype(complex), P),
            np.diag([0.5, 1 / 3]),
            atol=1e-14,
        )

    def test_inverse_identity(self):
        np.testing.assert_allclose(mc.inverse(mc.eye(3), P), mc.eye(3), atol=1e-15)

    def test_inverse_jordan(self):
        np.testing.assert_allclose(
            mc.inverse(JORDAN2, P), np.array([[1, -1], [0, 1]]), atol=1e-14
        )

    def test_inverse_singular(self):
        with pytest.raises(Singular):
            mc.inverse(E12, P)

    def test_inverse_residual_bound(self):
        rng = _rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = _cgauss(rng, n, n) + 2.0 * mc.eye(n)
            if mc.condition(m) > P.cond_max:
                continue
            resid = mc.frob(m @ mc.inverse(m, P) - mc.eye(n))
            assert resid <= 10 * P.atol * mc.condition(m)


class TestPolicy:
    def test_defaults(self):
        assert P.atol == 1e-10 and P.rtol == 1e-8
        assert P.rank_rtol == 1e-10 and P.cond_max == 1e8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mc.NumericPolicy(atol=-1)

    def test_rejects_cond_max(self):
        with pytest.raises(ValueError):
            mc.NumericPolicy(cond_max=0.5)

    @pytest.mark.parametrize("field", ["atol", "rtol", "rank_rtol", "cond_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        # NaN slips past the sign checks, whose comparisons it fails, and an
        # infinite tolerance or cutoff decides every zero test at once
        with pytest.raises(ValueError, match=field):
            mc.NumericPolicy(**{field: value})


class TestJsonFormat:
    def test_roundtrip(self):
        m = _cgauss(_rng(9), 3, 2)
        np.testing.assert_array_equal(mc.matrix_from_json(mc.matrix_to_json(m)), m)

    def test_file_roundtrip(self, tmp_path):
        m = _cgauss(_rng(10), 2, 2)
        path = tmp_path / "m.json"
        mc.save_matrix(path, m)
        np.testing.assert_array_equal(mc.load_matrix(path), m)

    def test_rejects_nan(self):
        doc = mc.matrix_to_json(mc.eye(2))
        doc["data"][0][0] = [float("nan"), 0.0]
        with pytest.raises(ParseError):
            mc.matrix_from_json(doc)

    def test_rejects_shape_mismatch(self):
        doc = mc.matrix_to_json(mc.eye(2))
        doc["rows"] = 3
        with pytest.raises(ParseError):
            mc.matrix_from_json(doc)

    def test_rejects_bad_entry(self):
        doc = mc.matrix_to_json(mc.eye(2))
        doc["data"][0][0] = [1.0]
        with pytest.raises(ParseError):
            mc.matrix_from_json(doc)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_rejects_boolean_size(self, field):
        doc = {"rows": 1, "cols": 1, "data": [[[1, 0]]]}
        doc[field] = True
        with pytest.raises(ParseError):
            mc.matrix_from_json(doc)

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            mc.matrix_from_json([1, 2, 3])

    def test_rejects_unreadable_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            mc.load_matrix(path)

    def test_rejects_integer_beyond_double_range(self):
        doc = {"rows": 1, "cols": 1, "data": [[[10**400, 0]]]}
        with pytest.raises(ParseError, match=r"entry \(0,0\) is beyond the double range"):
            mc.matrix_from_json(doc)

    def test_non_finite_error_names_the_entry(self):
        doc = mc.matrix_to_json(mc.eye(3))
        doc["data"][2][1] = [0.0, float("inf")]
        with pytest.raises(ParseError, match=r"entry \(2,1\) is not finite"):
            mc.matrix_from_json(doc)

    @pytest.mark.parametrize(
        "content",
        [
            b'{"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]}\xff',
            b"[" * 100_000,
            b'{"rows": 1, "cols": 1, "data": [[[' + b"9" * 400 + b', 0]]]}',
            b'{"rows": 1, "cols": 1, "data": [[[' + b"9" * 5000 + b', 0]]]}',
        ],
        ids=["non-utf8", "deep-nesting", "400-digit-integer", "5000-digit-integer"],
    )
    def test_malformed_file_is_parse_error(self, tmp_path, content):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            mc.load_matrix(path)

    def test_as_matrix_rejects_inf(self):
        with pytest.raises(ParseError):
            mc.as_matrix([[np.inf, 0], [0, 1]])

    def test_only_2d_arrays_are_matrices(self):
        with pytest.raises(DimensionMismatch):
            mc.as_matrix(np.zeros((2, 2, 2)))
        with pytest.raises(DimensionMismatch):
            mc.matrix_to_json(np.zeros(3))

    def test_json_is_plain_data(self):
        doc = mc.matrix_to_json(1j * mc.eye(2))
        json.dumps(doc)  # must be serializable as-is
        assert doc["data"][0][0] == [0.0, 1.0]

    def test_data_matches_entrywise_reference(self):
        def reference(m):
            m = np.asarray(m, dtype=np.complex128)
            return [[[float(z.real), float(z.imag)] for z in row] for row in m]

        signed_zeros = np.array([[-0.0 + 0.0j, complex(0.0, -0.0)], [1e-300 - 2j, 3.0]])
        for m in (_cgauss(_rng(11), 4, 3), signed_zeros, np.arange(6.0).reshape(2, 3),
                  mc.zeros(0, 3), mc.zeros(2, 0)):
            got = mc.matrix_to_json(m)["data"]
            assert json.dumps(got) == json.dumps(reference(m))


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0, 1, True, False, 2**53 + 1, 2**63 - 1,
                     2**63, -(2**63), 2**64, 2**64 + 1, -(2**64), 2**1023 * 3 // 2]),
)
NOT_NUMBERS = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400),
                               "1.5", "", None, {}, {"re": 1.0}])
BAD_ENTRIES = st.sampled_from([[], [1.0], [1.0, 2.0, 3.0], 1.0, "x", None, [[1.0, 2.0], 0.0]])


@st.composite
def matrix_documents(draw):
    """A matrix document, valid or with one kind of defect."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    defect = draw(st.sampled_from(["none", "none", "value", "entry", "ragged", "rows", "cols"]))
    value = st.one_of(NUMBERS, NOT_NUMBERS) if defect == "value" else NUMBERS
    data = [[[draw(value), draw(value)] for _ in range(cols)] for _ in range(rows)]
    if data and cols and defect == "entry":
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        data[i][j] = draw(BAD_ENTRIES)
    if data and defect == "ragged":
        row = data[draw(st.integers(0, rows - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append([1.0, 0.0])
    doc = {"rows": rows + (defect == "rows"), "cols": cols + (defect == "cols"), "data": data}
    return json.loads(json.dumps(doc))


def _parsed(parse, doc):
    """(shape, bytes) of an accepted document, None for a rejected one."""
    try:
        m = parse(doc)
    except ParseError:
        return None
    return m.shape, m.tobytes()


def _entrywise_parsed(doc):
    try:
        return _parsed(entrywise_matrix_from_json, doc)
    except OverflowError:  # the loop's math.isfinite on an integer beyond the double range
        return None


class TestJsonParseMatchesEntrywise:
    @settings(max_examples=400, deadline=None)
    @given(matrix_documents())
    @example({"rows": 0, "cols": 3, "data": []})
    @example({"rows": 2, "cols": 0, "data": [[], []]})
    @example({"rows": 1, "cols": 2, "data": [[[-0.0, 0.0], [1e-300, -0.0]]]})
    @example({"rows": 1, "cols": 2, "data": [[[2**63, 2**64], [True, -(2**64) - 1]]]})
    @example({"rows": 1, "cols": 1, "data": [[[10**400, 0]]]})
    @example({"rows": 1, "cols": 2, "data": [[[1.0, 0.0], [2.0]]]})
    def test_same_matrix_or_both_reject(self, doc):
        assert _parsed(mc.matrix_from_json, doc) == _entrywise_parsed(doc)

    def test_square_round_trip_is_exact(self):
        m = _cgauss(_rng(12), 48, 48)
        m[0, 0], m[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
        doc = json.loads(json.dumps(mc.matrix_to_json(m)))
        got = mc.matrix_from_json(doc)
        assert got.tobytes() == m.tobytes() == entrywise_matrix_from_json(doc).tobytes()


def test_empty_matrix_contract():
    # numpy's own results on a 0x0 matrix; the package adds no size-0 branch
    z = mc.zeros(0, 0)
    assert (mc.frob(z), mc.rank(z), mc.condition(z), mc.spectral_norm(z)) == (0.0, 0, 1.0, 0.0)
    inv = mc.inverse(z)
    assert inv.shape == (0, 0) and inv.dtype == np.complex128


class TestBlockDiag:
    def test_empty_blocks(self):
        out = mc.block_diag(mc.zeros(0, 0), mc.eye(2), mc.zeros(0, 0))
        np.testing.assert_array_equal(out, mc.eye(2))

    def test_two_blocks(self):
        out = mc.block_diag(2 * mc.eye(1), E12)
        assert out.shape == (3, 3)
        assert out[0, 0] == 2 and out[1, 2] == 1
