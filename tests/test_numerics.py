"""Randomness plumbing, Haar sampling, the svd wrapper and result records."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import conekit
from conekit.cones import Cone
from conekit.numerics import (Record, SeededStream, block_ranges,
                              gaussian_vector, haar_from_rng,
                              haar_orthogonal, haar_stack, row_projection,
                              svd)


def test_stream_reproducible_across_instances():
    a = SeededStream(123, 0).gen(7).standard_normal(50)
    b = SeededStream(123, 0).gen(7).standard_normal(50)
    assert np.array_equal(a, b)


def test_stream_children_distinct():
    s = SeededStream(5, 0)
    a = s.child(0).gen(0).standard_normal(20)
    b = s.child(1).gen(0).standard_normal(20)
    assert not np.allclose(a, b)


def _normals_by_gen(st, start, count, *shapes):
    out = [np.empty((count, *shape)) for shape in shapes]
    for i in range(count):
        gen = st.gen(start + i)
        for arr in out:
            arr[i] = gen.standard_normal(arr.shape[1:])
    return out


@pytest.mark.parametrize("st,start,count,shapes", [
    (SeededStream(123, 0), 0, 7, [(5,)]),
    (SeededStream(123, 0), 9, 5, [(3, 3), (4,)]),
    (SeededStream(2 ** 63 + 5, 17).child(3), 40, 4, [(2, 6), (0,), (1,)]),
    # the key's counter wraps past 2^64 inside the run
    (SeededStream(77, 2 ** 64 - 3), 1, 6, [(2, 2), (3,)]),
    (SeededStream(77, 0), 5, 0, [(4, 4), (2,)]),
])
def test_normals_match_gen(st, start, count, shapes):
    got = st.normals(start, count, *shapes)
    want = _normals_by_gen(st, start, count, *shapes)
    assert len(got) == len(shapes)
    for a, b, shape in zip(got, want, shapes):
        assert a.shape == (count, *shape)
        assert np.array_equal(a, b)


def test_normals_match_gen_over_random_keys():
    rng = np.random.default_rng(0)
    for _ in range(200):
        seed, counter = (int(v) for v in rng.integers(0, 2 ** 63, size=2))
        st = SeededStream(2 * seed + 1, 2 * counter)
        start, count = int(rng.integers(0, 2 ** 40)), int(rng.integers(1, 4))
        for a, b in zip(st.normals(start, count, (3, 2), (4,)),
                        _normals_by_gen(st, start, count, (3, 2), (4,))):
            assert np.array_equal(a, b)


def test_normals_are_per_thread():
    # four threads, more than the cores of a small host, draw from
    # different streams at once and switch often; each thread's rows
    # equal a serial run's
    streams = [SeededStream(41, 0), SeededStream(42, 7).child(2),
               SeededStream(2 ** 64 - 1, 3), SeededStream(43, 2 ** 64 - 5)]

    def run(st):
        return [st.normals(i, 3, (2, 2), (3,)) for i in range(200)]

    want = [run(st) for st in streams]
    got = [None] * len(streams)
    barrier = threading.Barrier(len(streams))

    def work(j):
        barrier.wait(timeout=60)
        got[j] = run(streams[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,))
                   for j in range(len(streams))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        assert g is not None
        for a, b in zip(g, w):
            for u, v in zip(a, b):
                assert np.array_equal(u, v)


@pytest.mark.parametrize("n", range(1, 7))
def test_keyed_draws_match_gen(n):
    st = SeededStream(2 ** 64 - 9, 5).child(n)
    for i in (0, 1, 17, 2 ** 40 + 3):
        assert np.array_equal(haar_orthogonal(n, st, i),
                              haar_from_rng(n, st.gen(i)))
        assert np.array_equal(gaussian_vector(n, st, i),
                              st.gen(i).standard_normal(n))


def test_import_loads_no_generator():
    # each thread's Philox is built on its first draw, so importing conekit
    # leaves numpy.random unloaded
    src = os.path.dirname(os.path.dirname(conekit.__file__))
    code = "import sys, conekit; sys.exit('numpy.random' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0


def test_normal_block_matches_gen():
    st = SeededStream(31, 2 ** 64 - 1)
    for b in range(3):
        assert np.array_equal(st.normal_block(b, 50, 3),
                              st.gen(b).standard_normal((50, 3)))


def test_block_ranges_cover_exactly():
    for total in (1, 17, 1024, 2049):
        ranges = list(block_ranges(total, block=1024))
        assert ranges[0][1] == 0
        assert ranges[-1][1] + ranges[-1][2] == total
        assert [b for b, _, _ in ranges] == list(range(len(ranges)))
        for (_, s0, c0), (_, s1, _) in zip(ranges, ranges[1:]):
            assert s0 + c0 == s1


def test_svd_diagonal_and_bidiagonal():
    _, sigma, _ = svd(np.diag([3.0, 1.0]))
    assert np.allclose(sigma, [3.0, 1.0])
    # eigenvalues of [[1,-1],[-1,2]] are (3 +- sqrt(5))/2
    D = np.array([[-1.0, 1.0], [0.0, -1.0]])
    _, sigma, _ = svd(D)
    assert np.allclose(sigma, [1.6180339887, 0.6180339887], atol=1e-9)


def test_svd_rank_one_has_zero_min():
    M = np.outer([1.0, 2.0], [3.0, 4.0])
    _, sigma, _ = svd(M)
    assert sigma[-1] <= 1e-12


def test_svd_reconstruction_100_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, n = rng.integers(1, 101, size=2)
        M = rng.standard_normal((m, n))
        U, sigma, Vt = svd(M)
        res = np.linalg.norm(U @ np.diag(sigma) @ Vt - M)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(M))
        assert np.all(np.diff(sigma) <= 1e-14)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_haar_orthogonality_and_det():
    s = SeededStream(11, 0)
    for i in range(20):
        Q = haar_orthogonal(6, s, i)
        assert np.max(np.abs(Q.T @ Q - np.eye(6))) <= 1e-12
        assert abs(abs(np.linalg.det(Q)) - 1.0) <= 1e-10


def _qr_with_sign_fix(G):
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return Q * d[..., None, :]


def test_planar_haar_is_the_sign_fixed_qr():
    G = SeededStream(47).normals(0, 20000, (2, 2))[0]
    Q = haar_stack(G)
    assert np.abs(Q - _qr_with_sign_fix(G)).max() <= 1e-15
    assert np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(2)).max() <= 1e-15
    assert np.array_equal(np.round(np.linalg.det(Q)),
                          np.sign(np.linalg.det(G)))
    for i in range(300):
        assert np.array_equal(Q[i], haar_stack(G[i]))


@pytest.mark.parametrize("b,d", [(1.5, 2.0), (-1.5, -2.0), (0.3, 0.0),
                                 (0.0, 0.0), (-0.3, -0.0), (-0.0, -0.0)])
def test_planar_haar_zero_first_column(b, d):
    # LAPACK applies no reflection to a zero column, so the sign fix
    # leaves Q = diag(1, sign d), with sign 0 read as 1.  Signed zeros in
    # the column or in d give the same Q, whose bits (zero signs
    # included) are the same alone and in a stack
    for a, c in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]:
        G = np.array([[a, b], [c, d]])
        stack = np.stack([G, SeededStream(49).normals(0, 1, (2, 2))[0][0],
                          G])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q, Qs = haar_stack(G), haar_stack(stack)
        assert np.array_equal(Q, np.diag([1.0, -1.0 if d < 0 else 1.0]))
        assert np.array_equal(Q, _qr_with_sign_fix(G))
        for i in range(3):
            assert Qs[i].tobytes() == haar_stack(stack[i]).tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_gram_schmidt_haar_is_the_sign_fixed_qr(n):
    G = SeededStream(47).normals(0, 20000, (n, n))[0]
    Q = haar_stack(G)
    assert np.abs(Q - _qr_with_sign_fix(G)).max() <= 1e-12
    assert np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(n)).max() <= 1e-14
    assert np.array_equal(np.round(np.linalg.det(Q)),
                          np.sign(np.linalg.det(G)))
    for i in range(1000):
        assert np.array_equal(Q[i], haar_stack(G[i]))


def _degenerate(n, case):
    rng = np.random.default_rng(50 + n)
    G = rng.standard_normal((n, n))
    if case == "zero":
        G[:] = 0.0
    elif case == "zero-column":
        G[:, 1] = 0.0
    elif case == "equal-columns":
        G[:, 2] = G[:, 0]
    else:
        U, _, Vt = np.linalg.svd(G)
        G = U @ np.diag(np.logspace(0, -10, n)) @ Vt
    return G


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("case", ["zero", "zero-column", "equal-columns",
                                  "kappa-1e10"])
def test_gram_schmidt_haar_degenerate_inputs_take_lapack(n, case):
    # a nearly dependent column sends its matrix, and only it, to the
    # sign-fixed LAPACK QR, with no warning from the Gram-Schmidt steps
    G = _degenerate(n, case)
    gauss = SeededStream(51).normals(0, 2, (n, n))[0]
    stack = np.stack([gauss[0], G, gauss[1], G])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q, Qs = haar_stack(G), haar_stack(stack)
    want = _qr_with_sign_fix(G).tobytes()
    assert Q.tobytes() == want
    assert Qs[1].tobytes() == want and Qs[3].tobytes() == want
    for i in (0, 2):
        assert Qs[i].tobytes() == haar_stack(stack[i]).tobytes()
        assert Qs[i].tobytes() != _qr_with_sign_fix(stack[i]).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_haar_badly_scaled_inputs_take_lapack(n, scale):
    # squared column norms that underflow or overflow cannot be
    # normalised in closed form or by Gram-Schmidt; such a matrix takes
    # the sign-fixed LAPACK QR, alone and in a stack
    gauss = SeededStream(52).normals(0, 3, (n, n))[0]
    G = gauss[2] * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Q, Qs = haar_stack(G), haar_stack(np.stack([gauss[0], G, gauss[1]]))
    assert Q.tobytes() == _qr_with_sign_fix(G).tobytes()
    assert np.abs(Q - _qr_with_sign_fix(gauss[2])).max() <= 1e-15
    assert Qs[1].tobytes() == Q.tobytes()
    assert Qs[0].tobytes() == haar_stack(gauss[0]).tobytes()
    assert Qs[2].tobytes() == haar_stack(gauss[1]).tobytes()


def test_haar_n1_sign_frequency():
    s = SeededStream(3, 0)
    draws = np.array([haar_orthogonal(1, s, i)[0, 0] for i in range(10000)])
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    assert abs(np.mean(draws > 0) - 0.5) <= 0.02


def test_haar_first_entry_second_moment():
    # E[Q_11^2] = 1/n for a Haar row
    s = SeededStream(21, 0)
    vals = np.array([haar_orthogonal(10, s, i)[0, 0] ** 2
                     for i in range(20000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 0.1) <= 3 * se


def test_gaussian_vector_moments():
    s = SeededStream(8, 0)
    X = np.array([gaussian_vector(5, s, i) for i in range(20000)])
    assert np.max(np.abs(X.mean(axis=0))) <= 0.03
    assert np.max(np.abs(X.var(axis=0) - 1.0)) <= 0.04
    sq = np.array([gaussian_vector(7, s, 10 ** 6 + i) @
                   gaussian_vector(7, s, 10 ** 6 + i) for i in range(5000)])
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - 7.0) <= 3 * se


def test_row_projection():
    assert np.array_equal(row_projection(2, 2), np.eye(2))
    P = row_projection(1, 3)
    assert np.array_equal(P @ np.array([4.0, 5.0, 6.0]), [4.0])
    P = row_projection(3, 5)
    assert np.allclose(P @ P.T, np.eye(3))
    with pytest.raises(ValueError):
        row_projection(6, 5)


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


def _synthetic(cls):
    """An instance of ``cls`` with each field set by its annotation,
    bypassing ``__init__`` and its checks."""
    rec = object.__new__(cls)
    for f in dataclasses.fields(cls):
        t = str(f.type)
        setattr(rec, f.name,
                np.array([[0.5, 1.5]]) if "ndarray" in t else
                {"k": 1.0} if "dict" in t else (1, 2) if "list" in t else
                True if "bool" in t else 3 if "int" in t else
                "s" if "str" in t else 0.25)
    return rec


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_dict_holds_every_init_field(cls):
    rec = _synthetic(cls)
    d = rec.to_dict()
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    assert list(d) == init
    for name in init:
        v = getattr(rec, name)
        if isinstance(v, np.ndarray):
            assert d[name] == v.tolist()
        elif isinstance(v, (dict, tuple)):
            assert d[name] == (v if isinstance(v, dict) else list(v))
            assert d[name] is not v
        else:
            assert d[name] is v
    json.dumps(d)


def test_no_dataclass_defines_its_own_to_dict():
    modules = [importlib.import_module(f"conekit.{m.name}")
               for m in pkgutil.iter_modules(conekit.__path__)
               if m.name != "__main__"]
    classes = [c for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__]
    records = [c for c in classes if dataclasses.is_dataclass(c)
               and issubclass(c, Record)]
    assert sorted(records, key=lambda cls: cls.__name__) == RECORDS
    assert len(RECORDS) == 14
    for cls in classes:
        if "to_dict" in vars(cls):
            assert cls is Record or issubclass(cls, Cone), cls
            assert not dataclasses.is_dataclass(cls), cls
