import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fhjm._substreams import path_normals
from fhjm.fbm import (
    BrownianDriver,
    FbmPathSet,
    TimeGrid,
    fbm_covariance,
    fbm_covariance_matrix,
    generate_cholesky,
    generate_polygonal,
    generate_volterra,
    write_paths_csv,
    _increment_factor,
    _increment_gram,
    _schur_factor,
    _kernel_matrix,
)
from fhjm.kernels import HurstParam, calibrate_kernel_scale, cov_cell_integral

H75 = HurstParam(0.75)


def test_covariance_examples():
    assert fbm_covariance(1.0, 1.0, HurstParam(0.6)) == 1.0
    assert fbm_covariance(0.5, 1.0, HurstParam(0.8)) == pytest.approx(0.5, abs=1e-15)
    # direct evaluation, cross-checked against the cell integral below
    assert fbm_covariance(0.25, 0.75, H75) == pytest.approx(0.2104828311225276, rel=1e-12)


def test_covariance_equals_cell_integral():
    for s, t in [(0.25, 0.75), (0.4, 1.3), (1.0, 1.0)]:
        assert fbm_covariance(s, t, H75) == pytest.approx(
            cov_cell_integral(0.0, s, 0.0, t, H75), rel=1e-12
        )


def test_cholesky_level_gram_exact():
    grid = TimeGrid(1.0, 128)
    lower = _increment_factor(grid, H75)
    cum = np.tril(np.ones((128, 128)))
    level_gram = cum @ (lower @ lower.T) @ cum.T
    target = fbm_covariance_matrix(grid.points[1:], H75)
    assert np.abs(level_gram - target).max() < 1e-10


@pytest.mark.parametrize("t_star,n,h", [(1.0, 64, 0.75), (2.0, 128, 0.7), (8.0, 512, 0.95)])
def test_toeplitz_factor_matches_lapack_on_the_dense_gram(t_star, n, h):
    grid, hurst = TimeGrid(t_star, n), HurstParam(h)
    gram = _increment_gram(grid, hurst)
    lower = _increment_factor(grid, hurst)
    assert not lower.flags.writeable
    assert np.array_equal(lower, np.tril(lower))
    assert np.abs(lower @ lower.T - gram).max() <= 1e-13 * gram[0, 0]
    oracle = np.linalg.cholesky(gram)
    assert np.abs(lower - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_toeplitz_factor_breakdown_takes_the_jitter_rule(monkeypatch):
    from fhjm import fbm

    assert _schur_factor(np.ones(2)) is None  # singular: the rotation has |rho| = 1
    grid = TimeGrid(1.0, 2)
    monkeypatch.setattr(fbm, "cov_cell_integral", lambda *args: np.ones(2))
    with pytest.warns(RuntimeWarning, match="jitter"):
        lower = _increment_factor.__wrapped__(grid, H75)  # the function behind the cache
    np.testing.assert_allclose(lower @ lower.T, np.ones((2, 2)) + 1e-12 * np.eye(2),
                               rtol=0, atol=1e-14)
    # indefinite: jitter cannot rescue it
    monkeypatch.setattr(fbm, "cov_cell_integral", lambda *args: np.array([1.0, 0.9, 0.2]))
    with pytest.warns(RuntimeWarning), pytest.raises(np.linalg.LinAlgError):
        _increment_factor.__wrapped__(TimeGrid(1.0, 3), H75)


def test_cholesky_statistics():
    grid = TimeGrid(1.0, 64)
    paths = generate_cholesky(grid, 2, 10_000, H75, seed=7)
    assert paths.samples.shape == (10_000, 2, 65)
    assert np.all(paths.samples[:, :, 0] == 0.0)
    var = paths.samples[:, 0, -1].var()
    se = 1.0 * np.sqrt(2 / 10_000)
    assert abs(var - 1.0) < 3 * se
    # independent components
    cross = np.mean(paths.samples[:, 0, -1] * paths.samples[:, 1, 32])
    se_cross = np.sqrt(fbm_covariance(0.5, 0.5, H75) * 1.0 / 10_000)
    assert abs(cross) < 3 * se_cross


def test_cholesky_determinism_and_substreams():
    grid = TimeGrid(1.0, 32)
    for dims in (1, 2):
        one = generate_cholesky(grid, dims, 1, H75, seed=9)
        again = generate_cholesky(grid, dims, 1, H75, seed=9)
        many = generate_cholesky(grid, dims, 8, H75, seed=9)
        assert np.array_equal(one.samples, again.samples)
        assert np.array_equal(one.samples[0], many.samples[0])
        # path_offset reproduces the tail of a larger draw
        tail = generate_cholesky(grid, dims, 5, H75, seed=9, path_offset=3)
        assert np.array_equal(many.samples[3:], tail.samples)


def test_cholesky_step_budget():
    with pytest.raises(ValueError):
        generate_cholesky(TimeGrid(1.0, 8192), 1, 1, H75, seed=0)


def test_stationary_increments():
    grid = TimeGrid(1.0, 64)
    paths = generate_cholesky(grid, 1, 6000, H75, seed=3)
    delta = 16  # 0.25 units
    target = 0.25**1.5
    se = target * np.sqrt(2 / 6000)
    for start in (0, 16, 32, 48):
        inc = paths.samples[:, 0, start + delta] - paths.samples[:, 0, start]
        assert abs(inc.var() - target) < 3 * se


def test_self_similarity():
    grid = TimeGrid(1.0, 64)
    paths = generate_cholesky(grid, 1, 6000, H75, seed=13)
    base = paths.samples[:, 0, 16].var()  # t = 0.25
    for c, idx in ((2, 32), (4, 64)):
        scaled = paths.samples[:, 0, idx].var() / c**1.5
        joint_se = 0.25**1.5 * np.sqrt(2 / 6000) * np.sqrt(2)
        assert abs(scaled - base) < 3 * joint_se


def test_volterra_same_driver_same_paths():
    grid = TimeGrid(1.0, 64)
    driver = BrownianDriver.generate(grid, 1, 5, seed=11)
    a = generate_volterra(driver, H75)
    b = generate_volterra(driver, H75)
    assert np.array_equal(a.samples, b.samples)


def test_volterra_zero_driver():
    grid = TimeGrid(1.0, 32)
    driver = BrownianDriver.generate(grid, 1, 2, seed=1)
    zero = BrownianDriver(grid=grid, increments=np.zeros_like(driver.increments))
    paths = generate_volterra(zero, H75)
    assert np.all(paths.samples == 0.0)


def test_volterra_discrete_variance_matches_self_similar_law():
    # resolution-matched calibration pins the horizon variance exactly
    for n in (128, 256, 512):
        grid = TimeGrid(2.0, n)
        scale = calibrate_kernel_scale(H75, n)
        kmat = _kernel_matrix(grid, H75, scale)
        dvar = float(np.sum(kmat[-1] ** 2) * grid.dt)
        assert dvar == pytest.approx(2.0**1.5, rel=1e-12)


def test_volterra_empirical_covariance():
    grid = TimeGrid(1.0, 64)
    driver = BrownianDriver.generate(grid, 1, 10_000, seed=5)
    paths = generate_volterra(driver, H75)
    pts = grid.points
    for i, j in [(16, 48), (32, 64), (64, 64)]:
        emp = np.mean(paths.samples[:, 0, i] * paths.samples[:, 0, j])
        tgt = fbm_covariance(pts[i], pts[j], H75)
        var_prod = fbm_covariance(pts[i], pts[i], H75) * fbm_covariance(
            pts[j], pts[j], H75
        ) + tgt**2
        se = np.sqrt(var_prod / 10_000)
        assert abs(emp - tgt) < 3 * se


def test_cross_method_agreement():
    grid = TimeGrid(1.0, 64)
    chol = generate_cholesky(grid, 1, 10_000, H75, seed=17)
    driver = BrownianDriver.generate(grid, 1, 10_000, seed=18)
    volt = generate_volterra(driver, H75)
    for i, j in [(32, 64), (16, 32)]:
        a = np.mean(chol.samples[:, 0, i] * chol.samples[:, 0, j])
        b = np.mean(volt.samples[:, 0, i] * volt.samples[:, 0, j])
        pts = grid.points
        tgt = fbm_covariance(pts[i], pts[j], H75)
        var_prod = (
            fbm_covariance(pts[i], pts[i], H75) * fbm_covariance(pts[j], pts[j], H75)
            + tgt**2
        )
        joint_se = np.sqrt(2 * var_prod / 10_000)
        assert abs(a - b) < 3 * joint_se


def test_polygonal_factor_one_matches_volterra():
    grid = TimeGrid(1.0, 64)
    driver = BrownianDriver.generate(grid, 1, 50, seed=23)
    ref = generate_volterra(driver, H75)
    poly = generate_polygonal(driver, H75, coarse_factor=1)
    assert np.abs(poly.samples - ref.samples).max() < 1e-3


def test_polygonal_zero_driver_and_divisibility():
    grid = TimeGrid(1.0, 32)
    zero = BrownianDriver(grid=grid, increments=np.zeros((2, 1, 32)))
    paths = generate_polygonal(zero, H75, coarse_factor=4)
    assert np.all(paths.samples == 0.0)
    with pytest.raises(ValueError):
        generate_polygonal(zero, H75, coarse_factor=5)


def test_polygonal_error_decreases_with_mesh():
    grid = TimeGrid(1.0, 256)
    driver = BrownianDriver.generate(grid, 1, 200, seed=29)
    ref = generate_volterra(driver, H75)
    errs = []
    for cf in (8, 4, 2):
        poly = generate_polygonal(driver, H75, coarse_factor=cf)
        errs.append(np.abs(poly.samples - ref.samples).max(axis=2).mean())
    assert errs[0] > errs[1] > errs[2]


def test_paths_csv_format():
    grid = TimeGrid(1.0, 2)
    paths = generate_cholesky(grid, 1, 1, H75, seed=1)
    buf = io.StringIO()
    write_paths_csv(paths, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "path_id,component,t,value"
    assert len(lines) == 1 + 3  # header + (n+1) rows for one path, one component
    assert lines[1].startswith("0,1,0,")


def _default_rng_draws(seed, path_index, shape):
    return np.random.default_rng(np.random.SeedSequence((seed, path_index))).standard_normal(shape)


@settings(max_examples=80, deadline=None)
@given(
    # seeds of one, two, three and more uint32 words
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**64 + 7, 2**96 + 1]),
                   st.integers(0, 2**100)),
    # path indices of one and two words
    offset=st.one_of(st.just(0), st.integers(0, 2**33), st.integers(2**32 - 3, 2**64 - 8)),
    n_paths=st.integers(1, 6),
    dims=st.sampled_from([1, 2]),
    n_steps=st.integers(1, 9),
)
@example(seed=0, offset=0, n_paths=3, dims=1, n_steps=4)
@example(seed=2**32 - 1, offset=0, n_paths=3, dims=2, n_steps=4)
@example(seed=2**32, offset=0, n_paths=3, dims=1, n_steps=4)
@example(seed=2**64 + 7, offset=0, n_paths=3, dims=2, n_steps=4)
def test_bulk_seeder_matches_default_rng_per_path(seed, offset, n_paths, dims, n_steps):
    got = path_normals(seed, offset, n_paths, (dims, n_steps))
    for p in range(n_paths):
        assert got[p].tobytes() == _default_rng_draws(seed, offset + p, (dims, n_steps)).tobytes()


def test_generators_draw_from_the_documented_substreams():
    grid = TimeGrid(1.0, 8)
    driver = BrownianDriver.generate(grid, 2, 3, seed=21, path_offset=4)
    for p in range(3):
        want = np.sqrt(grid.dt) * _default_rng_draws(21, 4 + p, (2, 8))
        assert driver.increments[p].tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        path_normals(-1, 0, 1, (1, 8))


def _cholesky_oracle(grid, dims, n_paths, hurst, seed, path_offset):
    # the sampler as one whole-batch formula: every normal drawn into its own
    # array, then the stacked product and its cumulative sum into a third
    lower = _increment_factor(grid, hurst)
    z = path_normals(seed, path_offset, n_paths, (dims, grid.n_steps))
    samples = np.zeros((n_paths, dims, grid.n_steps + 1))
    np.cumsum(z @ lower.T, axis=2, out=samples[:, :, 1:])
    return FbmPathSet(grid=grid, dims=dims, n_paths=n_paths, samples=samples)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 600])
def test_in_place_cholesky_batch_matches_the_whole_batch_formula(n_paths, dims):
    # normals drawn into the samples, product and cumulative sum a chunk of
    # paths at a time, increments differenced in place: the oracle's bits on
    # either side of every chunk boundary
    from fhjm.hjm import _path_increments

    grid, hurst, offset = TimeGrid(2.0, 48), HurstParam(0.7), 37
    want = _cholesky_oracle(grid, dims, n_paths, hurst, 5, offset)
    have = generate_cholesky(grid, dims, n_paths, hurst, seed=5, path_offset=offset)
    assert np.array_equal(_bits(have.samples), _bits(want.samples))
    dbeta = _path_increments("cholesky", grid, dims, n_paths, hurst, 5, offset)
    assert dbeta.shape == (n_paths, dims, grid.n_steps)
    assert np.array_equal(_bits(dbeta), _bits(want.increments()))


@pytest.mark.parametrize("dims", [1, 2])
def test_affine_rows_match_the_whole_batch_formula(dims):
    # 600 paths in batches of 257 (offsets 0, 257, 514; chunks of 256 and 1)
    # and in one batch, priced row by row from the in-place increments
    from fhjm.hjm import (
        InitialCurve,
        affine_log_discount,
        affine_rows,
        drift_for_simulation,
        simulation_grids,
    )
    from fhjm.vol import ExpDecayVol, FlatVol, VolatilitySpec

    tg, xg = simulation_grids(1.0, 16, 1.0, 16)
    spec = VolatilitySpec((FlatVol(0.01), ExpDecayVol(0.02, 1.5))[:dims])
    drift = drift_for_simulation(spec, H75, tg, xg, theta_cells=32)
    init = InitialCurve.flat(0.03, tg.dt, 33)
    mats = [0.5, 0.75, 1.0]
    c, g = affine_log_discount(spec, H75, drift, init, tg, xg, mats)
    dbeta = _cholesky_oracle(tg, dims, 600, H75, 6, 0).increments()
    log_z = np.zeros((600, tg.n_steps + 1, len(mats)))
    np.cumsum((dbeta[..., None] * g).sum(axis=1), axis=1, out=log_z[:, 1:])
    want = np.exp(log_z + c)
    for batch_size in (257, 600):
        have = np.concatenate([
            np.stack(list(batch.rows()), axis=1)
            for batch in affine_rows(spec, H75, drift, init, tg, xg, n_paths=600, seed=6,
                                     maturities=mats, batch_size=batch_size)
        ])
        assert np.array_equal(_bits(have), _bits(want)), batch_size


@pytest.mark.parametrize("dims", [1, 2])
def test_one_batch_of_increments_holds_one_path_array_and_one_chunk(dims):
    # drawing a 600-path batch and differencing it in place peaks at its one
    # (paths, d, n + 1) array plus one chunk's product, not at the normals, the
    # product, the samples and the increments side by side
    import tracemalloc

    from fhjm.fbm import CHUNK_PATHS
    from fhjm.hjm import _path_increments

    grid, n_paths = TimeGrid(8.0, 128), 600
    _path_increments("cholesky", grid, dims, 2, H75, 3, 0)  # warm the cached factor
    samples_bytes = n_paths * dims * (grid.n_steps + 1) * 8
    chunk_bytes = CHUNK_PATHS * dims * grid.n_steps * 8
    tracemalloc.start()
    try:
        dbeta = _path_increments("cholesky", grid, dims, n_paths, H75, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dbeta.base is not None and dbeta.base.nbytes == samples_bytes
    assert peak < 1.3 * (samples_bytes + chunk_bytes), (peak, samples_bytes, chunk_bytes)
