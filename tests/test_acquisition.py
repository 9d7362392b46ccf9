"""Scoring oracles and selection rules for every acquisition method.

Hand-built two-layer nets (identity first layer on one-hot inputs) let each
test dictate the exact logits a model produces, so expected scores come from
closed forms or explicit loops rather than from the code under test.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from allab import acquisition, pool as pool_module
from allab.acquisition import (
    METHODS,
    acquire,
    avg_predict,
    bald_acquire,
    coreset_acquire,
    entropy_acquire,
    entropy_scores,
    random_acquire,
    select_top_k,
)
from allab.errors import PoolError
from allab.layers import softmax
from allab.mmd import sq_dists, sq_norms
from allab.model import MlpParams, ModelSpec, dropout_probs, forward, init_mlp, predict_proba
from allab.pool import PoolState, evaluate
from allab.seeding import derive_rng
from test_model import trajectory_of

ENTROPY_ROWS = acquisition._ENTROPY_ROWS


def logit_model(W2, dropout_rate=0.0):
    """Two-layer net whose logits for one-hot input e_i are W2[i] (W1 = I)."""
    W2 = np.asarray(W2, dtype=np.float64)
    d, C = W2.shape
    flat = np.concatenate([np.eye(d).ravel(), np.zeros(d), W2.ravel(), np.zeros(C)])
    return MlpParams(ModelSpec((d, d, C), split_index=1, dropout_rate=dropout_rate), flat)


def make_pool(features, labeled=(), unlabeled=None, class_count=2):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    labeled = np.asarray(labeled, dtype=np.int64)
    if unlabeled is None:
        unlabeled = np.setdiff1d(np.arange(n), labeled)
    return PoolState(
        features=features,
        labels=np.zeros(n, dtype=np.int64),
        class_count=class_count,
        labeled_idx=labeled,
        unlabeled_idx=np.asarray(unlabeled, dtype=np.int64),
        test_idx=np.empty(0, dtype=np.int64),
    )


def entropy_loops(P):
    out = []
    for row in np.asarray(P, dtype=np.float64):
        h = 0.0
        for p in row:
            if p > 0:
                h -= p * np.log(p)
        out.append(h)
    return np.array(out)


# ---- avg_predict -----------------------------------------------------------

def test_avg_predict_single_snapshot_is_identity():
    params = init_mlp(ModelSpec([3, 5, 4], 1, 0.0), derive_rng(0))
    X = derive_rng(1).standard_normal((6, 3))
    traj = trajectory_of(params)
    assert np.array_equal(avg_predict(traj, X), predict_proba(params, X))


def test_avg_predict_identical_snapshots_collapse():
    params = init_mlp(ModelSpec([3, 5, 4], 1, 0.0), derive_rng(0))
    X = derive_rng(1).standard_normal((6, 3))
    traj = trajectory_of(*[params] * 4)
    assert np.allclose(avg_predict(traj, X), predict_proba(params, X), atol=1e-15)


def test_avg_predict_mean_of_opposed_models():
    # logits [1000, 0] vs [0, 1000]: probabilities [1, 0] and [0, 1] exactly
    a = logit_model([[1000.0, 0.0]])
    b = logit_model([[0.0, 1000.0]])
    X = np.array([[1.0]])
    traj = trajectory_of(a, b)
    assert np.array_equal(avg_predict(traj, X), [[0.5, 0.5]])


def test_avg_predict_rows_sum_to_one():
    rng = derive_rng(2)
    models = [init_mlp(ModelSpec([4, 6, 3], 1, 0.0), derive_rng(10 + i)) for i in range(3)]
    X = rng.standard_normal((50, 4))
    traj = trajectory_of(*models)
    P = avg_predict(traj, X)
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    C=st.integers(2, 100),
    n_snaps=st.integers(1, 10),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
    seed=st.integers(0, 2**31),
)
def test_float32_probability_rows_pass_the_entropy_check(C, n_snaps, scale, seed):
    # float32 rows sum to one within float32 rounding, well inside the
    # 1e-6 entropy_scores allows (over C 2-100 and 1-10 checkpoints the
    # worst row seen was 2.7e-7 off)
    rng = derive_rng(seed)
    spec = ModelSpec((4, 16, C), 1, 0.0)
    snaps = [
        MlpParams(spec, (scale * rng.standard_normal(spec.n_params)).astype(np.float32))
        for _ in range(n_snaps)
    ]
    X = rng.standard_normal((64, 4)).astype(np.float32)
    for P in (predict_proba(snaps[0], X), avg_predict(trajectory_of(*snaps), X)):
        assert P.dtype == np.float32
        assert np.abs(P.sum(axis=1, dtype=np.float64) - 1.0).max() <= 1e-6
        assert np.isfinite(entropy_scores(P)).all()


def test_avg_predict_rejects_empty_trajectory():
    # a trajectory is a nonempty (K, P) stack of checkpoints: neither an
    # empty stack nor one model's (P,) vector
    spec = ModelSpec([2, 3, 2], 1, 0.0)
    for flat in (np.empty((0, spec.n_params)), np.zeros(spec.n_params)):
        with pytest.raises(ValueError, match=r"^a trajectory is a nonempty \(K, P\) stack, got parameters \("):
            avg_predict(MlpParams(spec, flat), np.zeros((1, 2)))


# ---- entropy_scores --------------------------------------------------------

def test_entropy_uniform_ten_classes():
    H = entropy_scores(np.full((1, 10), 0.1))
    assert H[0] == pytest.approx(np.log(10.0), abs=1e-12)  # ~2.302585


def test_entropy_one_hot_is_zero():
    assert entropy_scores(np.array([[0.0, 1.0, 0.0]]))[0] == 0.0


def test_entropy_half_half():
    assert entropy_scores(np.array([[0.5, 0.5]]))[0] == pytest.approx(np.log(2.0), abs=1e-15)


def test_entropy_zero_times_log_zero():
    # a zero entry contributes nothing; no nan leaks out
    H = entropy_scores(np.array([[0.0, 0.5, 0.5]]))
    assert H[0] == pytest.approx(np.log(2.0), abs=1e-15)


def test_entropy_rejects_bad_row_and_names_it():
    P = np.array([[0.5, 0.5], [0.9, 0.3]])
    with pytest.raises(ValueError, match="row 1"):
        entropy_scores(P)
    with pytest.raises(ValueError, match="row 0 is not a probability vector"):
        entropy_scores(np.array([[np.nan, 0.5]]))
    with pytest.raises(ValueError, match="row 1 is not a probability vector"):
        entropy_scores(np.array([[0.5, 0.5], [1.5, -0.5]]))  # sums to 1


def test_entropy_bounds_on_random_rows():
    rng = derive_rng(3)
    logits = rng.standard_normal((500, 7)) * 5
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    P = e / e.sum(axis=1, keepdims=True)
    H = entropy_scores(P)
    assert np.all(H >= 0.0)
    assert np.all(H <= np.log(7.0) + 1e-12)
    assert np.allclose(H, entropy_loops(P), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_in_place_entropy_terms_equal_the_where_form(data, shape, dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    P = data.draw(hnp.arrays(dtype, shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0, float(tiny), float(4 * tiny), 1.0]),
        st.floats(0, 1, width=np.finfo(dtype).bits),
        st.floats(-1, 0, width=np.finfo(dtype).bits),  # unchecked: not P > 0 gives 0
    )))
    P64 = P.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = -np.where(P64 > 0, P64 * np.log(P64), 0.0).sum(axis=1)
    assert acquisition._entropy(P).tobytes() == want.tobytes()
    terms = np.full(shape, np.nan)
    assert acquisition._entropy(P, terms).tobytes() == want.tobytes()


def entropy_scores_from_a_float64_copy(P):
    """entropy_scores as it was: P copied to float64, then checked and scored."""
    P = np.asarray(P, dtype=np.float64)
    sums = P.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-6) | (P < 0).any(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"row {i} is not a probability vector (sums to {float(sums[i])}, least entry {float(P[i].min())})"
        )
    return acquisition._entropy(P)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 12), st.integers(1, 300)),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_entropy_scores_equal_the_float64_copy_form(data, shape, dtype):
    # rows that pass the check, skewed toward one entry, then a share of
    # their entries set to a zero, a subnormal, a negative entry or NaN
    rng = derive_rng(data.draw(st.integers(0, 2**31), label="seed"), "entropy")
    P = rng.random(shape) ** data.draw(st.sampled_from([1, 8, 40]), label="skew")
    P = (P / P.sum(axis=1, keepdims=True)).astype(dtype)
    tiny = float(np.finfo(dtype).smallest_subnormal)
    special = data.draw(st.sampled_from([0.0, -0.0, tiny, 4 * tiny, -tiny, -1e-3, np.nan]), label="special")
    P[rng.random(shape) < data.draw(st.sampled_from([0.0, 0.05, 0.5]), label="share")] = special
    try:
        want = entropy_scores_from_a_float64_copy(P)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            entropy_scores(P)
    else:
        assert entropy_scores(P).tobytes() == want.tobytes()


# ---- select_top_k ----------------------------------------------------------

def test_top_k_basic():
    assert select_top_k(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]


def test_top_k_tie_rule():
    assert select_top_k(np.ones(4), 2).tolist() == [0, 1]


def test_top_k_full_is_permutation():
    scores = derive_rng(4).standard_normal(9)
    picks = select_top_k(scores, 9)
    assert sorted(picks.tolist()) == list(range(9))
    assert np.all(np.diff(scores[picks]) <= 0)


def test_top_k_clamps_oversized_k():
    assert len(select_top_k(np.array([3.0, 1.0]), 10)) == 2


def test_top_k_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        select_top_k(np.array([1.0]), 0)


def test_top_k_shift_invariance():
    scores = derive_rng(5).standard_normal(20)
    base = select_top_k(scores, 7)
    assert np.array_equal(select_top_k(scores + 123.45, 7), base)


# ---- mpts ------------------------------------------------------------------

def test_mpts_single_checkpoint_matches_entropy_method():
    params = init_mlp(ModelSpec([4, 8, 3], 1, 0.0), derive_rng(6))
    X = derive_rng(7).standard_normal((30, 4))
    pool = make_pool(X, labeled=[0, 1, 2], class_count=3)
    traj = trajectory_of(params)
    r_mpts = entropy_acquire(traj, pool, 5)
    # the single model's own entropy ranking
    scores = entropy_scores(predict_proba(params, X[pool.unlabeled_idx]))
    assert np.array_equal(r_mpts.selected, pool.unlabeled_idx[select_top_k(scores, 5)])
    assert np.array_equal(r_mpts.scores, scores)


def test_mpts_prefers_point_of_maximal_disagreement():
    # 3 one-hot points; the models agree confidently on two and answer the
    # third in opposite directions, so its averaged prediction is uniform
    X = np.eye(3)
    a = logit_model([[1000.0, 0.0], [800.0, 0.0], [0.0, 800.0]])
    b = logit_model([[0.0, 1000.0], [800.0, 0.0], [0.0, 800.0]])
    pool = make_pool(X)
    traj = trajectory_of(a, b)
    result = entropy_acquire(traj, pool, 1)
    assert result.selected.tolist() == [0]
    expected = entropy_loops((predict_proba(a, X) + predict_proba(b, X)) / 2.0)
    assert np.allclose(result.scores, expected, atol=1e-12)
    assert result.scores[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_mpts_budget_covers_pool():
    params = init_mlp(ModelSpec([2, 4, 2], 1, 0.0), derive_rng(8))
    X = derive_rng(9).standard_normal((8, 2))
    pool = make_pool(X, labeled=[3])
    traj = trajectory_of(params)
    result = entropy_acquire(traj, pool, 99)
    assert sorted(result.selected.tolist()) == sorted(pool.unlabeled_idx.tolist())


def test_mpts_empty_pool_is_an_error():
    params = init_mlp(ModelSpec([2, 4, 2], 1, 0.0), derive_rng(8))
    pool = make_pool(np.zeros((3, 2)), labeled=[0, 1, 2])
    traj = trajectory_of(params)
    with pytest.raises(PoolError):
        entropy_acquire(traj, pool, 1)


# ---- random ----------------------------------------------------------------

def test_random_budget_equal_pool_takes_everything():
    pool = make_pool(np.zeros((10, 2)), labeled=[0, 5])
    result = random_acquire(pool, 8, derive_rng(10))
    assert sorted(result.selected.tolist()) == sorted(pool.unlabeled_idx.tolist())
    assert result.scores.size == 0


def test_random_same_seed_same_selection():
    pool = make_pool(np.zeros((30, 2)), labeled=[0])
    a = random_acquire(pool, 5, derive_rng(11)).selected
    b = random_acquire(pool, 5, derive_rng(11)).selected
    assert np.array_equal(a, b)


def test_random_uniformity_monte_carlo():
    pool = make_pool(np.zeros((5, 1)))
    rng = derive_rng(12)
    counts = np.zeros(5)
    n = 100_000
    for _ in range(n):
        counts[random_acquire(pool, 1, rng).selected[0]] += 1
    assert np.abs(counts / n - 0.2).max() <= 0.01


def test_random_selection_is_distinct_and_unlabeled():
    pool = make_pool(np.zeros((40, 2)), labeled=np.arange(10))
    result = random_acquire(pool, 12, derive_rng(13))
    assert len(np.unique(result.selected)) == 12
    assert np.all(np.isin(result.selected, pool.unlabeled_idx))


# ---- entropy ---------------------------------------------------------------

def test_entropy_uniform_model_degenerates_to_tie_rule():
    # zero weights give identical logits everywhere: first k unlabeled win
    params = MlpParams(ModelSpec((2, 4, 3), 1), np.zeros(2 * 4 + 4 + 4 * 3 + 3))
    pool = make_pool(derive_rng(14).standard_normal((9, 2)), labeled=[4], class_count=3)
    result = entropy_acquire(trajectory_of(params), pool, 3)
    assert result.selected.tolist() == pool.unlabeled_idx[:3].tolist()


def test_entropy_boundary_point_outranks_interior():
    # hidden [relu(x), relu(-x)] = (x+, x-); logits (3x, -3x): boundary at 0
    params = MlpParams(
        ModelSpec((1, 2, 2), split_index=1),
        np.array([1.0, -1.0, 0.0, 0.0, 3.0, -3.0, -3.0, 3.0, 0.0, 0.0]),
    )
    X = np.array([[0.01], [5.0]])
    pool = make_pool(X)
    result = entropy_acquire(trajectory_of(params), pool, 1)
    assert result.selected.tolist() == [0]
    # closed form: H(sigmoid(6x) vs 1-sigmoid(6x))
    for x, score in zip((0.01, 5.0), result.scores):
        p = 1.0 / (1.0 + np.exp(-6.0 * x))
        expected = -(p * np.log(p) + (1 - p) * np.log1p(-p))
        assert score == pytest.approx(expected, abs=1e-12)


# ---- bald ------------------------------------------------------------------

def bald_scores_from_probs(stack):
    """Mutual information from a (passes, n, C) probability stack: the
    scores bald_acquire gave when it held every pass at once."""
    mean_entropy = np.stack([entropy_scores(stack[t]) for t in range(stack.shape[0])]).mean(axis=0)
    return entropy_scores(stack.mean(axis=0)) - mean_entropy


def test_bald_identical_passes_score_zero():
    # mean of T identical rows re-rounds (sum/T), so "zero" means ~1 ulp
    stack = np.tile(np.array([[[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]]), (7, 1, 1))
    assert np.abs(bald_scores_from_probs(stack)).max() <= 1e-14


def test_bald_vanishing_dropout_limit():
    # rate ~ 0 keeps every unit in every pass, so passes agree exactly
    params = init_mlp(ModelSpec([3, 6, 2], 1, 1e-12), derive_rng(15))
    pool = make_pool(derive_rng(16).standard_normal((12, 3)), labeled=[0])
    result = bald_acquire(params, pool, 4, 10, derive_rng(17))
    assert np.abs(result.scores).max() <= 1e-14


def test_bald_maximal_disagreement_is_ln2():
    stack = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    assert bald_scores_from_probs(stack)[0] == pytest.approx(np.log(2.0), abs=1e-15)


def test_bald_matches_brute_force_replay():
    params = init_mlp(ModelSpec([4, 8, 3], 1, 0.5), derive_rng(18))
    pool = make_pool(derive_rng(19).standard_normal((25, 4)), labeled=[1, 2], class_count=3)
    result = bald_acquire(params, pool, 6, 12, derive_rng(20))

    # replay the identical rng stream, then score with explicit loops
    rng = derive_rng(20)
    X = pool.features[pool.unlabeled_idx]
    stack = []
    for _ in range(12):
        _, logits, _ = forward(params, X, train_mode=True, rng=rng)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        stack.append(e / e.sum(axis=1, keepdims=True))
    stack = np.array(stack)
    expected = entropy_loops(stack.mean(axis=0)) - entropy_loops(
        stack.reshape(-1, 3)
    ).reshape(12, -1).mean(axis=0)
    assert np.allclose(result.scores, expected, atol=1e-12)
    assert np.all(result.scores >= -1e-9)


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 8), min_size=1, max_size=2),
    rate=st.sampled_from([1e-9, 0.1, 0.5, 0.9]),
    passes=st.integers(2, 25),
    # one block of entropy terms, or two to four
    n=st.one_of(st.integers(2, 30), st.integers(ENTROPY_ROWS + 1, 4 * ENTROPY_ROWS)),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),  # 1e3 saturates rows to exact 0s and 1s
    seed=st.integers(0, 2**31),
)
def test_bald_scores_equal_the_stack_of_every_pass(hidden, rate, passes, n, scale, seed):
    rng = derive_rng(seed, "init")
    d, C = int(rng.integers(1, 6)), int(rng.integers(2, 6))
    params = init_mlp(ModelSpec((d, *hidden, C), 1, rate), rng)
    pool = make_pool(scale * rng.standard_normal((n + 1, d)), labeled=[0], class_count=C)
    got_rng, want_rng = derive_rng(seed, "bald"), derive_rng(seed, "bald")
    with np.errstate(over="ignore"):
        got = bald_acquire(params, pool, 3, passes, got_rng)
        X = pool.features[pool.unlabeled_idx]
        stack = np.stack(
            [softmax(forward(params, X, train_mode=True, rng=want_rng)[1]) for _ in range(passes)]
        )
    want = bald_scores_from_probs(stack)
    assert np.array_equal(got.scores.view(np.uint64), want.view(np.uint64))
    assert got.selected.tolist() == pool.unlabeled_idx[select_top_k(want, 3)].tolist()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_bald_score_of_a_lone_point_is_the_stack_form_to_the_last_bit():
    # numpy sums the passes of a lone column pairwise from 8 passes on, where
    # bald_acquire adds them in order, so the last bit may differ
    params = init_mlp(ModelSpec((2, 1, 3), 1, 1e-9), derive_rng(1, "init"))
    pool = make_pool(derive_rng(2).standard_normal((2, 2)), labeled=[0], class_count=3)
    got = bald_acquire(params, pool, 1, 8, derive_rng(3))
    rng = derive_rng(3)
    X = pool.features[[1]]
    stack = np.stack([softmax(forward(params, X, train_mode=True, rng=rng)[1]) for _ in range(8)])
    want = bald_scores_from_probs(stack)
    assert got.selected.tolist() == [1]
    assert got.scores[0] == pytest.approx(want[0], abs=1e-15)


def test_bald_requires_dropout_and_two_passes():
    dry = init_mlp(ModelSpec([2, 4, 2], 1, 0.0), derive_rng(21))
    wet = init_mlp(ModelSpec([2, 4, 2], 1, 0.5), derive_rng(21))
    pool = make_pool(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        bald_acquire(dry, pool, 1, 10, derive_rng(22))
    with pytest.raises(ValueError):
        bald_acquire(wet, pool, 1, 1, derive_rng(22))


# ---- coreset ---------------------------------------------------------------

def coreset_loops(Z_unlabeled, Z_labeled, budget):
    """Greedy k-center with explicit python loops (positions, not pool ids)."""
    centers = [z for z in Z_labeled]
    remaining = list(range(len(Z_unlabeled)))
    picks, dists = [], []
    for _ in range(min(budget, len(Z_unlabeled))):
        best_pos, best_d = None, -1.0
        for pos in remaining:
            d = min(
                (float(np.linalg.norm(Z_unlabeled[pos] - c)) for c in centers),
                default=float("inf"),
            )
            if d > best_d:
                best_pos, best_d = pos, d
        picks.append(best_pos)
        dists.append(best_d)
        remaining.remove(best_pos)
        centers.append(Z_unlabeled[best_pos])
    return picks, dists


@pytest.mark.parametrize("n,seed", [(20, 23), (20, 24), (50, 25)])
def test_coreset_matches_brute_force(n, seed):
    rng = derive_rng(seed)
    params = init_mlp(ModelSpec([3, 5, 2], 1, 0.0), derive_rng(100 + seed))
    X = rng.standard_normal((n, 3))
    labeled = np.arange(4)
    pool = make_pool(X, labeled=labeled)
    result = coreset_acquire(params, pool, 8)

    Z_u, _, _ = forward(params, X[pool.unlabeled_idx])
    Z_l, _, _ = forward(params, X[labeled])
    picks, dists = coreset_loops(Z_u, Z_l, 8)
    assert result.selected.tolist() == pool.unlabeled_idx[picks].tolist()
    assert np.allclose(result.scores, dists, atol=1e-10)
    assert np.all(np.diff(result.scores) <= 1e-12)  # max-min radii shrink


def coreset_allocating(final, pool, budget):
    """coreset_acquire as it was before its loop reused buffers: fresh arrays each pick."""
    unlabeled, labeled = pool.unlabeled_idx, pool.labeled_idx
    Z_u, _, _ = forward(final, pool.features[unlabeled])
    if len(labeled):
        Z_l, _, _ = forward(final, pool.features[labeled])
        d2 = (Z_u * Z_u).sum(axis=1)[:, None] + (Z_l * Z_l).sum(axis=1)[None, :] - 2.0 * Z_u @ Z_l.T
        min_dist = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    else:
        min_dist = np.full(len(unlabeled), np.inf)
    picked_pos, pick_dists = [], []
    available = np.ones(len(unlabeled), dtype=bool)
    for _ in range(min(budget, len(unlabeled))):
        masked = np.where(available, min_dist, -np.inf)
        pos = int(np.argmax(masked))
        picked_pos.append(pos)
        pick_dists.append(float(min_dist[pos]))
        available[pos] = False
        gap = Z_u - Z_u[pos]
        min_dist = np.minimum(min_dist, np.sqrt((gap * gap).sum(axis=1)))
    return np.array(pick_dists), unlabeled[np.array(picked_pos)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    n_labeled=st.integers(0, 5),
    budget=st.integers(1, 45),
    duplicates=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_coreset_bitwise_equal_to_allocating_loop(n, n_labeled, budget, duplicates, seed):
    rng = derive_rng(seed)
    X = rng.standard_normal((n + n_labeled, 3))
    if duplicates:  # exact ties between points
        X[rng.integers(0, len(X), len(X) // 2)] = X[0]
    params = init_mlp(ModelSpec([3, 6, 2], 1, 0.0), rng)
    pool = make_pool(X, labeled=np.arange(n_labeled))
    result = coreset_acquire(params, pool, budget)
    dists, selected = coreset_allocating(params, pool, budget)
    assert result.selected.tolist() == selected.tolist()
    assert np.array_equal(result.scores.view(np.uint64), dists.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3000),
    m=st.integers(1, 400),
    h=st.sampled_from([1, 2, 8, 64, 128]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31),
)
# more labeled points than a block's rows but for the 2 * m + 1 floor, and many blocks
@example(n=257, m=192, h=128, dtype=np.float64, seed=0)
@example(n=257, m=192, h=128, dtype=np.float32, seed=0)
@example(n=3000, m=150, h=128, dtype=np.float32, seed=1)
def test_blocked_min_distances_equal_the_whole_matrix(n, m, h, dtype, seed):
    # ReLU features, zeros and ties among them, as a model's Z
    rng = derive_rng(seed, "min dists")
    Z_u = np.maximum(rng.standard_normal((n, h)), 0.0).astype(dtype)
    Z_l = np.maximum(rng.standard_normal((m, h)), 0.0).astype(dtype)
    whole = np.sqrt(sq_dists(Z_u, Z_l, sq_norms(Z_u), sq_norms(Z_l)).min(axis=1))
    assert acquisition._min_dists(Z_u, Z_l).tobytes() == whole.tobytes()


def test_coreset_picks_farthest_point():
    # feature map x -> [relu(x), relu(-x)]: distances equal |x| gaps
    params = MlpParams(ModelSpec((1, 2, 2), 1), np.array([1.0, -1.0, 0, 0, 1, 0, 0, 1, 0, 0]))
    pool = make_pool(np.array([[0.0], [1.0], [10.0]]), labeled=[0])
    result = coreset_acquire(params, pool, 1)
    assert result.selected.tolist() == [2]
    assert result.scores[0] == pytest.approx(10.0, abs=1e-12)


def test_coreset_duplicate_of_labeled_goes_last():
    params = MlpParams(ModelSpec((1, 2, 2), 1), np.array([1.0, -1.0, 0, 0, 1, 0, 0, 1, 0, 0]))
    pool = make_pool(np.array([[5.0], [5.0], [3.0]]), labeled=[0])
    result = coreset_acquire(params, pool, 2)
    assert result.selected.tolist() == [2, 1]
    assert result.scores[1] == pytest.approx(0.0, abs=1e-12)


def test_coreset_clamps_budget():
    params = init_mlp(ModelSpec([2, 4, 2], 1, 0.0), derive_rng(26))
    pool = make_pool(derive_rng(27).standard_normal((6, 2)), labeled=[0, 1])
    result = coreset_acquire(params, pool, 50)
    assert sorted(result.selected.tolist()) == sorted(pool.unlabeled_idx.tolist())


# ---- scored rows -----------------------------------------------------------

def test_every_scoring_call_reads_its_rows_as_the_copied_out_selection(monkeypatch):
    # a 784-wide float32 pool whose selections take several row blocks: every
    # method and the evaluation give the bits of copying pool.features[idx] out
    rng = derive_rng(33)
    n = 3100
    features = rng.standard_normal((n, 784), dtype=np.float32)
    labeled = rng.permutation(n)[:700]  # in acquisition order
    rest = np.setdiff1d(np.arange(n), labeled)
    pool = PoolState(features, rng.integers(0, 10, n), 10, labeled, rest[:1500], rest[1500:])
    final = init_mlp(ModelSpec((784, 128, 10), 1, 0.5), derive_rng(34))
    final = MlpParams(final.spec, final.flat.astype(np.float32))
    trajectory = trajectory_of(final, final)

    def scored():
        return [evaluate(trajectory, pool)] + [
            acquire(method, pool, 5, trajectory, derive_rng(35), bald_passes=3) for method in METHODS
        ]

    got = scored()
    monkeypatch.setattr(acquisition, "forward", lambda p, X, rows: forward(p, X[rows]))
    monkeypatch.setattr(acquisition, "avg_predict", lambda tr, X, rows: avg_predict(tr, X[rows]))
    monkeypatch.setattr(pool_module, "avg_predict", lambda tr, X, rows: avg_predict(tr, X[rows]))
    monkeypatch.setattr(acquisition, "dropout_probs",
                        lambda p, X, passes, rng, rows: dropout_probs(p, X[rows], passes, rng))
    want = scored()
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:], strict=True):
        for field in ("scored", "scores", "selected"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes()


# ---- dispatcher ------------------------------------------------------------

def test_acquire_routes_every_method():
    params = init_mlp(ModelSpec([2, 4, 2], 1, 0.5), derive_rng(28))
    pool = make_pool(derive_rng(29).standard_normal((15, 2)), labeled=[0, 1])
    traj = trajectory_of(params)
    for method in METHODS:
        result = acquire(method, pool, 3, traj, derive_rng(30))
        assert len(result.scored) == len(result.scores)  # each score names its point
        assert len(result.selected) == 3
        assert np.all(np.isin(result.selected, pool.unlabeled_idx))
        assert len(np.unique(result.selected)) == 3


def test_acquire_unknown_method():
    params = init_mlp(ModelSpec([2, 4, 2], 1, 0.0), derive_rng(31))
    pool = make_pool(np.zeros((4, 2)))
    traj = trajectory_of(params)
    with pytest.raises(ValueError, match="margin"):
        acquire("margin", pool, 2, traj, derive_rng(32))
