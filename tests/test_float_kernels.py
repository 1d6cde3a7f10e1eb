"""The single-state float kernels equal their numpy twins bit for bit.

The flight loop runs every tick on Python floats through these kernels, so
its bytes match the array code only if each kernel matches exactly: on
random inputs from hypothesis (derandomized, fixed example counts) and on
the branch edges named in each test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from apiary import math3d as m3
from apiary.actuation import clamp_axes
from apiary.baseline import PdGains, pd_wrench_f
from apiary.dynamics import SimulationDivergedError, step_arrays, step_f


def fixed(n):
    """Derandomized hypothesis run of n examples, no example database."""

    def wrap(test):
        return seed(20240611)(
            settings(max_examples=n, derandomize=True, database=None, deadline=None)(test)
        )

    return wrap


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def same(float_fn, array_fn, *args):
    """float_fn(*lists) and array_fn(*arrays) agree bit for bit, or raise
    the same ValueError."""
    try:
        want = array_fn(*(np.array(a, dtype=np.float64) for a in args))
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            float_fn(*args)
        return None
    got = float_fn(*args)
    assert all(type(c) is float for c in (got if isinstance(got, list) else [got]))
    assert bits(got) == bits(want), (got, want)
    return got


finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
vec3s = st.lists(finite, min_size=3, max_size=3)
quats = st.lists(finite, min_size=4, max_size=4)


@st.composite
def unit_quats(draw):
    q = draw(quats)
    n = math.sqrt(sum(c * c for c in q))
    return [c / n for c in q] if n > 1e-3 else [1.0, 0.0, 0.0, 0.0]


@fixed(300)
@given(vec3s)
def test_vec_norm_f(v):
    assert type(m3.vec_norm_f(v)) is float
    same(m3.vec_norm_f, m3.vec_norm, v)


@fixed(300)
@given(quats)
@example([0.0, 0.0, 0.0, 0.0])  # zero quaternion: the same error
@example([1e-200, -0.0, 0.0, 1e-200])  # squares underflow to a zero norm
def test_quat_normalize_f(q):
    same(m3.quat_normalize_f, m3.quat_normalize, q)


@fixed(300)
@given(quats, quats)
def test_quat_mul_f(a, b):
    same(m3.quat_mul_f, m3.quat_mul, a, b)


def test_non_finite_quaternion_raises_like_array_path():
    for bad in ([math.nan, 0.0, 0.0, 1.0], [1.0, math.inf, 0.0, 0.0]):
        same(m3.quat_mul_f, m3.quat_mul, bad, [1.0, 0.0, 0.0, 0.0])
        same(m3.quat_mul_f, m3.quat_mul, [1.0, 0.0, 0.0, 0.0], bad)
        same(m3.quat_normalize_f, m3.quat_normalize, bad)
        same(m3.quat_error_f, m3.quat_error, bad, [1.0, 0.0, 0.0, 0.0])


@fixed(300)
@given(vec3s)
@example([0.0, 0.0, 0.0])
@example([1e-9, -2e-9, 0.0])  # the small-angle series branch
@example([math.pi, 0.0, 0.0])
def test_quat_from_rotvec_f(rv):
    same(m3.quat_from_rotvec_f, m3.quat_from_rotvec, rv)


@fixed(300)
@given(unit_quats(), vec3s)
def test_quat_rotate_f(q, v):
    same(m3.quat_rotate_f, m3.quat_rotate, q, v)
    same(m3.quat_rotate_inv_f, m3.quat_rotate_inv, q, v)


@fixed(300)
@given(unit_quats(), unit_quats())
@example([1.0, 0.0, 0.0, 0.0], [-0.5, 0.5, 0.5, 0.5])  # w of the product < 0
@example([0.5, 0.5, -0.5, 0.5], [0.5, 0.5, -0.5, 0.5])  # identical attitudes
def test_quat_error_f(goal, current):
    same(m3.quat_error_f, m3.quat_error, goal, current)


def test_quat_error_f_branch_edges():
    goal = m3.quat_normalize(np.array([0.3, -0.2, 0.9, 0.1])).tolist()
    # canonicalize flip: the raw product has w < 0
    current = m3.quat_mul(np.array(goal), m3.quat_from_rotvec(np.array([0.0, 0.0, 4.0])))
    assert m3.quat_mul(np.array(goal), current * [1.0, -1.0, -1.0, -1.0])[0] < 0.0
    got = same(m3.quat_error_f, m3.quat_error, goal, current.tolist())
    assert m3.vec_norm_f(got) < math.pi
    # identical attitudes: a true zero error
    assert same(m3.quat_error_f, m3.quat_error, goal, goal) == [0.0, 0.0, 0.0]
    # vn < 1e-12 but not zero: the 2/w limit branch
    tiny = m3.quat_mul(np.array(goal), m3.quat_from_rotvec(np.array([4e-13, 0.0, 0.0])))
    product = m3.quat_mul(np.array(goal), tiny * [1.0, -1.0, -1.0, -1.0])
    assert 0.0 < m3.vec_norm(product[1:]) < 1e-12
    got = same(m3.quat_error_f, m3.quat_error, goal, tiny.tolist())
    assert got != [0.0, 0.0, 0.0]


# ------------------------------------------------- batch shapes
#
# BatchEnv calls the array kernels on (n, 3) and (n, 4) arrays. Each row
# of such a call must equal the float twin on that row alone, for batches
# of 1, 3 and 64 rows.

batch_sizes = st.sampled_from([1, 3, 64])


@st.composite
def batches(draw, *elements):
    """One list of n rows per element strategy, all with the same n."""
    n = draw(batch_sizes)
    return [draw(st.lists(e, min_size=n, max_size=n)) for e in elements]


def same_rows(float_fn, array_fn, *args, broadcast=()):
    """array_fn over the stacked rows equals float_fn row by row, bit for
    bit. Arguments whose index is in `broadcast` are one row, shared."""
    want = array_fn(*(np.array(a, dtype=np.float64) for a in args))
    n = max(len(a) for i, a in enumerate(args) if i not in broadcast)
    assert len(want) == n
    for r in range(n):
        got = float_fn(*(a if i in broadcast else a[r] for i, a in enumerate(args)))
        assert bits(got) == bits(want[r]), (r, got, want[r])


def cross_twin(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


nonzero_quats = quats.filter(lambda q: sum(c * c for c in q) > 1e-6)


@fixed(60)
@given(batches(vec3s, vec3s))
def test_batched_vec_norm_and_cross(ab):
    a, b = ab
    same_rows(m3.vec_norm_f, m3.vec_norm, a)
    same_rows(cross_twin, m3.vec_cross, a, b)
    same_rows(cross_twin, m3.vec_cross, a[0], b, broadcast=(0,))


@fixed(60)
@given(batches(nonzero_quats, nonzero_quats))
def test_batched_quat_normalize_and_mul(ab):
    a, b = ab
    same_rows(m3.quat_normalize_f, m3.quat_normalize, a)
    same_rows(m3.quat_mul_f, m3.quat_mul, a, b)
    same_rows(m3.quat_mul_f, m3.quat_mul, a[0], b, broadcast=(0,))
    same_rows(m3.quat_mul_f, m3.quat_mul, a, b[0], broadcast=(1,))


@fixed(60)
@given(batches(vec3s))
@example([[[0.3, -1.0, 2.0], [0.0, 0.0, 0.0], [1e-9, -2e-9, 0.0]]])  # series rows among others
def test_batched_quat_from_rotvec(rv):
    same_rows(m3.quat_from_rotvec_f, m3.quat_from_rotvec, rv[0])


@fixed(60)
@given(batches(unit_quats(), vec3s))
def test_batched_quat_rotate(qv):
    q, v = qv
    same_rows(m3.quat_rotate_f, m3.quat_rotate, q, v)
    same_rows(m3.quat_rotate_inv_f, m3.quat_rotate_inv, q, v)
    same_rows(m3.quat_rotate_inv_f, m3.quat_rotate_inv, q[0], v, broadcast=(0,))


@fixed(60)
@given(batches(unit_quats(), unit_quats()))
@example([  # a zero error (the 2/w limit) among nonzero ones, and a w < 0 product
    [[0.5, 0.5, -0.5, 0.5], [1.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.9, 0.1]],
    [[0.5, 0.5, -0.5, 0.5], [-0.5, 0.5, 0.5, 0.5], [0.9, 0.1, 0.3, -0.2]],
])
def test_batched_quat_error(gc):
    goal, current = gc
    same_rows(m3.quat_error_f, m3.quat_error, goal, current)
    same_rows(m3.quat_error_f, m3.quat_error, goal[0], current, broadcast=(0,))
    # terms made one goal at a time into a component-major table, as
    # BatchEnv keeps them
    terms = np.zeros((16, len(goal))).T
    for r, g in enumerate(goal):
        terms[r] = m3.quat_error_terms(np.array(g))
    got = m3.quat_error_from_terms(terms, np.array(current))
    assert got.tobytes() == m3.quat_error(np.array(goal), np.array(current)).tobytes()


# ----------------------------------------------------------- clamp


def clamp_twin(cmd, prev, limit, rate, dt):
    """The array clamp: np.clip, the slew np.clip, then np.nan_to_num."""
    out = np.clip(np.array(cmd), -limit, limit)
    if prev is not None and rate > 0.0:
        d = rate * dt
        out = np.array(prev) + np.clip(out - np.array(prev), -d, d)
    return np.nan_to_num(out, nan=0.0, posinf=limit, neginf=-limit)


LIMIT = 0.4
edge = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, LIMIT, -LIMIT])
axis_values = st.one_of(edge, st.floats(-1.0, 1.0, allow_nan=False), st.floats())
prev_axes = st.lists(st.floats(-LIMIT, LIMIT, allow_nan=False), min_size=3, max_size=3)


@fixed(300)
@given(
    st.lists(axis_values, min_size=3, max_size=3),
    st.none() | prev_axes,
    st.sampled_from([0.0, 0.5, 2.0, 1e6]),
)
@example([math.nan, math.inf, -math.inf], None, 0.0)
@example([math.nan, math.inf, -math.inf], [0.1, -0.2, 0.0], 0.5)
@example([-0.0, LIMIT, -LIMIT], None, 0.0)
@example([-0.0, LIMIT, -LIMIT], [0.0, 0.0, 0.0], 0.5)
@example([-0.0, LIMIT, -LIMIT], [LIMIT, -LIMIT, -0.0], 1e6)
def test_clamp_axes(cmd, prev, rate):
    dt = 0.016
    got = clamp_axes(cmd, prev, LIMIT, rate, dt)
    assert all(type(c) is float and math.isfinite(c) for c in got)
    assert bits(got) == bits(clamp_twin(cmd, prev, LIMIT, rate, dt)), (cmd, prev, rate)


# ----------------------------------------------------------- PD wrench


def pd_twin(pos_err, ori_err, att, lin_vel, ang_vel, g):
    """The array PD law on world-frame errors."""
    f_world = g.kp_pos * pos_err - g.kd_pos * lin_vel
    tau = g.kp_att * m3.quat_rotate_inv(att, ori_err) - g.kd_att * ang_vel
    return m3.quat_rotate_inv(att, f_world), tau


@fixed(200)
@given(vec3s, vec3s, unit_quats(), vec3s, vec3s)
def test_pd_wrench_f(pos_err, ori_err, att, lin_vel, ang_vel):
    g = PdGains()
    force, torque = pd_wrench_f(pos_err, ori_err, att, lin_vel, ang_vel, g)
    args = (np.array(a) for a in (pos_err, ori_err, att, lin_vel, ang_vel))
    want_force, want_torque = pd_twin(*args, g)
    assert bits(force) == bits(want_force) and bits(torque) == bits(want_torque)


# ----------------------------------------------------------- propagation


masks = st.lists(st.sampled_from([0.0, 1.0]), min_size=3, max_size=3)
positive = st.floats(0.05, 20.0)


@fixed(200)
@given(
    vec3s, unit_quats(), vec3s, vec3s, vec3s, vec3s,
    positive, st.lists(positive, min_size=3, max_size=3),
    st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
    masks, masks, st.floats(1e-4, 0.5),
)
@example(
    [0.0] * 3, [1.0, 0.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3, [0.0] * 3, [0.0] * 3,
    9.5, [0.15, 0.14, 0.16], [0.0] * 3, [1.0] * 3, [1.0] * 3, 0.016,
)  # at rest: the small-angle branch at angle 0
def test_step_f_matches_step_arrays(pos, att, lv, av, force, torque, mass, inertia,
                                    com, tm, rm, dt):
    args = [pos, att, lv, av, force, torque, mass, inertia, com, tm, rm]
    got = step_f(*args, dt)
    want = step_arrays(*(np.array(a, dtype=np.float64) for a in args), dt)
    for g, w in zip(got, want):
        assert all(type(c) is float for c in g)
        assert bits(g) == bits(w)


@st.composite
def state_batches(draw):
    """step_arrays' per-row arguments as n rows each, then the shared masks and dt."""
    rows = draw(batches(
        vec3s, unit_quats(), vec3s, vec3s, vec3s, vec3s, positive,
        st.lists(positive, min_size=3, max_size=3),
        st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
    ))
    return rows, draw(masks), draw(masks), draw(st.floats(1e-4, 0.5))


@fixed(40)
@given(state_batches())
def test_step_arrays_rows_match_step_f(batch):
    rows, tm, rm, dt = batch
    want = step_arrays(*(np.array(a, dtype=np.float64) for a in rows + [tm, rm]), dt)
    for r in range(len(rows[0])):
        got = step_f(*(a[r] for a in rows), tm, rm, dt)
        for g, w in zip(got, want):
            assert bits(g) == bits(w[r])


def test_step_f_raises_on_divergence():
    args = [[1.7e308] * 3, [1.0, 0.0, 0.0, 0.0], [1e308] * 3, [0.0] * 3, [0.0] * 3, [0.0] * 3,
            9.5, [0.15, 0.14, 0.16], [0.0] * 3, [1.0] * 3, [1.0] * 3]
    with np.errstate(over="ignore"):
        new_pos = step_arrays(*(np.array(a, dtype=np.float64) for a in args), 0.5)[0]
    assert not np.isfinite(new_pos).all()
    with pytest.raises(SimulationDivergedError):
        step_f(*args, 0.5)
