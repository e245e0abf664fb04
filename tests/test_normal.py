"""``cinderella.normal`` against ``scipy.special``, bit for bit.

The port must give scipy's bits at every input, or every golden hash of a run
that draws reward noise or samples smooth_drift moves. Results are compared by
``tobytes()``, so -0.0 against 0.0 and a NaN's sign bit count.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from cinderella.envs import env_smooth_drift
from cinderella.normal import _EXP_M2, _MAXLOG, NDTR_ARRAY_MIN, ndtr, ndtr_array, ndtri

N_RANDOM = 1_000_000


def _ulps(values, k=3):
    """Each value and its k float neighbours on either side."""
    out = []
    for v in values:
        lo = hi = float(v)
        out.append(lo)
        for _ in range(k):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


# x where |x| sqrt(1/2) crosses sqrt(1/2), 1 and 8 (erf, 1 - erf, P/Q, R/S) and where -z^2
# crosses -MAXLOG (the underflow to 0), with both signs; the specials; tiny and huge values.
_X_EDGES = np.array(
    _ulps([s * c for c in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)) for s in (1, -1)])
    + _ulps([s * math.sqrt(2.0 * _MAXLOG) for s in (1, -1)])
    + [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-300, 1e300, -1e300]
)
# y at the ends, where the central range (e^-2, 1 - e^-2) ends and where x = sqrt(-2 log y)
# crosses 8 (y = e^-32); the tail's far end; outside [0, 1]; the specials.
_Y_EDGES = np.array(
    _ulps([_EXP_M2, 1.0 - _EXP_M2, math.exp(-32.0), 1.0 - math.exp(-32.0), 1e-300, 0.5])
    + [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), 5e-324, -1e-300, 1.0 + 2**-52, 2.0]
    + [math.inf, -math.inf, math.nan]
)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _random_x(rng):
    n = N_RANDOM // 4
    return np.concatenate(
        [
            rng.normal(0.0, 1.0, n),
            rng.normal(0.0, 5.0, n),
            rng.uniform(-40.0, 40.0, n),  # past the underflow at |x| = 37.7
            rng.uniform(-1.5, 1.5, N_RANDOM - 3 * n),  # the erf and 1 - erf ranges
        ]
    )


def _random_y(rng):
    n = N_RANDOM // 4
    return np.concatenate(
        [
            rng.uniform(0.0, 1.0, n),
            rng.uniform(_EXP_M2, 1.0 - _EXP_M2, n),
            np.exp(-rng.uniform(0.0, 745.0, n)),  # both tails of the lower range, subnormals too
            1.0 - np.exp(-rng.uniform(0.0, 37.0, N_RANDOM - 3 * n)),
        ]
    )


def test_ndtr_scalar_matches_scipy():
    x = np.concatenate([_X_EDGES, _random_x(np.random.default_rng(11))])
    got = np.fromiter(map(ndtr, x.tolist()), float, x.size)
    assert _bits(got) == _bits(special.ndtr(x))


def test_ndtr_array_stacked_pass_matches_scipy():
    x = np.concatenate([_X_EDGES, _random_x(np.random.default_rng(12))])
    assert _bits(ndtr_array(x)) == _bits(special.ndtr(x))
    edges = np.resize(_X_EDGES, max(NDTR_ARRAY_MIN, _X_EDGES.size))  # the stacked path alone
    assert _bits(ndtr_array(edges)) == _bits(special.ndtr(edges))


def test_ndtri_matches_scipy():
    y = np.concatenate([_Y_EDGES, _random_y(np.random.default_rng(13))])
    got = np.fromiter(map(ndtri, y.tolist()), float, y.size)
    assert _bits(got) == _bits(special.ndtri(y))


def test_scalars_take_numpy_scalars_and_return_floats():
    assert type(ndtr(np.float64(0.3))) is float and type(ndtri(np.float64(0.3))) is float
    assert _bits(ndtr(np.float64(-1.7))) == _bits(special.ndtr(-1.7))


@pytest.mark.parametrize(
    "shape",
    [(0,), (1,), (NDTR_ARRAY_MIN - 1,), (NDTR_ARRAY_MIN,), (3 * NDTR_ARRAY_MIN,), (2, 5), (2, 193)],
)
def test_ndtr_array_matches_the_scalar(shape):
    """Both paths, on either side of the size threshold, give the scalar's bits and the shape."""
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(0.0, 6.0, shape)
    x.flat[: min(x.size, _X_EDGES.size)] = _X_EDGES[: x.size]
    got = ndtr_array(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert _bits(got) == _bits(np.fromiter(map(ndtr, x.ravel().tolist()), float, x.size))


def _vectorized_sample(Z, rng, drift_gain=0.5, noise_sigma=0.3):
    """smooth_drift's transition sample as one array expression through scipy.special."""
    mu = Z[:, 0] + drift_gain * Z[:, 1]
    lo = special.ndtr((-1.0 - mu) / noise_sigma)
    hi = special.ndtr((1.0 - mu) / noise_sigma)
    u = rng.uniform(lo, hi)
    return np.clip(mu + noise_sigma * special.ndtri(u), -1.0, 1.0)[:, None]


@pytest.mark.parametrize("rows", [1, 5, 64])
def test_smooth_drift_sample_matches_vectorized_form(rows):
    """The row loop gives the array form's bits and leaves the generator in its state."""
    env = env_smooth_drift(0.5, 0.3, horizon=2)
    Z = np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 2))
    Z[0] = (1.0, 1.0)  # the mean past the cube's edge
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20):
        assert _bits(env.transition_sample(Z, ours)) == _bits(_vectorized_sample(Z, theirs))
    assert ours.uniform() == theirs.uniform()


class _FixedUniform:
    """Returns the next of ``values`` at each draw, with the shape of the bounds."""

    def __init__(self, values):
        self._values = iter(values)

    def uniform(self, lo, hi):
        shape = np.shape(lo)
        return np.array([next(self._values) for _ in range(int(np.prod(shape)))]).reshape(shape)


def test_smooth_drift_sample_clips_as_np_clip():
    """A mean of -0.0, a NaN mean, and the infinite quantiles of draws at u = 0 and 1."""
    env = env_smooth_drift(0.5, 0.3, horizon=2)
    Z = np.array([[-0.0, -0.0], [math.nan, 0.0], [0.2, 0.1], [0.2, 0.1], [0.5, 0.0]])
    u = [0.5, 0.5, 0.0, 1.0, 0.75]
    got = env.transition_sample(Z, _FixedUniform(u))
    assert _bits(got) == _bits(_vectorized_sample(Z, _FixedUniform(u)))
    assert math.isnan(got[1, 0]) and got[2, 0] == -1.0 and got[3, 0] == 1.0


def test_a_regret_run_loads_no_scipy():
    """After ``import cinderella``, an H = 3 uniform-s1 smooth_drift run and a uniform_shift
    run, no module of scipy is loaded: the audit's ``linprog`` is its only importer."""
    code = (
        "import sys\n"
        "import cinderella\n"
        "from cinderella import RunConfig, run_experiment\n"
        "run_experiment(RunConfig(env_name='smooth_drift', episodes=4, horizon=3, nu=3.0,\n"
        "                         epsilon=0.5, oracle_m_state=33, oracle_m_action=17,\n"
        "                         init_mode='uniform'))\n"
        "run_experiment(RunConfig(env_name='uniform_shift', episodes=4, horizon=2, nu=1.0,\n"
        "                         epsilon=0.5, oracle_m_state=17, oracle_m_action=9))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
