"""Property tests: transform round trips, mollifier unit mass and the
rejection paths of the config parser, over generated inputs."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vwslab import cli
from vwslab.cli import ConfigError, parse_config
from vwslab.grid import Field, GridSpec, fft, forward, ifft, inverse
from vwslab.mollify import Mollifier, mollify

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)

grids = st.builds(GridSpec, n=st.sampled_from([1, 2]), M=st.sampled_from([8, 16, 32]),
                  L=st.floats(0.5, 20.0))
complex_values = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                    allow_infinity=False)


def values_on(spec):
    return hnp.arrays(complex, spec.shape, elements=complex_values)


def close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@SETTINGS
@given(data=st.data(), spec=grids)
def test_raw_pair_round_trip(data, spec):
    v = data.draw(values_on(spec))
    close(ifft(fft(v, spec.n), spec.n), v)


@SETTINGS
@given(data=st.data(), spec=grids)
def test_forward_inverse_round_trip(data, spec):
    u = data.draw(values_on(spec))
    close(inverse(forward(u, spec), spec), u)


mollifiers = st.one_of(st.just(Mollifier("gaussian")),
                       st.builds(Mollifier, kind=st.just("vanishing-moment"),
                                 order=st.sampled_from([2, 4, 6, 8])))
omegas = st.floats(0.0, 1.0, exclude_min=True)


@SETTINGS
@given(m=mollifiers)
def test_mollifier_hat_is_one_at_zero(m):
    assert m.hat(np.zeros(1))[0] == 1.0


@SETTINGS
@given(data=st.data(), spec=grids, m=mollifiers, omega=omegas)
def test_mollify_keeps_the_zero_mode(data, spec, m, omega):
    u = Field(spec, data.draw(values_on(spec)))
    got, want = forward(mollify(u, m, omega)).flat[0], forward(u).flat[0]
    assert abs(got - want) <= 1e-12 * max(1.0, float(np.max(np.abs(u.values))))


def _net_config(**overrides):
    return json.dumps({"experiment": {"kind": "net"}, **overrides})


decreasing_ladders = st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=4,
                              max_size=6, unique=True).map(
    lambda xs: sorted(xs, reverse=True))


@SETTINGS
@given(ladder=decreasing_ladders, data=st.data())
def test_ladder_with_a_non_decreasing_pair_is_rejected(ladder, data):
    i = data.draw(st.integers(0, len(ladder) - 2))
    bad = ladder[:i + 1] + [data.draw(st.floats(ladder[i], 1.0))] + ladder[i + 2:]
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config(_net_config(ladder=bad))


@SETTINGS
@given(ladder=decreasing_ladders, data=st.data(),
       outside=st.one_of(st.floats(max_value=0.0, allow_nan=False),
                         st.floats(min_value=1.0, exclude_min=True,
                                   allow_infinity=False)))
def test_ladder_entry_outside_the_unit_interval_is_rejected(ladder, data, outside):
    ladder[data.draw(st.integers(0, len(ladder) - 1))] = outside
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        parse_config(_net_config(ladder=ladder))


@SETTINGS
@given(T=st.one_of(st.integers(max_value=0),
                   st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)))
def test_nonpositive_T_is_rejected(T):
    with pytest.raises(ConfigError, match="T must be positive"):
        parse_config(_net_config(evolution={"T": T}))


@SETTINGS
@given(stride=st.integers(max_value=-1))
def test_negative_stride_is_rejected(stride):
    with pytest.raises(ConfigError, match="stride"):
        parse_config(_net_config(output={"stride": stride}))


configs = st.fixed_dictionaries({}, optional={
    "experiment": st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(cli.EXPERIMENT_KINDS)}),
    "evolution": st.fixed_dictionaries({}, optional={"T": st.floats(-1.0, 1.0),
                                                     "s": st.lists(st.floats(0, 2))}),
    "data": st.fixed_dictionaries({}, optional={"k": st.lists(st.integers(0, 4))}),
    "model": st.fixed_dictionaries({}, optional={"params": st.just({})}),
    "ladder": decreasing_ladders,
})


@SETTINGS
@given(parses=st.lists(st.tuples(configs, st.sampled_from([None, *cli.EXPERIMENT_KINDS])),
                       max_size=5))
def test_parses_leave_the_defaults_unchanged(parses):
    saved = copy.deepcopy(cli._DEFAULTS)
    for raw, kind in parses:
        try:
            cfg = parse_config(json.dumps(raw), kind=kind)
        except ConfigError:
            continue
        # a caller writing into its config must not reach the defaults
        cfg["experiment"]["q"] = -1
        cfg["evolution"]["s"].append(99.0)
        cfg["model"]["params"]["c1"] = 3.0
    assert cli._DEFAULTS == saved
