"""The per-element value types are slotted frozen dataclasses: no instance dict, no new
attributes, and the same fields after pickle and copy; and the outputs of a group chain
stay small."""

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from lorentzsky import (FourVector, HermitianSlot, MoebiusTransform, PoincareTransform,
                        PolarAngles, SL2CElement, SL2RElement, SpherePoint,
                        SU2Element, boost_axis, boost_x,
                        hermitian_from_four_vector, lift_lorentz_to_sl2c, recompose,
                        sl2c_to_lorentz, standard_decompose, su2_from_axis_angle,
                        validate_lorentz)
from lorentzsky.celestial import (AsymptoticAction, BondiPoint, Photon4Momentum,
                                  act_asymptotic, act_exact)
from lorentzsky.sampling import random_sl2c
from lorentzsky.spin import _Unimodular

Q = SpherePoint.from_complex(0.5 - 0.25j)

VALUES = {
    "FourVector": lambda: FourVector(1.0, -2.0, 0.5, 3.0),
    "PoincareTransform": lambda: PoincareTransform(boost_x(0.5), FourVector(1.0, 0.0, 2.0, 0.0)),
    "PolarAngles": lambda: PolarAngles(1.0, 2.0),
    "SpherePoint": lambda: Q,
    "MoebiusTransform": lambda: MoebiusTransform.dilation(0.7),
    "BondiPoint": lambda: BondiPoint(1.5, 100.0, Q),
    "AsymptoticAction": lambda: act_asymptotic(SL2CElement(1.0, 2.0 + 1.0j, 0.0, 1.0)),
    "Photon4Momentum": lambda: Photon4Momentum(FourVector(2.0, 0.0, 1.2, 1.6)),
    "_Unimodular": lambda: _Unimodular(1.0, 2.0, 0.5, 2.0),
    "SL2CElement": lambda: lift_lorentz_to_sl2c(boost_axis((0.6, 0.0, 0.8), 1.2)),
    "SL2RElement": lambda: SL2RElement(2.0, 1.0, 1.0, 1.0),
    "SU2Element": lambda: su2_from_axis_angle((0.0, 0.6, 0.8), 0.9),
    "HermitianSlot": lambda: hermitian_from_four_vector(FourVector(2.0, 0.5, -1.0, 0.25)),
    "StandardDecomposition": lambda: standard_decompose(
        boost_axis((0.6, 0.0, 0.8), 1.2) @ boost_axis((0.0, 1.0, 0.0), 0.4)),
}


def assert_same_fields(x, y):
    assert type(y) is type(x)
    for f in dataclasses.fields(x):
        a, b = getattr(x, f.name), getattr(y, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


@pytest.mark.parametrize("name", sorted(VALUES))
def test_slotted_types_stay_values(name):
    x = VALUES[name]()
    assert type(x).__name__ == name
    assert not hasattr(x, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, dataclasses.fields(x)[0].name, 1.0)
    # CPython 3.11's frozen slotted dataclasses refuse a name that is not a field with a
    # TypeError from their generated __setattr__, not the FrozenInstanceError a field gets
    with pytest.raises((AttributeError, TypeError)):
        x.extra = 1.0
    with pytest.raises(AttributeError):  # no slot for it, frozen or not
        object.__setattr__(x, "extra", 1.0)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert_same_fields(x, y)
        if type(x).__eq__ is not object.__eq__:  # eq=False keeps identity
            assert y == x


RADII = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7)
#: bytes held per chain by its 12 outputs and their list: 3490 measured on CPython 3.11 with
#: the value types slotted, 4298 with an instance dict each; the bound is 10 % above 3490
BYTES_PER_CHAIN = 3840


def chain_outputs(s, bondi):
    """Cover, validate, lift, decompose, recompose, Mobius apply and act_exact at each radius."""
    lam = sl2c_to_lorentz(s)
    dec = standard_decompose(lam)
    return [lam, validate_lorentz(lam.entries), lift_lorentz_to_sl2c(lam), dec, recompose(dec),
            MoebiusTransform(s).apply(bondi[0].q), *(act_exact(lam, b) for b in bondi)]


def test_chain_outputs_hold_few_bytes():
    rng = np.random.default_rng(33)
    inputs = []
    for _ in range(300):
        s = random_sl2c(rng)
        q = SpherePoint.from_complex(complex(*rng.normal(size=2)))
        inputs.append((s, [BondiPoint(float(rng.normal()), r, q) for r in RADII]))
    chain_outputs(*inputs[0])  # first-call caches, outside the count
    outputs = []
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s, bondi in inputs:
            outputs += chain_outputs(s, bondi)
        held = (tracemalloc.get_traced_memory()[0] - before) / len(inputs)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(outputs) == 12 * len(inputs)
    assert held <= BYTES_PER_CHAIN, f"{held:.0f} bytes per chain"
