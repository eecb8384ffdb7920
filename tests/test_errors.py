"""The index and label rules of ``vceo.errors``, as each caller applies them."""

import pytest

from vceo import BoundParams, InvalidParamsError, SchemeParams, SourceModel, build_joint_cov
from vceo import receiver_distortion, sample_joint

UNIT = SourceModel(1.0, 1.0, 1.0)
SCHEME = SchemeParams(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: UNIT.noise_var(3), "encoder index must be 1 or 2, got 3"),
        (lambda: SCHEME.encoder(0), "encoder index must be 1 or 2, got 0"),
        (lambda: BoundParams(0.5, 0.5, 0.5, 0.5, 1.0, 1.0).encoder(0), "encoder index"),
        (lambda: receiver_distortion(UNIT, SCHEME, 3), "receiver index must be 1 or 2, got 3"),
        (lambda: build_joint_cov(UNIT, SCHEME).index("Y1"), "unknown label 'Y1'"),
        (lambda: sample_joint(UNIT, SCHEME, 2, 0).index("Y1"), "unknown label 'Y1'"),
    ],
    ids=["noise_var", "scheme_encoder", "bound_encoder", "receiver", "cov_label", "sample_label"],
)
def test_an_index_or_label_outside_the_law_is_invalid(call, message):
    with pytest.raises(InvalidParamsError, match=message):
        call()
