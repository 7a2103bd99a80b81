"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from resae.layers import ACTIVATION_KINDS
from resae.network import RESIDUAL_POST_OPS, NetworkSpec

_ACTS = st.sampled_from(ACTIVATION_KINDS)


@st.composite
def network_specs(draw) -> NetworkSpec:
    form = draw(st.sampled_from([list, tuple]))   # a spec stores either as a tuple
    nnode = form(draw(st.lists(st.integers(1, 16), min_size=1, max_size=4)))
    return NetworkSpec(
        nfea=draw(st.integers(1, 6)), nnode=nnode, k=draw(st.integers(1, 3)),
        acts=draw(_ACTS | st.lists(_ACTS, min_size=len(nnode), max_size=len(nnode)).map(form)),
        dropout_rate=draw(st.floats(0.0, 0.99)),
        residual=draw(st.sampled_from(["full", "off"]) | st.integers(0, len(nnode))),
        residual_post_op=draw(st.sampled_from(RESIDUAL_POST_OPS)),
        output_option=draw(st.sampled_from([1, 2])),
        use_batchnorm=draw(st.booleans()),
        dropout_placement=draw(st.sampled_from(["code", "all"])))
