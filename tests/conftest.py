import os

import hypothesis
import hypothesis.strategies as st
import numpy as np

from coherence_forge import DiagonalFilter, QState

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None
)
# CI runs set HYPOTHESIS_PROFILE=ci: the same examples on every run, so a
# failure there reproduces; local runs keep drawing new ones
hypothesis.settings.register_profile(
    "ci", hypothesis.settings.get_profile("default"), derandomize=True
)
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def density_matrices(draw, dims=(2, 3, 4)):
    """Random valid density matrices built from a Gaussian-free factor A A^dag."""
    d = draw(st.sampled_from(dims))
    re = draw(st.lists(_finite, min_size=d * d, max_size=d * d))
    im = draw(st.lists(_finite, min_size=d * d, max_size=d * d))
    a = np.asarray(re).reshape(d, d) + 1j * np.asarray(im).reshape(d, d)
    rho = a @ a.conj().T + 1e-3 * np.eye(d)
    rho = 0.5 * (rho + rho.conj().T)
    return QState(rho / np.trace(rho).real)


@st.composite
def pure_states(draw, dims=(2, 3, 4)):
    d = draw(st.sampled_from(dims))
    re = draw(st.lists(_finite, min_size=d, max_size=d))
    im = draw(st.lists(_finite, min_size=d, max_size=d))
    v = np.asarray(re) + 1j * np.asarray(im)
    hypothesis.assume(np.linalg.norm(v) > 1e-3)
    return QState.pure(v)


@st.composite
def diagonal_filters(draw, dim):
    mags = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=dim, max_size=dim)
    )
    phases = draw(
        st.lists(st.floats(0.0, 2 * np.pi, allow_nan=False), min_size=dim, max_size=dim)
    )
    return DiagonalFilter(np.asarray(mags) * np.exp(1j * np.asarray(phases)))
