"""Physical limits that every key rate must respect, whatever the kernel.

The repeaterless bound of Pirandola, Laurenza, Ottaviani and Banchi
(PLOB), Nat. Commun. 8, 15043 (2017): no key distribution over a
thermal-loss channel of transmittance T and thermal mean photon number n
beats

    -log2((1 - T) T^n) - g(n)   for n < T / (1 - T), and 0 beyond,

with g(n) = (n + 1) log2(n + 1) - n log2(n) the entropy of a thermal
mode.  An arm of the relay is such a channel: its excess noise eps,
referred to the channel output, comes from a cloner of variance
1 + eps/(1 - T) = 2n + 1, so n = eps / (2 (1 - T)).  A key that passes through the relay passes through
both arms, so K is bounded by the weaker arm's bound.
"""

import math

from hypothesis import example, given, seed, settings, strategies as st

from cvmdi import AddedNoiseParams, ProtocolParams, key_rate
from cvmdi.analysis import DETECTOR_PRESETS
from cvmdi.protocols import PROTOCOLS


def thermal_entropy(n: float) -> float:
    """g(n) in bits, written apart from ``gaussian.g_func``, whose 1/n
    overflows for a subnormal n."""
    return 0.0 if n == 0.0 else ((n + 1.0) * math.log1p(n) - n * math.log(n)) / math.log(2.0)


def plob_bound(t: float, eps: float) -> float:
    """PLOB bound, in bits per use, of a thermal-loss channel of
    transmittance t whose output excess noise is eps; +inf at t = 1."""
    if t == 1.0:
        return math.inf
    n = eps / (2.0 * (1.0 - t))
    if n >= t / (1.0 - t):
        return 0.0
    return -math.log2((1.0 - t) * t ** n) - thermal_entropy(n)


def test_plob_bound_limits():
    # a pure-loss channel (n = 0) gives -log2(1 - T), 1 bit per use at T = 1/2;
    # an entanglement-breaking one (n >= T/(1 - T), that is eps >= 2T) gives 0
    assert plob_bound(0.5, 0.0) == 1.0
    assert plob_bound(0.01, 0.0) == -math.log2(0.99)
    assert plob_bound(0.01, 0.02) == 0.0
    assert plob_bound(0.01, 0.0199) > 0.0


_VARIANCE = st.one_of(st.sampled_from([5.04, 1e5]), st.floats(1.5, 50.0))
_LENGTH = st.one_of(st.just(0.0), st.floats(0.0, 60.0))


@seed(15043)
@settings(max_examples=150)
@given(protocol=st.sampled_from(PROTOCOLS), v=_VARIANCE, l_ac=_LENGTH, l_bc=_LENGTH,
       eps1=st.floats(0.0, 0.05), eps2=st.floats(0.0, 0.05),
       detector=st.sampled_from(sorted(DETECTOR_PRESETS)), beta=st.floats(0.8, 1.0),
       chi_n=st.floats(0.0, 20.0))
# reverse reconciliation at V = 1e5 over a pure-loss arm: K is within 4e-5
# of the bound, relative, at every length, so a kernel off by more fails
@example(protocol="squeezed", v=1e5, l_ac=30.0, l_bc=0.0, eps1=0.0, eps2=0.0,
         detector="perfect", beta=1.0, chi_n=0.0)
@example(protocol="squeezed-modified", v=1e5, l_ac=100.0, l_bc=0.0, eps1=0.0, eps2=0.0,
         detector="perfect", beta=1.0, chi_n=0.0)
def test_key_rate_never_beats_the_weaker_arm_plob_bound(protocol, v, l_ac, l_bc, eps1, eps2,
                                                        detector, beta, chi_n):
    eta, v_el = DETECTOR_PRESETS[detector]
    p = ProtocolParams(v_a=v, v_b=v, l_ac=l_ac, l_bc=l_bc, eps1=eps1, eps2=eps2, eta=eta,
                       v_el=v_el, beta=beta, protocol=protocol)
    noise = AddedNoiseParams.from_chi_n(chi_n) if protocol == "squeezed-modified" else None
    k = key_rate(p, noise).key_rate
    assert k <= min(plob_bound(p.t_1, eps1), plob_bound(p.t_2, eps2)), p
